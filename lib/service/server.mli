(** The verification daemon's network front end.

    {!Net}'s select loop accepts connections on a Unix-domain or TCP
    socket and hands over newline-delimited {!Protocol} requests;
    verification runs on the {!Scheduler}'s worker domains, whose
    completion callbacks write the response line directly to the
    client socket under the connection's lock. Responses therefore
    stream back as computations finish, not in request order.

    {b Shutdown.} {!stop} (wired to SIGTERM and SIGINT by {!serve})
    triggers a graceful drain: the listener closes, no further input
    is read (buffered but unsubmitted bytes are discarded), every
    accepted computation is answered (force-cancelled after the grace
    period), and the loop exits. SIGPIPE is ignored for the process —
    a client that hangs up early costs a failed write, not the
    daemon. *)

type t

val start :
  ?workers:int ->
  ?queue_cap:int ->
  ?cache:Portfolio.Cache.t ->
  ?sessions:Sessions.t ->
  ?obs:Obs.Collector.t ->
  ?faults:Resilience.Faults.t ->
  ?grace:float ->
  Net.addr ->
  t
(** Bind, listen, and run the accept loop on its own domain; returns
    once the socket is ready to connect to. [grace] (default 5 s) is
    the drain watchdog passed to {!Scheduler.drain}. [faults] also arms
    the [Sock_send]/[Sock_recv] hook points on every connection: an
    injected socket fault aborts that one connection (the client sees
    EOF and retries) without touching the select loop. [sessions]
    attaches a warm solver-session pool — single-SAT-engine requests
    then run incrementally and answers carry
    [reused_session]/[warm_depth]. The remaining options go to
    {!Scheduler.create}.
    @raise Unix.Unix_error if the address cannot be bound. *)

val stop : t -> unit
(** Request a graceful drain (idempotent; safe from a signal handler
    or any domain). Returns immediately — {!wait} for completion. *)

val wait : t -> unit
(** Block until the loop has exited and the scheduler has drained. *)

val bound_addr : t -> Net.addr
(** The address the listener actually bound: equal to the requested
    address except that a TCP port [0] is resolved to the
    kernel-assigned ephemeral port. This is what a readiness
    announcement should print. *)

val serve :
  ?workers:int ->
  ?queue_cap:int ->
  ?cache:Portfolio.Cache.t ->
  ?sessions:Sessions.t ->
  ?obs:Obs.Collector.t ->
  ?faults:Resilience.Faults.t ->
  ?grace:float ->
  ?on_ready:(t -> unit) ->
  Net.addr ->
  unit
(** The daemon main: {!start}, install SIGTERM/SIGINT handlers that
    {!stop}, call [on_ready] with the running server (so it can
    announce {!bound_addr}), and {!wait}. Returns (normally) after a
    signal-triggered drain. *)
