(** The cluster front end: one socket in, N supervised daemons behind.

    Clients speak the ordinary {!Service.Protocol} JSON-lines dialect
    to the router exactly as they would to a single [tta_served]; the
    router spawns and supervises [workers] daemon processes (each
    bound to a kernel-assigned local port, discovered from the
    daemon's readiness line) and consistent-hashes every verification
    request onto one of them by the fingerprint of the model it asks
    about. That is a content hash, so configuration names that build
    one transition system share it. Same system — same shard: repeats
    coalesce in that worker's scheduler and its engines stay warm,
    which is the scaling story
    (throughput grows with shards) {e and} the paper's tradeoff made
    operational — a centralized front door whose fault tolerance has
    to be re-earned with supervision, health probes, and failover.

    {b Core and shell.} Every decision below — routing, failover,
    breakers, hedging, the retransmit net, link chaos, the drain — is
    {!Dispatch}'s, a pure state machine in virtual time. This module is
    its IO shell: it owns the listener, the worker processes, their
    stdout pipes and connections, and the counters behind {!stats}. It
    feeds each client request, worker line, readiness, failure and
    50 ms tick to {!Dispatch.step} and carries out the outputs; a
    failed write to a worker goes back in as that worker's death.

    {b Failover.} Worker death is detected three ways: EOF/reset on
    the worker connection, EOF on its stdout pipe, and missed
    heartbeat pongs ({!Health}). A dead worker's in-flight requests
    re-route to the next live worker clockwise on the ring — safe to
    re-send because workers dedup identical requests and share one
    verdict-cache directory, so a duplicated computation is answered
    from cache rather than re-proved. Respawns are paced by
    {!Resilience.Supervisor.Restarts}: deterministic capped
    exponential backoff, giving up on a worker that exceeds
    [max_restarts] deaths in [restart_window_s] (its keys then simply
    belong to its ring successors). While no worker is live, requests
    park and flush on the next ready; once the last worker has given
    up, every parked request is answered [engine_failed].

    {b Id rewriting.} The router multiplexes many client connections
    onto one connection per worker, so it substitutes its own request
    ids on the worker leg and restores the client's id on the way
    back, appending a [worker] field naming the serving shard (how
    {!Service.Loadgen} measures per-worker distribution). Heartbeat
    ids live in the [hb:] namespace and never collide with these.

    {b Circuit breakers.} With [breaker_window > 0] each worker gets a
    {!Breaker}: a worker whose recent requests keep failing is routed
    around ({e before} the restart gate would fire — it may be
    perfectly alive, just sick), its pongs move the open circuit to
    half-open, and one probe request decides between closing it and
    re-opening. Requests with no admissible worker park exactly like
    requests with no live worker.

    {b Hedging.} With [hedge_ms > 0], a request whose first answer has
    not arrived within that delay is duplicated onto the next
    admissible ring worker; the first content-bearing response wins,
    the loser's inflight entry is cancelled, and the winning response
    carries ["hedged":true]. Safe because verdicts are deterministic
    and workers coalesce by fingerprint.

    {b Link chaos.} The [faults] registry's [link_send]/[link_recv]
    rules apply per router↔worker line (requests, responses, and
    heartbeats alike): [drop] loses the line, [delay] defers it on a
    queue flushed by the loop (never sleeping the loop itself), and
    [crash] kills the connection. A retransmit net re-dispatches any
    request silent for [3 * health_timeout], so a dropped line
    degrades latency, never loses the answer. *)

type event = Dispatch.event =
  | Worker_spawned of { name : string; pid : int }
  | Worker_ready of { name : string; addr : string }
  | Worker_exited of { name : string; reason : string }
  | Worker_backoff of { name : string; delay_s : float }
  | Worker_gave_up of { name : string }
  | Forwarded of { id : string; worker : string }
  | Rerouted of { id : string; worker : string }
  | Breaker_opened of { name : string }
  | Breaker_closed of { name : string }
  | Hedged of { id : string; worker : string }
(** See {!Dispatch.event}. [Rerouted] counts every re-dispatch of a
    request with no leg left outstanding: after its worker died, and
    also when the retransmit net re-sends a request its still-live
    worker never answered. *)

type stats = {
  forwarded : (string * int) list;  (** per worker name, sorted *)
  rerouted : int;  (** [Rerouted] events *)
  restarts : int;  (** worker deaths observed (respawned or not) *)
  hedged : int;  (** duplicate legs dispatched *)
  breaker_opens : int;  (** circuit-breaker trips across the fleet *)
}

type t

val start :
  ?vnodes:int ->
  ?max_restarts:int ->
  ?restart_window_s:float ->
  ?health_interval:float ->
  ?health_timeout:float ->
  ?grace:float ->
  ?faults:Resilience.Faults.t ->
  ?hedge_ms:int ->
  ?breaker_window:int ->
  ?on_event:(event -> unit) ->
  exe:string ->
  worker_args:string list ->
  workers:int ->
  Service.Net.addr ->
  t
(** Bind the client-facing [addr] (TCP port [0] allowed — see
    {!bound_addr}), then run the routing loop on its own domain,
    spawning [workers] processes [exe --socket 127.0.0.1:0
    <worker_args>]. Worker names are [w0..w{n-1}]; [vnodes] (default
    512) feeds {!Ring.create}. [max_restarts]/[restart_window_s]
    (5 / 30 s) configure each worker's {!Resilience.Supervisor.Restarts}
    gate; [health_interval]/[health_timeout] (0.5 s / 3 s)
    pace the heartbeats; a worker gets 10 s from spawn to ready;
    [grace] (10 s) bounds the {!stop} drain. [faults] arms the router-side link chaos
    ([link_send]/[link_recv] rules; default disabled); [hedge_ms]
    (default 0 = off) is the first-byte wait before a request is
    hedged; [breaker_window] (default 0 = off) is the per-worker
    outcome window, tripping at half failing. [on_event] runs on the
    loop domain: keep it quick, never raise. [Forwarded] fires once per
    request leg.
    @raise Unix.Unix_error if [addr] cannot be bound.
    @raise Invalid_argument if [workers < 1], [hedge_ms < 0], or
    [breaker_window < 0]. *)

val stop : t -> unit
(** Request a drain (idempotent, signal-safe): stop accepting, answer
    everything in flight (cancelling leftovers at [grace]), terminate
    the workers. Returns immediately — {!wait} for completion. *)

val wait : t -> unit
(** Block until the loop has exited and the workers are gone. *)

val bound_addr : t -> Service.Net.addr
(** The client-facing address actually bound (ephemeral TCP port
    resolved). *)

val stats : t -> stats

(** {1 Pure helpers}

    {!Dispatch}'s id-rewriting layer. Both return [None] when the line
    is not a JSON object. *)

val rewrite_request_id : string -> id:string -> string option
(** Replace the object's [id] (first field of the result). *)

val rewrite_response_line :
  ?hedged:bool -> string -> id:string -> worker:string -> string option
(** Replace [id] and append a [worker] field naming the shard, plus
    ["hedged":true] when the request was hedged (default [false]). *)
