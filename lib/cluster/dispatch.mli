(** The cluster router's policy as a pure state machine.

    Everything {!Router} decides lives here: which worker a request
    goes to, the pending table and its [2W + 2] leg budget, hedges,
    the retransmit net, circuit breakers, parking, re-dispatch when a
    worker dies, respawn pacing through the restart gate, health
    probes, link chaos and the drain. Nothing here touches a socket, a
    process or a clock: time enters only as [~now], and every effect
    leaves as an {!output} for the caller to carry out. {!Router} is
    the IO shell that feeds real descriptors to {!step}; tests feed it
    fake workers in virtual time.

    ['c] is the client handle a reply goes back to: a
    {!Service.Net.conn} in the router, anything in a test. The state
    is plain mutable data owned by one caller, like {!Breaker} and
    {!Health}. With the same inputs at the same [now] values — and a
    {!Resilience.Faults} registry built from the same spec — the
    outputs are the same. *)

type event =
  | Worker_spawned of { name : string; pid : int }
      (** the shell's: only it knows the pid *)
  | Worker_ready of { name : string; addr : string }
  | Worker_exited of { name : string; reason : string }
  | Worker_backoff of { name : string; delay_s : float }
  | Worker_gave_up of { name : string }
  | Forwarded of { id : string; worker : string }
      (** one leg of request [id] (the client's) went to [worker];
          hedges and re-dispatches included *)
  | Rerouted of { id : string; worker : string }
      (** request [id] was re-dispatched to [worker] with none of its
          legs left outstanding: its worker died, or the retransmit
          net gave up on a silent worker that is still alive *)
  | Breaker_opened of { name : string }
      (** the worker's failure rate tripped its circuit breaker *)
  | Breaker_closed of { name : string }
      (** a half-open probe succeeded; traffic restored *)
  | Hedged of { id : string; worker : string }
      (** a duplicate leg was dispatched to [worker]; [id] is the
          client's *)

type 'c input =
  | Request of { client : 'c; id : string; line : string; key : string }
      (** a decoded verification request: the client's [id], its raw
          [line] (a JSON object) and its consistent-hash routing [key] *)
  | Line of { worker : string; line : string }
      (** one line read from the worker's connection, newline
          stripped *)
  | Ready of { worker : string; addr : string }
      (** the spawned worker announced [addr] and the shell connected
          to it *)
  | Died of { worker : string; reason : string }
      (** the shell saw the worker fail: EOF or reset on either of its
          descriptors, a failed spawn, connect or write *)
  | Tick  (** time passed; the shell sends one about every 50 ms *)
  | Drain
      (** the router is stopping: no more respawns, and whatever is
          still unanswered [grace] seconds after the first [Drain] is
          cancelled. Send one per loop turn while {!busy}. *)

type 'c output =
  | Send of { worker : string; line : string }
      (** write the newline-terminated [line] to the worker's current
          connection; if the write fails, step [Died]. A [Send] for a
          worker whose connection is already gone is dropped. *)
  | Reply of { client : 'c; line : string }
      (** write the newline-terminated [line] to the client *)
  | Spawn of string
      (** start the worker's process; step [Ready] once it has
          announced its address and the shell has connected, or
          [Died] *)
  | Terminate of string
      (** close the worker's connection and reap its process *)
  | Event of event

type 'c t

val create :
  vnodes:int ->
  max_restarts:int ->
  restart_window_s:float ->
  health_interval:float ->
  health_timeout:float ->
  grace:float ->
  faults:Resilience.Faults.t ->
  hedge_ms:int ->
  breaker_window:int ->
  workers:int ->
  'c t
(** A fleet of [workers] named [w0..w{n-1}], all due to spawn at the
    first {!Tick}. The parameters are {!Router.start}'s.
    @raise Invalid_argument if [workers < 1], [hedge_ms < 0] or
    [breaker_window < 0]. *)

val step : 'c t -> now:float -> 'c input -> 'c output list
(** Apply one input at time [now] (seconds, never decreasing) and
    return its effects in the order they must happen. A worker
    spawned by a [Spawn] that is neither [Ready] nor [Died] after
    10 s is declared dead at the next {!Tick}. *)

val busy : 'c t -> bool
(** Some request is still waiting for an answer. *)

(** {1 Pure helpers}

    The id-rewriting layer. The router multiplexes many clients onto
    one connection per worker, so it substitutes router-scoped ids
    (["q<n>"]) on the worker leg. Both return [None] when the line is
    not a JSON object. *)

val rewrite_request_id : string -> id:string -> string option
(** Replace the object's [id] (first field of the result). *)

val rewrite_response_line :
  ?hedged:bool -> string -> id:string -> worker:string -> string option
(** Replace [id] and append a [worker] field naming the shard, plus
    ["hedged":true] when the request was hedged (default [false]). *)
