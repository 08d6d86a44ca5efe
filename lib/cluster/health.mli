(** Ping/pong liveness tracking for one cluster worker.

    The router periodically sends a {!Service.Protocol.ping} down each
    worker's connection and expects the matching pong; a worker that
    answers nothing for [timeout] seconds is declared dead even though
    its process may still exist (wedged event loop, livelock). This
    module is the pure bookkeeping half — when is the next probe due,
    which pong id is expected, is the worker overdue — driven by the
    router's select loop, which supplies the clock. Deterministic
    under an artificial [now], so the timing logic is unit-testable
    without sockets or sleeps.

    Probe ids are ["hb:<worker>:<seq>"] — namespaced so the router can
    tell heartbeat pongs from forwarded verification responses on the
    same connection. *)

type t

val create : ?interval:float -> ?timeout:float -> now:float -> string -> t
(** Tracker for the named worker; [now] starts both clocks (the worker
    is considered seen at creation). [interval] (default 1 s) spaces
    the probes; [timeout] (default 3 s) is silence-until-death.
    @raise Invalid_argument if [timeout <= interval]. *)

val next_ping : now:float -> t -> string option
(** [Some id] when a probe is due: the caller must send a ping with
    this id. A probe is due every [interval], whether or not earlier
    ones were answered — a single lost ping or pong must not be
    enough to declare a live worker dead. *)

val pong : now:float -> t -> string -> unit
(** A pong for any probe this tracker issued since its last {!reset}
    marks the worker seen; ids from before the reset, never issued,
    or of another worker are ignored. *)

val overdue : now:float -> t -> bool
(** More than [timeout] seconds since the worker was last seen. *)

val reset : now:float -> t -> unit
(** Forget history (fresh connection after a restart). *)

val is_ping_id : string -> bool
(** Whether a response id is from the heartbeat namespace ([hb:...]) —
    the router's demultiplexing test. *)
