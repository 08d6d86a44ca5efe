(** A pool of live incremental solver sessions, keyed by family
    fingerprint.

    A {e family} is the model structure modulo bound and property —
    concretely {!Symkit.Model.fingerprint} of the compiled model, which
    hashes the variable declarations, initial constraints and
    transition relation but not the query's depth or the
    configuration's name. Requests from the same family (the service
    tier's "near-miss" traffic: same transition system, different
    bound, possibly under another configuration name) check out a warm
    {!Symkit.Bmc} session and reuse its BDD compilation, CNF
    unrolling, learned clauses and per-property memo instead of
    starting cold. A [Violated] answer carries the request's own model,
    whichever name the session was first built for.

    Entries are checked out {e exclusively} (a session is a
    single-threaded stateful object); concurrent requests for one
    family get independent entries. Idle entries are evicted
    least-recently-used past the pool capacity. See doc/sessions.md. *)

type t
(** A session pool (thread-safe; entries are used by one worker at a
    time). *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default 32) bounds the {e idle} entries kept warm; the
    least recently used are dropped past it. Checked-out entries are
    not counted. *)

val family_of : Tta_model.Configs.t -> string
(** The configuration's family fingerprint:
    {!Symkit.Model.fingerprint} of its compiled model. *)

type attribution = {
  reused : bool;  (** the request ran on a pooled warm session *)
  warm_depth : int;
      (** the session's unrolling depth at checkout (0 when cold) *)
  clean_depth : int;
      (** the largest depth the session has certified
          counterexample-free for the request's property after the run
          ([-1] when depth 0 never finished) — the content of a
          degraded verdict when the run was cancelled short of its
          bound *)
}
(** Where a request's solver state came from — surfaced to clients in
    the wire protocol's [reused_session]/[warm_depth] response
    fields (and [clean_depth] on degraded responses). *)

exception Engine_failed of { message : string; clean_depth : int }
(** Raised by {!run} when every supervised attempt failed: [message]
    is the last underlying exception rendered, [clean_depth] the best
    certified depth across the failed attempts' sessions (each read
    just before its discard; [-1] when nothing was certified). The
    service turns this into a [status:"degraded"] response when
    [clean_depth >= 0]. *)

val run :
  t ->
  engine:Tta_model.Engine.id ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.t ->
  ?family:string ->
  ?supervisor:Resilience.Supervisor.policy ->
  ?faults:Resilience.Faults.t ->
  max_depth:int ->
  Tta_model.Configs.t ->
  Tta_model.Engine.result * attribution
(** Run SAT BMC ([engine] must be [Sat_bmc], the one session-backed
    engine; anything else raises [Invalid_argument]) for the
    configuration's safety
    property on a pooled session of its family. [family] overrides the
    pool {e bucket} only (e.g. a per-tenant key): every entry records
    the fingerprint of the model it actually encodes, and checkout
    verifies it against the request's, so a stale or mismatched
    override is a miss — never another configuration's solver state.
    Verdicts equal a cold-start run at the same bound: memoized clean
    depths answer instantly, counterexamples are memoized at their
    minimal depth, and a cancelled partial scan degrades to [Unknown]
    exactly like the portfolio's demotion of cancelled bounded claims.
    The entry is returned to the pool afterwards, or dropped if the
    run raised.

    The run is supervised by the portfolio path's own loop,
    {!Resilience.Supervisor.retry}: checkout, solve and check-in are
    one attempt, so [faults] hooks {!Resilience.Faults.Engine_start}
    before every attempt and {!Resilience.Faults.Engine_step} into the
    cooperative cancel polls, and an engine exception is retried up to
    [supervisor.retries] times (default policy) with the policy's
    deterministic backoff — each retry on a fresh checkout, the failed
    session having been discarded. Once retries are exhausted,
    {!Engine_failed} is raised carrying the last exception's message
    and the best clean depth the failed attempts certified. *)

val peek_clean_depth : t -> ?family:string -> Tta_model.Configs.t -> int
(** The best certified clean depth for the configuration's safety
    property across the pool's {e idle} entries of its family, without
    checking anything out ([-1] when no matching idle entry, or none
    certified depth 0). Lets a request that never ran — deadline
    already past at dequeue — still degrade to an answer with
    content. *)

type stats = {
  hits : int;  (** checkouts served by a warm entry *)
  misses : int;  (** checkouts that built a fresh entry *)
  mismatches : int;
      (** misses where the [family] bucket held only entries whose
          fingerprint differed from the request's model (stale or
          wrong override) *)
  evictions : int;  (** idle entries dropped by the LRU bound *)
  discards : int;  (** entries dropped after a failed run *)
  idle : int;  (** entries currently warm in the pool *)
}

val stats : t -> stats
