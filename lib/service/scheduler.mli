(** The daemon's scheduler: a bounded admission queue and a pool of
    worker domains in front of {!Portfolio.race}, with request
    coalescing and per-request deadlines.

    {b Dedup/coalescing.} Every submission is fingerprinted with
    {!Portfolio.Cache.key} over its compiled model and engine list,
    plus its [family] override (so a waiter never inherits another
    submitter's session-routing key). A submission whose fingerprint
    matches a computation that is already queued {e or running} does
    not enqueue anything: it joins the existing computation's waiter
    list and receives the same result when it completes. Identical
    concurrent requests therefore cost one engine run, however many
    clients ask.

    {b Cache.} When a warm {!Portfolio.Cache.t} is attached, it is
    consulted at admission: a conclusive cached verdict answers the
    submission synchronously, without touching the queue. The probe's
    file I/O runs outside the scheduler's lock, so it never stalls the
    workers. (The workers also pass the cache down to
    {!Portfolio.race}, which stores new conclusive verdicts.)

    {b Admission control.} The queue is bounded; a submission that
    finds it full is shed — {!submit} returns [`Shed] and no callback
    fires. Coalescing submissions never shed (they consume no queue
    slot).

    {b Deadlines.} A submission may carry an absolute deadline. The
    computation's effective deadline is the {e latest} over its
    waiters (a waiter without one makes the computation unbounded);
    the worker polls it through the chain's [?cancel] hook, so an
    expired computation stops cooperatively.

    {b Warm sessions.} With a {!Sessions.t} pool attached, a request
    for exactly one SAT-backed engine ([sat-bmc] or [sat-induction])
    skips the portfolio and runs on a pooled incremental solver
    session of its family — reusing BDD compilation, CNF unrolling and
    learned clauses from earlier near-miss requests. Verdicts are
    unchanged (see {!Sessions.run}); the outcome carries
    [reused_session]/[warm_depth] attribution and conclusive verdicts
    still land in the shared cache. The session path runs in the
    portfolio path's retry loop, under the same [supervisor] policy and
    [faults] hooks (retries restart on a fresh session); exhausted
    retries are answered as a recorded failure that the protocol layer
    turns into [engine_failed].
    Multi-engine chains and BDD-backed engines take the cold path as
    before. A computation whose
    deadline has already passed when a worker picks it up is skipped —
    no engine runs. Conclusive verdicts are always delivered, even to
    waiters whose own deadline has meanwhile passed; an inconclusive
    outcome to an expired waiter is flagged [expired] so the protocol
    layer can report [deadline_exceeded].

    {b Drain.} {!drain} stops admission, wakes the workers, and waits
    until every accepted computation has been answered. With [~grace],
    a watchdog raises a force-cancel flag once the grace period
    elapses, so long-running engine runs finish early with an
    inconclusive verdict instead of holding shutdown hostage. *)

type t

val create :
  ?workers:int ->
  ?queue_cap:int ->
  ?cache:Portfolio.Cache.t ->
  ?sessions:Sessions.t ->
  ?obs:Obs.Collector.t ->
  ?supervisor:Resilience.Supervisor.policy ->
  ?faults:Resilience.Faults.t ->
  unit ->
  t
(** [workers] defaults to [Portfolio.Pool.default_domains ()];
    [queue_cap] (distinct queued computations, running ones excluded)
    defaults to 64. With [obs], the scheduler writes to a ["service"]
    track: [service.queue_depth] / [service.inflight] gauges,
    [service.{submitted,coalesced,shed,cache_hits,runs,expired,
    completed,session_reuses}] counters, and a [service.run] span per
    engine-pool computation. [sessions] attaches a warm solver-session
    pool (see the module doc). [supervisor]/[faults] are forwarded to every
    {!Portfolio.race} and session run the workers start: a request
    whose engines all crash is still answered — with a result flagged by
    {!Portfolio.all_failed} that the protocol layer turns into a
    structured [engine_failed] error.
    @raise Invalid_argument if [workers < 1] or [queue_cap < 1]. *)

type outcome = {
  result : Portfolio.result;
  coalesced : bool;  (** this waiter joined an existing computation *)
  queue_ms : float;  (** submission to run start (0 on a cache hit) *)
  expired : bool;
      (** the waiter's deadline passed and the verdict is inconclusive
          — report [deadline_exceeded] *)
  reused_session : bool;
      (** the computation ran on a pooled warm solver session *)
  warm_depth : int;
      (** the session's unrolling depth at checkout (0 unless
          [reused_session]) *)
  clean_depth : int;
      (** largest depth the request's warm session certified
          counterexample-free ([-1] when none, or when the request did
          not run session-backed) — an inconclusive outcome with
          [clean_depth >= 0] degrades to a content-bearing
          [status:"degraded"] answer instead of a bare error *)
}

val submit :
  t ->
  ?deadline:float ->
  ?family:string ->
  engines:Tta_model.Engine.id list ->
  max_depth:int ->
  callback:(outcome -> unit) ->
  Tta_model.Configs.t ->
  [ `Queued | `Coalesced | `Cache_hit | `Shed | `Draining ]
(** Submit one verification request. [deadline] is absolute
    ([Unix.gettimeofday] time). [family] selects the session pool's
    bucket for this request instead of the computed family fingerprint
    (no effect on routing without an attached pool, or on the
    portfolio path) and partitions coalescing: submissions with
    different [family] values never share a computation. The pool
    validates the entry's fingerprint at checkout, so a wrong override
    costs a cold start, never a wrong verdict. On [`Cache_hit] the callback has
    already run (synchronously); on [`Queued]/[`Coalesced] it will run
    exactly once, from a worker domain; on [`Shed]/[`Draining] it
    never runs — answer the client directly.
    @raise Invalid_argument on an empty engine list. *)

val drain : ?grace:float -> t -> unit
(** Graceful shutdown: refuse new submissions, run the queue down
    (force-cancelling after [grace] seconds, if given) and join the
    workers. Every callback has fired when [drain] returns. Idempotent
    in effect, but must only be called once. *)

type stats = {
  submitted : int;  (** admitted (queued + coalesced + cache hits) *)
  completed : int;  (** callbacks delivered *)
  coalesced : int;
  shed : int;
  cache_hits : int;  (** admission-time cache answers *)
  runs : int;  (** computations actually handed to the engine pool *)
  expired : int;  (** waiters answered inconclusively past deadline *)
  session_reuses : int;
      (** computations served by a warm pooled solver session *)
}

val stats : t -> stats

val queue_depth : t -> int
val inflight : t -> int
(** Computations currently being executed by workers. *)
