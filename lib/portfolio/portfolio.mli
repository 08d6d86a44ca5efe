(** Multicore portfolio verification over the paper's configuration
    matrix.

    Two levels of parallelism on OCaml 5 domains:

    - {b engine racing} ({!race}): for a single configuration, the
      complementary engines — BDD fixpoint reachability, SAT BMC, SAT
      k-induction, explicit-state BFS — run as competing workers. The
      first conclusive verdict raises a shared atomic flag; the losers
      poll it inside their main loops (the [?cancel] hooks of
      {!Symkit.Reach}/{!Symkit.Bmc}/{!Symkit.Induction}/
      {!Symkit.Explicit}) and stop cooperatively. No engine dominates
      across safe and unsafe instances, so the race's wall clock is the
      best engine's, not the chosen one's.
    - {b matrix fan-out} ({!run_matrix}): a batch of configurations is
      drained by a work-stealing {!Pool} across
      [Domain.recommended_domain_count ()] workers.

    Both levels consult a persistent {!Cache} keyed on the compiled
    model's content hash and record per-task {!Telemetry}. Passing an
    [?obs] {!Obs.Collector} additionally streams every engine run's
    spans and counters onto its own collector track (named
    ["<label>/<engine>"]) plus a ["pool"] track for the scheduler —
    export it as a Chrome trace to see a race or a whole matrix as
    parallel timelines (see doc/observability.md).

    {b Determinism.} Verdict selection is by the fixed engine
    {!priority}, never by arrival order: when several racers finish
    conclusively near-simultaneously, the reported winner — hence the
    reported proof detail and counterexample — is the highest-priority
    one. All engines are sound and produce minimal-length
    counterexamples on this model family, so the selected verdict is
    reproducible across runs. *)

(** The sibling modules, re-exported (this module shadows the library
    wrapper): *)

module Json = Json
module Pool = Pool
module Cache = Cache
module Telemetry = Telemetry

type engine = Tta_model.Engine.id
type verdict = Tta_model.Engine.verdict

val priority : engine list
(** The fixed tie-breaking order: BDD reachability (proves {e and}
    refutes with shortest traces), explicit BFS (exhaustive, minimal
    traces), k-induction (unbounded proofs), SAT BMC (bounded). *)

val conclusive : verdict -> bool
(** [Holds]/[Violated] are conclusive; [Unknown] is not. *)

val select : (engine * verdict * 'a) list -> (engine * verdict * 'a) option
(** Deterministic winner selection, exposed for the regression test:
    the highest-{!priority} conclusive entry, else the
    highest-priority entry of any kind; [None] on the empty list. The
    input order (= arrival order) never influences the choice. *)

type result = {
  config : Tta_model.Configs.t;
  engine : engine;  (** the engine whose verdict was selected *)
  verdict : verdict;
  wall_s : float;  (** the winner's wall clock (~0 on a cache hit) *)
  cache_hit : bool;
  runs : (engine * verdict * float) list;
      (** every {e completed} engine run of a race in priority order
          (empty on a cache hit or single-engine job; failed engines
          appear in [failures] instead) *)
  failures : (engine * string) list;
      (** engines whose supervised run crashed or hung, in priority
          order, with the supervisor's failure description. When {e
          every} engine failed, [verdict] is an [Unknown] whose detail
          carries this breakdown. *)
}

val all_failed : result -> bool
(** Every engine the run attempted ended in a recorded failure —
    [failures] is non-empty and [runs] is empty. The serving layer
    maps this to a structured [engine_failed] error response. *)

val race :
  ?cancel:(unit -> bool) ->
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?obs:Obs.Collector.t ->
  ?label:string ->
  ?engines:engine list ->
  ?max_depth:int ->
  ?supervisor:Resilience.Supervisor.policy ->
  ?faults:Resilience.Faults.t ->
  Tta_model.Configs.t ->
  result
(** Race [engines] (default: all of {!priority}) on one configuration,
    one domain per engine. A conclusive cached verdict short-circuits
    the race entirely (recorded as a [cache.hit] instant on [obs]).
    Each racer writes to its own [obs] track; cancelled losers
    additionally report [race.cancel_latency_us] — the time from the
    winner raising the flag to the loser actually returning.

    Every racer runs under a {!Resilience.Supervisor} with [supervisor]
    (default {!Resilience.Supervisor.default}): an engine that crashes
    is retried per the policy and, if it keeps failing, becomes an
    entry in [result.failures] while the surviving racers continue.
    Only when {e all} engines fail does the race degrade to an
    [Unknown] verdict carrying the per-engine failure breakdown.
    [faults] (default {!Resilience.Faults.disabled}) threads fault
    injection into every racer and is what the [--chaos] CLI flag
    plugs in.

    [cancel] is an {e external} cooperative-cancellation hook, OR-ed
    into every racer's own hook — the serving layer uses it for
    per-request deadlines and drain. When it fires before any engine
    concluded, the race returns the priority-first inconclusive
    verdict (a BMC partial bound is demoted to [Unknown], exactly as
    for an internal cancellation), and nothing is cached. With a
    single engine the race degenerates to one cancellable run on the
    calling domain — the serving layer's single-engine path.
    @raise Invalid_argument on an empty engine list. *)

(** {1 Matrix fan-out} *)

type job = {
  label : string;
  cfg : Tta_model.Configs.t;
  engine : engine option;  (** [Some e]: run exactly [e] (the sequential
      baseline's engine, so verdicts are comparable); [None]: race *)
  max_depth : int;
}

val job :
  ?label:string -> ?engine:engine -> ?max_depth:int ->
  Tta_model.Configs.t -> job
(** [label] defaults to {!Tta_model.Configs.name}; [max_depth] to 100. *)

val run_matrix :
  ?domains:int ->
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?obs:Obs.Collector.t ->
  ?faults:Resilience.Faults.t ->
  job list ->
  (job * result) list
(** Drain the jobs across a work-stealing pool of [domains] workers
    (default [Domain.recommended_domain_count ()]); results in job
    order. Racing jobs spawn their engine domains {e in addition} to
    the pool workers — use single-engine jobs when the matrix is wide
    and racing when it is deep. [faults] applies to every job as in
    {!race}, under {!Resilience.Supervisor.default}; a job whose task
    raised outside the supervised engine (infrastructure, not
    verification) still yields a result — an [Unknown] with the
    exception recorded in [failures]. *)

val section5_jobs :
  ?nodes:int -> ?safe_depth:int -> ?unsafe_depth:int -> ?bmc_depth:int ->
  unit -> job list
(** The paper's Section 5 verification matrix as run by the experiment
    registry and benchmark harness: E1-E3 (safe feature sets, BDD
    proofs), E4/E5 (the two full-shifting counterexamples), E9 (the E4
    instance again through SAT BMC). E5 needs at least three nodes and
    clamps accordingly. *)
