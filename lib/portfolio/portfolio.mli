(** Portfolio verification over the paper's configuration matrix.

    - {b the engine chain} ({!race}): for a single configuration, the
      requested engines run one at a time on the calling domain, in
      the order given, until one reaches a conclusive verdict. The
      default chain is BDD fixpoint reachability, which proves and
      refutes with shortest traces, then SAT BMC, which answers the
      rows whose fixpoint lies beyond the bound. Explicit BFS and
      k-induction answered no committed row first, so they run only
      when asked for by name.
    - {b matrix fan-out} ({!run_matrix}): a batch of configurations is
      drained by a work-stealing {!Pool} across
      [Domain.recommended_domain_count ()] workers.

    Both levels consult a persistent {!Cache} keyed on the compiled
    model's content hash and record per-task {!Telemetry}. Passing an
    [?obs] {!Obs.Collector} additionally streams every engine run's
    spans and counters onto its own collector track (named
    ["<label>/<engine>"]) plus a ["pool"] track for the scheduler —
    export it as a Chrome trace to see a chain or a whole matrix as
    timelines (see doc/observability.md).

    {b Determinism.} The chain's order is the list's, so the engine
    that answers, its proof detail and its counterexample are the same
    run to run. *)

(** The sibling modules, re-exported (this module shadows the library
    wrapper): *)

module Json = Json
module Pool = Pool
module Cache = Cache
module Telemetry = Telemetry

type engine = Tta_model.Engine.id
type verdict = Tta_model.Engine.verdict

val default_engines : engine list
(** The default chain, [[Bdd_reach; Sat_bmc]]: what {!race} runs without
    [?engines], what a wire request without an [engine] (or with
    ["race"]) asks for, and what a {!job} without an engine runs. *)

val conclusive : verdict -> bool
(** [Holds]/[Violated] are conclusive; [Unknown] is not. *)

val cache_probe :
  Cache.t option ->
  model:Symkit.Model.t ->
  engines:engine list ->
  max_depth:int ->
  (engine * verdict) option
(** The first of [engines], in order, with a conclusive cached verdict
    for [model] at [max_depth]; [None] without a cache. *)

val cache_store :
  Cache.t option ->
  model:Symkit.Model.t ->
  engine:engine ->
  max_depth:int ->
  verdict ->
  unit
(** Store a conclusive verdict; an [Unknown], or no cache, stores
    nothing. *)

type result = {
  config : Tta_model.Configs.t;
  engine : engine;  (** the engine whose verdict was selected *)
  verdict : verdict;
  wall_s : float;  (** the chain's wall clock (~0 on a cache hit) *)
  cache_hit : bool;
  runs : (engine * verdict * float) list;
      (** every {e completed} engine run, in the order tried, with its
          wall clock (empty on a cache hit; failed engines appear in
          [failures] instead) *)
  failures : (engine * string) list;
      (** engines whose supervised run crashed, in the order tried,
          with the supervisor's failure description. When {e every}
          engine failed, [verdict] is an [Unknown] whose detail carries
          this breakdown. *)
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
(** Run the chain [engines] (default {!default_engines}) on one
    configuration, one engine at a time on the calling domain. A
    conclusive cached verdict for any of them answers without a run
    (recorded as a [cache.hit] instant on [obs]). Otherwise each engine
    runs in turn, on its own [obs] track, and the chain stops at the
    first conclusive verdict, which is cached. When none concludes, the
    first completed run's inconclusive verdict is reported.

    Every engine runs under a {!Resilience.Supervisor} with [supervisor]
    (default {!Resilience.Supervisor.default}): an engine that crashes
    is retried per the policy and, if it keeps failing, becomes an
    entry in [result.failures] while the chain moves on to the next
    engine. Only when {e all} engines fail is the verdict an [Unknown]
    carrying the per-engine failure breakdown, attributed to the first
    engine. [faults] (default {!Resilience.Faults.disabled}) threads
    fault injection into every run and is what the [--chaos] CLI flag
    plugs in.

    [cancel] is a cooperative-cancellation hook polled by the running
    engine — the serving layer uses it for per-request deadlines and
    drain. Once it fires the chain ends after the current engine; a
    BMC bound cut short by it is demoted to [Unknown], and nothing
    inconclusive is cached. The name is kept from the earlier engine
    race, as are the wire's ["race"] and [tta_portfolio --race].
    @raise Invalid_argument on an empty engine list. *)

(** {1 Matrix fan-out} *)

type job = {
  label : string;
  cfg : Tta_model.Configs.t;
  engine : engine option;  (** [Some e]: run exactly [e] (the sequential
      baseline's engine, so verdicts are comparable); [None]: the
      {!default_engines} chain *)
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
    order; each job runs its chain on its pool worker. [faults]
    applies to every job as in {!race}, under
    {!Resilience.Supervisor.default}; a job whose task
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
