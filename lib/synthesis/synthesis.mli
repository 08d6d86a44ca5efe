(** Guardian design-space synthesis: sweep the Section 6 space, reject
    analytically, model-check the survivors, report the Pareto
    frontier.

    The pipeline (see doc/synthesis.md):
    {v
    Space ──enumerate/sample──▶ Prefilter (eqs 1–10) ──▶ Check ──▶ Pareto
          + the four paper anchors    per-equation       pool or    frontier
                                      rejection counts   daemon
    v}

    The four Section 5 designs are always kept in the candidate list
    ({!Space.paper_candidates}) so every run's frontier is comparable
    against the paper: passive is the cheapest point, full shifting the
    most capable — and the one the model checker breaches. *)

module Space = Space
module Prefilter = Prefilter
module Check = Check
module Pareto = Pareto

type via =
  | Direct  (** the in-process {!Portfolio} pool *)
  | Service of Service.Net.addr
      (** a running verification daemon — the sweep becomes sustained
          near-miss wire traffic for its warm session pool *)

type report = {
  space_size : int;  (** points in the full grid *)
  candidates : int;  (** swept this run (sample + anchors, deduped) *)
  rejected : int;  (** analytic rejections, before model checking *)
  rejections : (string * int) list;  (** per-equation counts *)
  survivors : int;  (** candidates inside the envelope *)
  checked : int;
      (** model-checker runs: distinct transition systems (model
          fingerprints) on the direct path, wire requests on the
          service path *)
  upheld : int;
  breached : int;
  undetermined : int;
  envelope_agreement : bool;
      (** no model-checked candidate violates the Section 6 envelope
          (re-verified on the outcomes, not assumed from the filter) *)
  session_reuses : int;  (** service path: answers on warm sessions *)
  outcomes : Check.outcome list;
  frontier : Pareto.point list;
  wall_s : float;
  candidates_per_s : float;  (** swept candidates over the whole wall *)
}

val run :
  ?seed:int ->
  ?sample:int ->
  ?anchors:bool ->
  ?nodes:int ->
  ?depth:int ->
  ?domains:int ->
  ?faults:Resilience.Faults.t ->
  ?via:via ->
  Space.t ->
  report
(** One synthesis run. [sample] draws that many candidates with [seed]
    (default 1) instead of full enumeration; [anchors] (default [true])
    prepends {!Space.paper_candidates}. [nodes] (default 2) and [depth]
    (path-specific default: 100 for the direct BDD jobs, a 20/22/24
    BMC ratchet via the service) shape the lowered configurations.
    [domains]/[faults] apply to the direct path ([faults]
    is the [--chaos] passthrough); the service path inherits whatever
    resilience the daemon was started with. Deterministic end to end
    for fixed arguments: same seed and space give the same candidate
    order, verdicts and frontier. *)

val frontier_feature_sets : report -> Guardian.Feature_set.t list
(** Distinct authority levels on the frontier, in authority order. *)

val paper_frontier_ok : report -> bool
(** The frontier reproduces the paper's headline shape: all four
    feature sets present, the cheapest point (fewest buffer bits, then
    least authority) is passive, and the most capable point (most
    threat classes contained) is full shifting. *)

val verdict_summary : report -> (string * string) list
(** Configuration name to verdict label(s), sorted — the comparison key
    for direct-versus-service agreement (labels, not traces: engines
    may report different counterexample lengths for the same breach).
    A configuration that somehow collected several distinct labels
    shows them all, ["/"]-joined. *)

val report_to_json : report -> Json.t
val pp_report : Format.formatter -> report -> unit
