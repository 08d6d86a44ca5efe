(** The model-checking stage: lower each surviving candidate to a
    Section 5 configuration and verify the safety property, either on
    the in-process portfolio pool or as wire traffic against a running
    verification daemon.

    Candidates of the same authority level lower to the same
    {!Tta_model.Configs.t} — the buffer/window/shift budgets are
    physical-layer provisioning that the analytic pre-filter already
    judged, while the protocol-logic consequences of the authority
    level are what the model checker decides. Configurations that
    build one transition system share a {!Symkit.Model.fingerprint}
    (passive, time windows and small shifting do). The direct path
    therefore deduplicates by fingerprint and runs each system once on
    the pool; the service path sends one request per candidate on
    purpose — a sweep is near-miss traffic by construction (few model
    families, many bounds), which is exactly what the daemon's warm
    session pool (doc/sessions.md) is built for, and each answer's
    [reused_session]/[warm_depth] attribution is recorded per
    candidate. *)

type verdict =
  | Upheld  (** the safety property holds *)
  | Breached of int  (** violated, with the counterexample length *)
  | Undetermined of string  (** no conclusive verdict; the detail *)

val verdict_label : verdict -> string
(** ["upheld"] / ["breached"] / ["undetermined"]. *)

type outcome = {
  candidate : Space.candidate;
  config : Tta_model.Configs.t;  (** what the candidate lowered to *)
  verdict : verdict;
  reused_session : bool;
      (** service path only: the answer ran on a warm pooled session *)
  warm_depth : int;
      (** service path only: the session's unrolling depth at checkout *)
}

val lower : nodes:int -> Space.candidate -> Tta_model.Configs.t
(** The candidate's authority level as the paper's named Section 5
    configuration (full shifting with the paper's one-replay budget). *)

val direct :
  ?domains:int ->
  ?obs:Obs.Collector.t ->
  ?faults:Resilience.Faults.t ->
  ?depth:int ->
  nodes:int ->
  Space.candidate list ->
  outcome list
(** Check candidates on the in-process {!Portfolio} pool: one BDD
    reachability job per {e distinct} model fingerprint of the lowered
    configurations ([depth] defaults to 100, conclusive at these
    cluster sizes), then the shared verdict mapped back onto every
    candidate, each with its own lowered configuration. Outcomes in
    input order; [reused_session] is always [false] here. [obs]
    receives the pool's counters, as in {!Portfolio.run_matrix}. *)

val via_service :
  ?depth:int ->
  ?depth_spread:int ->
  nodes:int ->
  Service.Net.addr ->
  Space.candidate list ->
  outcome list
(** Check candidates against a running daemon over one connection:
    sequential JSON-lines requests, engine [bmc] (the session-backed
    path), one request per candidate. Request [i] asks depth
    [depth + 2·(i mod depth_spread)] (defaults 20 and 3) — a bound
    ratchet, so consecutive same-family requests are near misses that
    extend a warm session instead of coalescing into one computation.
    Non-answer responses (overloaded, cancelled, error) and garbled
    lines degrade to [Undetermined]; connection failures raise
    [Unix.Unix_error]. *)
