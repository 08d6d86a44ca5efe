(** Symbolic invariant checking by forward reachability.

    Computes the reachable states as a BDD fixpoint and checks a safety
    property of the form "no reachable state satisfies [bad]". On
    failure, a shortest counterexample trace is extracted by walking
    the onion rings of the fixpoint backwards, exactly as SMV does. *)

type stats = {
  iterations : int;  (** image steps performed *)
  peak_nodes : int;  (** largest reachable-set BDD seen *)
  reachable_states : float;  (** |reachable| when the run completed *)
}

type result =
  | Safe of stats
  | Unsafe of Model.state array * stats
      (** shortest trace from an initial state to a bad state *)
  | Depth_exhausted of stats
      (** gave up at [max_iterations] without proving or refuting *)

(** {1 Image-computation tuning}

    The three optimizations of the symbolic hot path, individually
    switchable so their effect can be measured (and so a disagreement
    can be bisected): they never change verdicts or counterexample
    lengths, only time and memory. *)

type tuning = {
  partitioned : bool;
      (** fold the image over {!Enc.schedule}'s conjunctive clusters
          with early quantification instead of one monolithic relprod *)
  use_restrict : bool;
      (** minimize the frontier against the reached set with
          {!Bdd.restrict} before each image step *)
  gc_watermark : int;
      (** sweep dead BDD nodes out of the unique and computed tables
          at iteration boundaries once this many nodes were allocated
          since the last sweep; [0] disables *)
  cluster_limit : int;
      (** node cap per conjunctive cluster (see {!Enc.schedule}) *)
}

val default_tuning : tuning
(** Partitioned, restrict on, GC at a 250k-allocation watermark. *)

val monolithic_tuning : tuning
(** The pre-optimization behavior: one relprod against
    {!Enc.trans_bdd}, no frontier minimization, no GC. Kept as the
    cross-check and benchmark baseline. *)

val image : ?tuning:tuning -> Enc.t -> Bdd.t -> Bdd.t
(** One-step successors of a set of states (both over current bits). *)

val preimage : ?tuning:tuning -> Enc.t -> Bdd.t -> Bdd.t
(** One-step predecessors. *)

val reachable_set :
  ?max_iterations:int -> ?cancel:(unit -> bool) -> ?obs:Obs.t ->
  ?tuning:tuning -> Enc.t -> Bdd.t
(** The full reachable-state fixpoint (no property). [cancel] is
    polled once per image step; on cancellation the set computed so
    far (a lower bound of the fixpoint) is returned. [obs] receives
    the [reach.iterations] counter. The returned diagram is not left
    registered as a GC root. *)

val deadlocked : Enc.t -> Bdd.t -> Bdd.t
(** [deadlocked enc reach] is the subset of [reach] with no successor;
    a well-formed relational model makes it empty. *)

val check :
  ?max_iterations:int -> ?cancel:(unit -> bool) -> ?obs:Obs.t ->
  ?tuning:tuning -> Enc.t -> bad:Expr.t -> result
(** [cancel] is polled once per image step (cooperative cancellation,
    used by the portfolio's engine racing); when it returns [true] the
    run stops with {!Depth_exhausted} at the current iteration count.
    [obs] (default {!Obs.disabled}) receives a [reach.image] span per
    fixpoint iteration, the [reach.iterations] counter and the
    [reach.peak_nodes]/[reach.frontier_nodes]/[reach.partitions]/
    [bdd.live_nodes] gauges. [tuning] (default {!default_tuning})
    only trades time for memory; every setting produces identical
    verdicts, iteration counts and counterexample lengths. *)
