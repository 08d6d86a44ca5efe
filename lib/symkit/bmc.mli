(** SAT-based bounded model checking.

    Transition constraints are first compiled to BDDs over the
    encoder's bit space (reusing the verified symbolic compiler), then
    each BDD is translated to CNF with one Tseitin variable per BDD
    node, instantiated per unrolling step. The bad-state predicate at
    depth [k] is asserted as an assumption, so one incremental solver
    instance serves every depth — and, via {!check_session}, every
    {e query}: a session keeps its unrolling, its learned clauses and a
    per-property memo across requests, which is what the service tier's
    warm session pool ([lib/sessions]) builds on. *)

type result =
  | Counterexample of Model.state array
  | No_counterexample of int option
      (** no violation up to (and including) this depth; [None] when
          cancelled before depth 0 completed — an explicitly vacuous
          claim, replacing the old magic [-1] sentinel *)

type t
(** An incremental unrolling session. *)

val create : ?with_init:bool -> Enc.t -> t
(** Assert step 0: domain validity and (unless [with_init:false], which
    {!Induction.check}'s safety and consecution queries use: a run
    starting in any valid state) the initial-state constraints. *)

val extend : t -> unit
(** Unroll one more step: fresh bit variables, the transition
    constraints from the previous step, and the new step's validity. *)

val check_session :
  ?max_depth:int -> ?cancel:(unit -> bool) -> ?obs:Obs.t -> t ->
  bad:Expr.t -> result
(** Query a (possibly warm) session: scan depths upward until a
    counterexample is found or [max_depth] is clean. Depths verified
    clean by {e earlier} queries on this session are answered from the
    per-property memo without touching the solver; the frontier past
    them is solved with every previously learned clause retained, so a
    depth-[k+1] query after a depth-[k] query only pays for the new
    depth. Counterexamples are memoized at their (minimal) depth, so
    verdicts equal what a cold session would answer for the same
    bound. [cancel] is polled once per depth; when it fires, the result
    is {!No_counterexample} of the last completed depth ([None] when
    depth 0 never finished). *)

val check :
  ?max_depth:int -> ?cancel:(unit -> bool) -> ?obs:Obs.t -> Enc.t ->
  bad:Expr.t -> result
(** Cold-start convenience: {!create} a fresh session and run
    {!check_session} once. [obs] (default {!Obs.disabled}) receives a
    [bmc.solve_depth]/[bmc.unroll] span pair per depth, the [bmc.depth]
    gauge and the solver's [sat.*] counters. *)

val enumerate :
  ?max_depth:int -> ?limit:int -> Enc.t -> bad:Expr.t ->
  Model.state array list
(** Distinct counterexamples at the shortest violating depth, found by
    blocking each trace and re-solving; at most [limit] traces, empty
    when the property holds to the bound. *)

val counters : t -> (string * int) list
(** The session solver's [sat.*] counters (cumulative over the
    session's whole life, not per query — diff two snapshots for
    per-query effort). *)

val conflicts : t -> int
(** Cumulative conflict count — the standard search-effort proxy, used
    by the warm-vs-cold clause-retention tests. *)

val clean_depth : t -> bad:Expr.t -> int
(** The largest depth this session has certified counterexample-free
    for [bad] so far ([-1] when the property was never queried or depth
    0 never finished). A pure memo read — never touches the solver —
    so an interrupted or abandoned run can still report how far it
    got (the service's degraded verdicts). *)

(** {1 Lower-level access (used by {!Induction})}

    Predicates, assumption literals and assumption solving in the
    session's solver, but never the solver itself. *)

val depth : t -> int
(** Current unrolling depth (number of {!extend}s performed). *)

val assert_pred : t -> step:int -> Bdd.t -> unit
(** Permanently assert a predicate (a BDD over current/primed encoder
    bits, anchored at the step) in the session. *)

val pred_lit : t -> step:int -> Bdd.t -> Sat.lit
(** A literal equivalent to the predicate at the step, for use as an
    assumption. *)

val solve_assuming : t -> Sat.lit list -> Sat.result
(** Solve the session's clause set under assumptions (learned clauses
    are retained, as with {!Sat.solve}). *)
