(** SAT check that a supplied invariant is inductive and safe.

    A predicate [I] over current-state bits (typically the BDD
    reachability fixpoint of {!Reach.reachable_set}) certifies a safety
    property when three obligations hold over the model's valid states:
    initiation (Init ⇒ I), safety (I ∧ Bad = ⊥) and consecution
    (I ∧ T ⇒ I′). Each is discharged by the CDCL solver on a {!Bmc}
    session, so a "holds" verdict of the BDD engine gets a second,
    independent kernel. Taking [I = ¬Bad] asks whether the property is
    inductive on its own (1-induction without strengthening). *)

type obligation = Initiation | Safety | Consecution

type result =
  | Inductive  (** all three obligations hold *)
  | Fails of obligation
      (** the first obligation, in the order initiation, safety,
          consecution, that has a counterexample state (pair) *)

val check : ?obs:Obs.t -> Enc.t -> inv:Bdd.t -> bad:Expr.t -> result
(** Check the obligations in that order, stopping at the first that
    fails. [inv] must be a diagram of the encoder's manager over
    current bits; it is not rooted, so no BDD garbage collection may
    run while the check does (none does: only {!Reach} collects).
    [obs] (default {!Obs.disabled}) receives one span per obligation
    discharged, [induction.initiation], [induction.safety] and
    [induction.consecution], each covering the session set-up, CNF
    translation and solve that obligation costs. *)

val result_to_string : result -> string
(** ["inductive"], or ["fails initiation"]/["fails safety"]/
    ["fails consecution"]. *)
