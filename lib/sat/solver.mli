(** A CDCL (conflict-driven clause learning) SAT solver.

    Implements the standard modern architecture: two-watched-literal unit
    propagation, first-UIP conflict analysis with backjumping, VSIDS-style
    variable activities with phase saving, and Luby restarts. Supports
    solving under assumptions, which the bounded model checker uses to
    query successive unrolling depths incrementally.

    Variables are integers allocated by {!new_var}; literals are built
    with {!pos} and {!neg}. A conflict allocates its learned clause and
    nothing that grows with the number of variables. *)

type t
(** A solver instance: variable pool, clause database, search state. *)

type lit = private int
(** A literal: a variable with a sign. *)

val pos : int -> lit
(** Positive literal of a variable. *)

val neg : int -> lit
(** Negative literal of a variable. *)

val negate : lit -> lit
val lit_var : lit -> int
val lit_sign : lit -> bool
(** [lit_sign l] is [true] for a positive literal. *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable, returned as its integer index. *)

val nvars : t -> int

val add_clause : t -> lit list -> unit
(** Add a clause. Adding the empty clause (or a clause that simplifies to
    it) makes the instance permanently unsatisfiable. Duplicate literals
    are removed; tautologies are ignored. Inside an open {!push} scope
    the clause is attached to that scope and disappears at the matching
    {!pop}. *)

type result = Sat | Unsat

val solve : ?assumptions:lit list -> t -> result
(** Solve the current clause set under the given assumptions. The solver
    may be queried again afterwards with different assumptions; learned
    clauses are kept across queries (the session surface the bounded
    model checker builds on). Selector literals of live activation
    groups are assumed automatically. *)

(** {2 Session surface: activation groups and scopes}

    A {!group} is a MiniSat-style retractable clause set: each clause
    added to the group carries the negation of a hidden selector
    variable, and {!solve} assumes the selector true while the group is
    active. {!retract} asserts the selector false at the root, which
    permanently satisfies — i.e. erases — the group's clauses {e and}
    every learned clause derived from them, while all other learned
    clauses survive for the next query. *)

type group
(** A named retractable clause group. *)

val new_group : t -> group
(** Allocate a fresh activation group (costs one selector variable). *)

val add_clause_in : t -> group -> lit list -> unit
(** Add a clause to a group. Raises [Invalid_argument] if the group has
    been retracted. *)

val retract : t -> group -> unit
(** Permanently retire a group and its clauses. Idempotent. *)

val group_active : group -> bool

val push : t -> unit
(** Open a scope: clauses added with {!add_clause} until the matching
    {!pop} belong to the scope and are retracted by it. Scopes nest. *)

val pop : t -> unit
(** Close the innermost scope, retracting its clauses. Raises
    [Invalid_argument] if no scope is open. *)

(** {2 Model access} *)

val model : t -> bool array
(** The satisfying assignment of the most recent {!solve} that answered
    [Sat], indexed by variable. Raises [Invalid_argument] if the last
    answer was not [Sat] or clauses were added since — there is no
    silent default. *)

val value_opt : t -> int -> bool option
(** Three-valued model read: [Some b] if the variable was fixed by the
    last model, [None] if there is no current model or the variable was
    allocated after it was captured. *)

val stats : t -> string
(** Human-readable search statistics (conflicts, propagations, ...). *)

val conflicts : t -> int
(** Total conflicts analyzed so far — the standard single-number proxy
    for SAT search effort, reported by the portfolio's run telemetry. *)

val counters : t -> (string * int) list
(** The search-effort counters ([sat.conflicts], [sat.decisions],
    [sat.propagations], [sat.restarts], clause-database sizes) as an
    open counter set, sorted by name — the machine-readable form of
    {!stats}, consumed by the {!Obs}-based engine instrumentation. *)
