(** Finite-domain symbolic models.

    A model declares its state variables with finite domains and gives
    two lists of boolean constraints: [init] (over current variables
    only) restricting the initial states, and [trans] (over current and
    primed variables) defining the transition relation as their
    conjunction — exactly the shape of the SMV model in Section 4.2 of
    the paper. *)

type domain =
  | Bool
  | Range of int * int  (** inclusive bounds *)
  | Enum of string list

val domain_values : domain -> Expr.value list
(** The values of a domain, in encoding order.
    @raise Invalid_argument on empty domains. *)

val domain_size : domain -> int
val pp_domain : Format.formatter -> domain -> unit

type t = private {
  name : string;
  vars : (string * domain) list;  (** declaration order fixes bit order *)
  init : Expr.t list;
  trans : Expr.t list;
  mutable fp : string option;
      (** memo of {!fingerprint}, written once by its first call; read
          it through {!fingerprint}. A model is compared by
          fingerprint, never with [=], [compare] or [Hashtbl.hash]:
          this field would make those depend on whether it was
          hashed yet. *)
}

val make :
  name:string ->
  vars:(string * domain) list ->
  init:Expr.t list ->
  trans:Expr.t list ->
  t
(** Build and validate a model: variable names must be unique, every
    constraint may only mention declared variables, and init
    constraints may not mention primed variables.
    @raise Invalid_argument on violations. *)

(** {1 Concrete states} *)

type state = Expr.value array
(** One value per declared variable, in declaration order. *)

val var_index : t -> string -> int
val state_get : t -> state -> string -> Expr.value
val pp_state : t -> Format.formatter -> state -> unit

val state_in_domains : t -> state -> bool
(** Is every component inside its declared domain? *)

val eval_pred : t -> Expr.t -> state -> bool
(** Evaluate a current-state predicate.
    @raise Expr.Type_error if the expression is not boolean or mentions
    primed variables. *)

val eval_trans : t -> Expr.t -> state -> state -> bool
(** Evaluate a transition constraint on a concrete state pair. *)

val step_ok : t -> state -> state -> bool
(** Does the pair satisfy {e all} transition constraints? *)

val initial_ok : t -> state -> bool

val space_size : t -> float
(** Size of the declared (not necessarily reachable) state space. *)

val fingerprint : t -> string
(** A content hash (hex digest) of the model: variable declarations
    in order, and every init/transition constraint. The name is a label
    and is not hashed, so two names may share one fingerprint. Equal
    fingerprints mean the same transition system under the same bit
    encoding; the verdict cache, the scheduler's coalescing, the
    session pool's families and the router's shards all key on this.
    Computed on the first call and memoized in the model, so every
    later call, from any domain, is a field read. *)

(** {1 Brute-force enumeration}

    Ground truth for the test suite; only usable on tiny models. *)

val enumerate_states : t -> state list
val initial_states_brute : t -> state list
val successors_brute : t -> state list -> state -> state list
(** [successors_brute m all s] filters the precomputed full space
    [all]. *)
