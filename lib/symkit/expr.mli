(** Expressions over finite-domain state variables.

    The modeling language of the kernel — an OCaml-embedded analogue of
    the SMV constraint style used in the paper: expressions mention
    current-state variables ({!cur}) and next-state (primed) variables
    ({!nxt}); a model is a list of boolean constraint expressions over
    them (see {!Model}). *)

type value =
  | Int of int
  | Sym of string  (** a symbolic enumeration constant *)
  | Bool of bool

type t =
  | Const of value
  | Cur of string  (** current-state variable *)
  | Nxt of string  (** next-state (primed) variable *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t
  | Eq of t * t
  | Lt of t * t
  | Add of t * t
  | Sub of t * t
  | Ite of t * t * t
  | Member of t * value list  (** set membership *)

exception Type_error of string
(** Raised by evaluation when an operator meets a value of the wrong
    sort (e.g. [<] on symbols). *)

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Type_error} with a formatted message. *)

val value_equal : value -> value -> bool
val pp_value : Format.formatter -> value -> unit
val value_to_string : value -> string

(** {1 Constructors} *)

val tt : t
val ff : t
val int : int -> t
val sym : string -> t
val cur : string -> t
val nxt : string -> t
val not_ : t -> t
val ite : t -> t -> t -> t
val member : t -> value list -> t

val conj : t list -> t
(** Conjunction of a list ({!tt} for the empty list). *)

val disj : t list -> t
(** Disjunction of a list ({!ff} for the empty list). *)

val cases : (t * t) list -> t -> t
(** [cases [c1, e1; c2, e2] default] evaluates to the first [ei] whose
    [ci] holds, or [default] — SMV's [case] construct. *)

(** Infix operators for readable models. Precedence warning: OCaml
    derives an operator's precedence from its first character, so
    [==>] and [<=>] bind {e tighter} than [&&] and [||]; always
    parenthesize the antecedent of an implication. *)
module Syntax : sig
  val ( == ) : t -> t -> t
  val ( != ) : t -> t -> t
  val ( < ) : t -> t -> t
  val ( <= ) : t -> t -> t
  val ( > ) : t -> t -> t
  val ( >= ) : t -> t -> t
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( && ) : t -> t -> t
  val ( || ) : t -> t -> t
  val ( ==> ) : t -> t -> t
  val ( <=> ) : t -> t -> t
end

(** {1 Inspection and evaluation} *)

val to_buffer : Buffer.t -> t -> unit
(** Append the canonical rendering: flat, fully parenthesized,
    [x'] for primed variables. {!to_string} and {!pp} print exactly
    these bytes, and {!Model.fingerprint} digests them, so changing
    them re-keys every verdict cache and routing ring. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val prime : t -> t
(** Replace every current-state variable by its primed version; used to
    re-assert a state invariant on the post-state of every transition.
    @raise Invalid_argument on expressions already mentioning primed
    variables. *)

val eval :
  lookup_cur:(string -> value) -> lookup_nxt:(string -> value) -> t -> value
(** Concrete evaluation; the explicit-state engine and trace validation
    are built on this. @raise Type_error on ill-sorted expressions. *)

val vars : t -> string list * string list
(** Variables mentioned, as (current, primed), each sorted. *)
