(** Expressions over finite-domain state variables.

    This is the modeling language of the kernel — an OCaml-embedded
    analogue of the SMV constraint style used in the paper: expressions
    mention current-state variables ([cur]) and next-state variables
    ([nxt]); a model is a list of boolean constraint expressions for the
    initial states and for the transition relation. *)

type value =
  | Int of int
  | Sym of string
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

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let value_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Sym x, Sym y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Sym _ | Bool _), _ -> false

let value_to_string = function
  | Int i -> string_of_int i
  | Sym s -> s
  | Bool b -> string_of_bool b

let pp_value ppf v = Format.pp_print_string ppf (value_to_string v)

(* Convenience constructors, so models read close to the paper's
   notation. The infix operators live in {!Syntax} to avoid shadowing
   the standard ones; open it locally when writing a model. *)

let tt = Const (Bool true)
let ff = Const (Bool false)
let int n = Const (Int n)
let sym s = Const (Sym s)
let cur v = Cur v
let nxt v = Nxt v
let not_ a = Not a
let ite c t e = Ite (c, t, e)
let member e vs = Member (e, vs)

let conj = function
  | [] -> tt
  | e :: es -> List.fold_left (fun a b -> And (a, b)) e es

let disj = function
  | [] -> ff
  | e :: es -> List.fold_left (fun a b -> Or (a, b)) e es

(* Multi-way case expression: [cases [c1, e1; c2, e2] default] evaluates
   to the first [ei] whose [ci] holds, or [default]. *)
let cases branches default =
  List.fold_right (fun (c, e) acc -> Ite (c, e, acc)) branches default

(* Precedence warning: OCaml derives an operator's precedence from its
   first character, so [==>] and [<=>] bind *tighter* than [&&] and
   [||]. Writing [a && b ==> c] therefore means [a && (b ==> c)].
   Always parenthesize the antecedent of an implication. When in doubt,
   prefer the prefix constructors ([conj], [disj], [cases], [Imp]). *)
module Syntax = struct
  let ( == ) a b = Eq (a, b)
  let ( != ) a b = Not (Eq (a, b))
  let ( < ) a b = Lt (a, b)
  let ( <= ) a b = Or (Lt (a, b), Eq (a, b))
  let ( > ) a b = Lt (b, a)
  let ( >= ) a b = Or (Lt (b, a), Eq (a, b))
  let ( + ) a b = Add (a, b)
  let ( - ) a b = Sub (a, b)
  let ( && ) a b = And (a, b)
  let ( || ) a b = Or (a, b)
  let ( ==> ) a b = Imp (a, b)
  let ( <=> ) a b = Iff (a, b)
end

(* The one printer: a direct [Buffer] walk, with no [Format] in the
   loop. Its output is flat (no break hints), fully parenthesized and
   canonical, so [Model.fingerprint] digests it: the bytes it emits are
   part of every cache and routing key. *)
let rec to_buffer buf e =
  let str = Buffer.add_string buf in
  let bin a op b =
    Buffer.add_char buf '(';
    to_buffer buf a;
    str op;
    to_buffer buf b;
    Buffer.add_char buf ')'
  in
  match e with
  | Const v -> str (value_to_string v)
  | Cur v -> str v
  | Nxt v ->
      str v;
      Buffer.add_char buf '\''
  | Not a ->
      str "!(";
      to_buffer buf a;
      Buffer.add_char buf ')'
  | And (a, b) -> bin a " & " b
  | Or (a, b) -> bin a " | " b
  | Imp (a, b) -> bin a " -> " b
  | Iff (a, b) -> bin a " <-> " b
  | Eq (a, b) -> bin a " = " b
  | Lt (a, b) -> bin a " < " b
  | Add (a, b) -> bin a " + " b
  | Sub (a, b) -> bin a " - " b
  | Ite (c, t, e) ->
      Buffer.add_char buf '(';
      to_buffer buf c;
      str " ? ";
      to_buffer buf t;
      str " : ";
      to_buffer buf e;
      Buffer.add_char buf ')'
  | Member (a, vs) ->
      Buffer.add_char buf '(';
      to_buffer buf a;
      str " in {";
      List.iteri
        (fun i v ->
          if i > 0 then str ", ";
          str (value_to_string v))
        vs;
      str "})"

let to_string e =
  let buf = Buffer.create 64 in
  to_buffer buf e;
  Buffer.contents buf

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* Concrete evaluation, used by the explicit-state engine and by trace
   validation in the tests. [lookup_cur]/[lookup_nxt] map variable names
   to values; [lookup_nxt] may raise if the expression should not mention
   primed variables (e.g. when evaluating an initial-state predicate). *)
let rec eval ~lookup_cur ~lookup_nxt e =
  let as_bool e =
    match eval ~lookup_cur ~lookup_nxt e with
    | Bool b -> b
    | v -> type_error "expected boolean, got %a in %a" pp_value v pp e
  in
  let as_int e =
    match eval ~lookup_cur ~lookup_nxt e with
    | Int i -> i
    | v -> type_error "expected integer, got %a in %a" pp_value v pp e
  in
  match e with
  | Const v -> v
  | Cur v -> lookup_cur v
  | Nxt v -> lookup_nxt v
  | Not a -> Bool (not (as_bool a))
  | And (a, b) -> Bool (as_bool a && as_bool b)
  | Or (a, b) -> Bool (as_bool a || as_bool b)
  | Imp (a, b) -> Bool ((not (as_bool a)) || as_bool b)
  | Iff (a, b) -> Bool (Bool.equal (as_bool a) (as_bool b))
  | Eq (a, b) ->
      Bool
        (value_equal
           (eval ~lookup_cur ~lookup_nxt a)
           (eval ~lookup_cur ~lookup_nxt b))
  | Lt (a, b) -> Bool (Stdlib.( < ) (as_int a) (as_int b))
  | Add (a, b) -> Int (Stdlib.( + ) (as_int a) (as_int b))
  | Sub (a, b) -> Int (Stdlib.( - ) (as_int a) (as_int b))
  | Ite (c, t, e) ->
      if as_bool c then eval ~lookup_cur ~lookup_nxt t
      else eval ~lookup_cur ~lookup_nxt e
  | Member (a, vs) ->
      let v = eval ~lookup_cur ~lookup_nxt a in
      Bool (List.exists (value_equal v) vs)

(* Replace every current-state variable by its primed version. Used to
   assert a state invariant at both ends of the transition relation.
   Fails on expressions that already mention primed variables. *)
let rec prime = function
  | Const v -> Const v
  | Cur v -> Nxt v
  | Nxt v -> invalid_arg (Printf.sprintf "Expr.prime: already primed: %s" v)
  | Not a -> Not (prime a)
  | And (a, b) -> And (prime a, prime b)
  | Or (a, b) -> Or (prime a, prime b)
  | Imp (a, b) -> Imp (prime a, prime b)
  | Iff (a, b) -> Iff (prime a, prime b)
  | Eq (a, b) -> Eq (prime a, prime b)
  | Lt (a, b) -> Lt (prime a, prime b)
  | Add (a, b) -> Add (prime a, prime b)
  | Sub (a, b) -> Sub (prime a, prime b)
  | Ite (a, b, c) -> Ite (prime a, prime b, prime c)
  | Member (a, vs) -> Member (prime a, vs)

(* Variables mentioned by an expression, split by priming. *)
let vars e =
  let cur = Hashtbl.create 16 and nxt = Hashtbl.create 16 in
  let rec go = function
    | Const _ -> ()
    | Cur v -> Hashtbl.replace cur v ()
    | Nxt v -> Hashtbl.replace nxt v ()
    | Not a -> go a
    | And (a, b) | Or (a, b) | Imp (a, b) | Iff (a, b)
    | Eq (a, b) | Lt (a, b) | Add (a, b) | Sub (a, b) ->
        go a;
        go b
    | Ite (a, b, c) ->
        go a;
        go b;
        go c
    | Member (a, _) -> go a
  in
  go e;
  let keys h = Hashtbl.fold (fun k () acc -> k :: acc) h [] in
  (List.sort compare (keys cur), List.sort compare (keys nxt))
