(** Finite-domain symbolic models.

    A model declares its state variables with finite domains and gives
    two lists of boolean constraints: [init] (over current variables
    only) restricting the initial states, and [trans] (over current and
    primed variables) defining the transition relation as a conjunction —
    exactly the shape of the SMV model in Section 4.2 of the paper. *)

type domain =
  | Bool
  | Range of int * int  (** inclusive bounds *)
  | Enum of string list

let domain_values = function
  | Bool -> [ Expr.Bool false; Expr.Bool true ]
  | Range (lo, hi) ->
      if lo > hi then invalid_arg "Model.domain_values: empty range";
      List.init (hi - lo + 1) (fun i -> Expr.Int (lo + i))
  | Enum syms ->
      if syms = [] then invalid_arg "Model.domain_values: empty enum";
      List.map (fun s -> Expr.Sym s) syms

let domain_size d = List.length (domain_values d)

let domain_to_buffer buf = function
  | Bool -> Buffer.add_string buf "boolean"
  | Range (lo, hi) ->
      Buffer.add_string buf (string_of_int lo);
      Buffer.add_string buf "..";
      Buffer.add_string buf (string_of_int hi)
  | Enum syms ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf s)
        syms;
      Buffer.add_char buf '}'

let pp_domain ppf d =
  let buf = Buffer.create 32 in
  domain_to_buffer buf d;
  Format.pp_print_string ppf (Buffer.contents buf)

type t = {
  name : string;
  vars : (string * domain) list;  (** declaration order fixes bit order *)
  init : Expr.t list;
  trans : Expr.t list;
  mutable fp : string option;
}

let validate m =
  (* Duplicate declarations are almost certainly a bug in the model. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (v, _) ->
      if Hashtbl.mem seen v then
        invalid_arg (Printf.sprintf "Model %s: duplicate variable %s" m.name v);
      Hashtbl.add seen v ())
    m.vars;
  let check_known e =
    let cur, nxt = Expr.vars e in
    List.iter
      (fun v ->
        if not (Hashtbl.mem seen v) then
          invalid_arg
            (Printf.sprintf "Model %s: undeclared variable %s in %s" m.name v
               (Expr.to_string e)))
      (cur @ nxt)
  in
  List.iter
    (fun e ->
      check_known e;
      let _, nxt = Expr.vars e in
      if nxt <> [] then
        invalid_arg
          (Printf.sprintf "Model %s: primed variable in init constraint %s"
             m.name (Expr.to_string e)))
    m.init;
  List.iter check_known m.trans;
  m

let make ~name ~vars ~init ~trans =
  validate { name; vars; init; trans; fp = None }

(* A concrete state: one value per declared variable, in declaration
   order. *)
type state = Expr.value array

let var_index m v =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Model: unknown variable %s" v)
    | (u, _) :: rest -> if String.equal u v then i else go (i + 1) rest
  in
  go 0 m.vars

let state_get m (s : state) v = s.(var_index m v)

let lookup_of m (s : state) v = state_get m s v

let pp_state m ppf (s : state) =
  Format.fprintf ppf "@[<hv 2>{";
  List.iteri
    (fun i (v, _) ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%s = %a" v Expr.pp_value s.(i))
    m.vars;
  Format.fprintf ppf "}@]"

(* Check a concrete state against the declared domains. *)
let state_in_domains m (s : state) =
  List.for_all2
    (fun (_, d) v -> List.exists (Expr.value_equal v) (domain_values d))
    m.vars (Array.to_list s)

(* Evaluate a current-state-only predicate on a concrete state. *)
let eval_pred m e (s : state) =
  match
    Expr.eval ~lookup_cur:(lookup_of m s)
      ~lookup_nxt:(fun v ->
        Expr.type_error "primed variable %s in state predicate" v)
      e
  with
  | Expr.Bool b -> b
  | v ->
      Expr.type_error "state predicate evaluated to %s"
        (Expr.value_to_string v)

(* Evaluate a transition constraint on a concrete state pair. *)
let eval_trans m e (s : state) (s' : state) =
  match
    Expr.eval ~lookup_cur:(lookup_of m s) ~lookup_nxt:(lookup_of m s') e
  with
  | Expr.Bool b -> b
  | v ->
      Expr.type_error "transition constraint evaluated to %s"
        (Expr.value_to_string v)

(* Does the concrete pair (s, s') satisfy the whole transition
   relation? *)
let step_ok m s s' = List.for_all (fun e -> eval_trans m e s s') m.trans

let initial_ok m s = List.for_all (fun e -> eval_pred m e s) m.init

(* A content hash of the model: variable declarations (order matters —
   it fixes the bit encoding) and every constraint, rendered
   canonically and digested. The name is a label and is not hashed:
   two configurations that build the same transition system (the
   passive, time-windows and small-shifting couplers do) share one
   fingerprint, and so one verdict-cache entry, coalescing key, session
   family and routing key.

   A model is immutable, so its hash is computed once and kept in [fp].
   Two domains racing on a fresh model may both compute it; they write
   the same string, so the race is benign. ([Lazy] would not do: in
   OCaml 5 forcing one lazy value from two domains at once raises.) *)
let compute_fingerprint m =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (v, d) ->
      Buffer.add_string buf v;
      Buffer.add_char buf ':';
      domain_to_buffer buf d;
      Buffer.add_char buf '\n')
    m.vars;
  let constraints header es =
    Buffer.add_string buf header;
    List.iter
      (fun e ->
        Expr.to_buffer buf e;
        Buffer.add_char buf '\n')
      es
  in
  constraints "init\n" m.init;
  constraints "trans\n" m.trans;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint m =
  match m.fp with
  | Some fp -> fp
  | None ->
      let fp = compute_fingerprint m in
      m.fp <- Some fp;
      fp

(* Total number of states in the declared state space (not necessarily
   reachable). *)
let space_size m =
  List.fold_left (fun acc (_, d) -> acc *. float_of_int (domain_size d)) 1.0
    m.vars

(* Brute-force enumeration of the full state space. Only sensible for
   tiny models; the test suite uses it as ground truth against the
   symbolic engines. *)
let enumerate_states m =
  let doms =
    List.map (fun (_, d) -> Array.of_list (domain_values d)) m.vars
  in
  let rec go = function
    | [] -> [ [] ]
    | dom :: rest ->
        let tails = go rest in
        List.concat_map
          (fun v -> List.map (fun tl -> v :: tl) tails)
          (Array.to_list dom)
  in
  List.map Array.of_list (go doms)

let initial_states_brute m =
  List.filter (initial_ok m) (enumerate_states m)

let successors_brute m all s =
  List.filter (step_ok m s) all
