(** BDD encoding of finite-domain models.

    Every model variable is binary-encoded over a block of boolean
    decision variables; current and next copies of the same bit are
    interleaved (bit [b] of the state maps to BDD variable [2b] for the
    current copy and [2b+1] for the primed copy), which keeps transition
    relations compact and makes renaming between the copies an
    order-preserving shift. *)

type var_enc = {
  name : string;
  domain : Model.domain;
  values : Expr.value array;  (** value of each encoding index *)
  nbits : int;
  first_bit : int;  (** global bit index of the least significant bit *)
}

type t = {
  mgr : Bdd.manager;
  model : Model.t;
  var_encs : var_enc array;
  decl_index : int array;
      (** var_encs position -> index in the model's declaration order
          (the order of [Model.state] arrays) *)
  by_name : (string, var_enc) Hashtbl.t;
  nbits : int;  (** total state bits (one copy) *)
  cur_set : Bdd.varset;
  nxt_set : Bdd.varset;
  mutable valid_cur : Bdd.t option;
  mutable valid_nxt : Bdd.t option;
  mutable init_cache : Bdd.t option;
  mutable trans_cache : Bdd.t option;
  mutable sched_cache : (int * schedule) option;
      (** keyed by the cluster limit it was built with *)
}

and schedule = {
  parts : Bdd.t array;  (** ordered conjunctive clusters *)
  img_sched : Bdd.varset array;
      (** current-copy variables whose last occurrence is cluster [i]:
          quantified out by the image fold right as it conjoins
          [parts.(i)] *)
  pre_sched : Bdd.varset array;  (** primed-copy dual, for preimage *)
  img_free : Bdd.varset;
      (** current-copy variables mentioned by no cluster: quantified
          straight out of the frontier before the fold *)
  pre_free : Bdd.varset;
  n_conjuncts : int;  (** raw constraint count before clustering *)
}

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  if n <= 1 then 1 else go 1

let bdd_var_cur bit = 2 * bit
let bdd_var_nxt bit = (2 * bit) + 1

(* [var_order], when given, must be a permutation of the model's
   variable names; it controls which variables get the low (near-root)
   BDD positions. Ordering strongly affects BDD sizes, so the bench
   harness compares strategies on the TTA model. *)
let create ?var_order mgr model =
  let ordered_vars =
    match var_order with
    | None -> model.Model.vars
    | Some names ->
        let declared = List.map fst model.Model.vars in
        if List.sort compare names <> List.sort compare declared then
          invalid_arg "Enc.create: var_order is not a permutation";
        List.map
          (fun name -> (name, List.assoc name model.Model.vars))
          names
  in
  let next_bit = ref 0 in
  let var_encs =
    ordered_vars
    |> List.map (fun (name, domain) ->
           let values = Array.of_list (Model.domain_values domain) in
           let nbits = bits_for (Array.length values) in
           let first_bit = !next_bit in
           next_bit := !next_bit + nbits;
           { name; domain; values; nbits; first_bit })
    |> Array.of_list
  in
  let by_name = Hashtbl.create 32 in
  Array.iter (fun ve -> Hashtbl.add by_name ve.name ve) var_encs;
  let decl_index =
    Array.map (fun ve -> Model.var_index model ve.name) var_encs
  in
  let nbits = !next_bit in
  let cur_set = Bdd.varset mgr (List.init nbits bdd_var_cur) in
  let nxt_set = Bdd.varset mgr (List.init nbits bdd_var_nxt) in
  {
    mgr;
    model;
    var_encs;
    decl_index;
    by_name;
    nbits;
    cur_set;
    nxt_set;
    valid_cur = None;
    valid_nxt = None;
    init_cache = None;
    trans_cache = None;
    sched_cache = None;
  }

let mgr t = t.mgr
let model t = t.model
let nbits t = t.nbits
let cur_set t = t.cur_set
let nxt_set t = t.nxt_set

let var_enc t name =
  match Hashtbl.find_opt t.by_name name with
  | Some ve -> ve
  | None -> invalid_arg (Printf.sprintf "Enc: unknown variable %s" name)

(* BDD recognizing "variable [ve] (in the given copy) encodes value
   index [i]". *)
let guard_of_index t (ve : var_enc) ~primed i =
  let bit b = if primed then bdd_var_nxt b else bdd_var_cur b in
  let rec go j acc =
    if j = ve.nbits then acc
    else
      let b = ve.first_bit + j in
      let lit =
        if (i lsr j) land 1 = 1 then Bdd.var t.mgr (bit b)
        else Bdd.nvar t.mgr (bit b)
      in
      go (j + 1) (Bdd.dand t.mgr acc lit)
  in
  go 0 Bdd.one

(* Symbolic value of an expression: either a boolean function directly,
   or a finite partition of the state space into cases, one per possible
   value. *)
type sval =
  | S_bool of Bdd.t
  | S_cases of (Expr.value * Bdd.t) list

let cases_of t = function
  | S_cases cs -> cs
  | S_bool b ->
      [ (Expr.Bool true, b); (Expr.Bool false, Bdd.dnot t.mgr b) ]

let bool_of t = function
  | S_bool b -> b
  | S_cases cs ->
      (* A value that happens to be boolean-typed. *)
      List.fold_left
        (fun acc (v, g) ->
          match v with
          | Expr.Bool true -> Bdd.dor t.mgr acc g
          | Expr.Bool false -> acc
          | v ->
              Expr.type_error "expected boolean value, got %s"
                (Expr.value_to_string v))
        Bdd.zero cs

(* Merge duplicate values in a case list (guards of equal values are
   OR-ed). *)
let norm_cases t cs =
  let rec insert acc (v, g) =
    match acc with
    | [] -> [ (v, g) ]
    | (v', g') :: rest ->
        if Expr.value_equal v v' then (v', Bdd.dor t.mgr g g') :: rest
        else (v', g') :: insert rest (v, g)
  in
  List.fold_left insert [] cs
  |> List.filter (fun (_, g) -> not (Bdd.is_zero g))

let var_cases t ~primed name =
  let ve = var_enc t name in
  Array.to_list
    (Array.mapi (fun i v -> (v, guard_of_index t ve ~primed i)) ve.values)

(* Model builders share sub-expressions physically: one node's
   constraint reuses the channel terms of every other node, so a
   constraint printing as tens of thousands of characters compiles to a
   few hundred BDD nodes. A memo keyed by physical identity evaluates
   each shared sub-expression once per compile call. It holds unrooted
   diagrams, so it never outlives the call; it lives on the stack, not
   on the [Model.t], because two domains may compile one model at
   once. *)
module Memo = Hashtbl.Make (struct
  type t = Expr.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let rec eval_sym t memo e =
  match Memo.find_opt memo e with
  | Some s -> s
  | None ->
      let s = eval_node t memo e in
      Memo.add memo e s;
      s

and eval_node t memo e =
  let m = t.mgr in
  let eval = eval_sym t memo in
  let combine_cases f a b =
    let ca = cases_of t (eval a) and cb = cases_of t (eval b) in
    let pairs =
      List.concat_map
        (fun (va, ga) ->
          List.filter_map
            (fun (vb, gb) ->
              let g = Bdd.dand m ga gb in
              if Bdd.is_zero g then None else Some (f va vb g))
            cb)
        ca
    in
    pairs
  in
  match e with
  | Expr.Const (Expr.Bool b) -> S_bool (if b then Bdd.one else Bdd.zero)
  | Expr.Const v -> S_cases [ (v, Bdd.one) ]
  | Expr.Cur v -> S_cases (var_cases t ~primed:false v)
  | Expr.Nxt v -> S_cases (var_cases t ~primed:true v)
  | Expr.Not a -> S_bool (Bdd.dnot m (bool_of t (eval a)))
  | Expr.And (a, b) ->
      S_bool (Bdd.dand m (bool_of t (eval a)) (bool_of t (eval b)))
  | Expr.Or (a, b) ->
      S_bool (Bdd.dor m (bool_of t (eval a)) (bool_of t (eval b)))
  | Expr.Imp (a, b) ->
      S_bool (Bdd.imp m (bool_of t (eval a)) (bool_of t (eval b)))
  | Expr.Iff (a, b) ->
      S_bool (Bdd.iff m (bool_of t (eval a)) (bool_of t (eval b)))
  | Expr.Eq (a, b) ->
      let eqs =
        combine_cases
          (fun va vb g -> if Expr.value_equal va vb then g else Bdd.zero)
          a b
      in
      S_bool (Bdd.disj m eqs)
  | Expr.Lt (a, b) ->
      let lts =
        combine_cases
          (fun va vb g ->
            match (va, vb) with
            | Expr.Int x, Expr.Int y -> if x < y then g else Bdd.zero
            | _ ->
                Expr.type_error "< on non-integers in %s" (Expr.to_string e))
          a b
      in
      S_bool (Bdd.disj m lts)
  | Expr.Add (a, b) | Expr.Sub (a, b) ->
      let op x y =
        match e with Expr.Add _ -> x + y | _ -> x - y
      in
      let sums =
        combine_cases
          (fun va vb g ->
            match (va, vb) with
            | Expr.Int x, Expr.Int y -> (Expr.Int (op x y), g)
            | _ ->
                Expr.type_error "arithmetic on non-integers in %s"
                  (Expr.to_string e))
          a b
      in
      S_cases (norm_cases t sums)
  | Expr.Ite (c, th, el) -> (
      let gc = bool_of t (eval c) in
      let sth = eval th and sel = eval el in
      match (sth, sel) with
      | S_bool bt, S_bool be -> S_bool (Bdd.ite m gc bt be)
      | _ ->
          let ct = cases_of t sth and ce = cases_of t sel in
          let gn = Bdd.dnot m gc in
          let guarded g0 = List.map (fun (v, g) -> (v, Bdd.dand m g0 g)) in
          S_cases (norm_cases t (guarded gc ct @ guarded gn ce)))
  | Expr.Member (a, vs) ->
      let ca = cases_of t (eval a) in
      let hits =
        List.filter_map
          (fun (v, g) ->
            if List.exists (Expr.value_equal v) vs then Some g else None)
          ca
      in
      S_bool (Bdd.disj m hits)

(* Boolean predicates (over current and possibly primed variables) as
   BDDs, sharing one memo across the list. *)
let preds t es =
  let memo = Memo.create 256 in
  List.map (fun e -> bool_of t (eval_sym t memo e)) es

let pred t e = bool_of t (eval_sym t (Memo.create 64) e)

(* "Every variable's bits encode an index inside its domain." Needed
   because binary encodings of non-power-of-two domains have junk
   codes. *)
let valid t ~primed =
  let build () =
    Array.fold_left
      (fun acc ve ->
        let n = Array.length ve.values in
        if n = 1 lsl ve.nbits then acc
        else
          let any =
            Bdd.disj t.mgr
              (List.init n (fun i -> guard_of_index t ve ~primed i))
          in
          Bdd.dand t.mgr acc any)
      Bdd.one t.var_encs
  in
  if primed then (
    match t.valid_nxt with
    | Some d -> d
    | None ->
        let d = build () in
        Bdd.ref t.mgr d;
        t.valid_nxt <- Some d;
        d)
  else
    match t.valid_cur with
    | Some d -> d
    | None ->
        let d = build () in
        Bdd.ref t.mgr d;
        t.valid_cur <- Some d;
        d

let init_bdd t =
  match t.init_cache with
  | Some d -> d
  | None ->
      let d =
        Bdd.dand t.mgr (valid t ~primed:false)
          (Bdd.conj t.mgr (preds t t.model.Model.init))
      in
      Bdd.ref t.mgr d;
      t.init_cache <- Some d;
      d

(* Individual transition constraints (kept separate for the bounded
   model checker and for conjunction scheduling). *)
let trans_parts t = preds t t.model.Model.trans

let trans_bdd t =
  match t.trans_cache with
  | Some d -> d
  | None ->
      let d =
        Bdd.conj t.mgr
          (valid t ~primed:false :: valid t ~primed:true :: trans_parts t)
      in
      Bdd.ref t.mgr d;
      t.trans_cache <- Some d;
      d

(* ------------------------------------------------------------------ *)
(* Conjunctively partitioned transition relation with an early
   quantification schedule (Burch–Clarke–Long). The monolithic
   [trans_bdd] conjoins every constraint into one relation whose size
   the image computation then pays on every step; instead we keep the
   constraints as an ordered list of clusters and quantify each state
   variable out of the relational product at the last cluster that
   mentions it, so the intermediate products stay narrow. *)

let default_cluster_limit = 1_500

(* Greedy cluster order: repeatedly pick the cluster that releases the
   most current-copy variables (variables appearing in no other
   remaining cluster — they can be quantified out immediately after
   conjoining it), breaking ties toward smaller diagrams so cheap
   constraints are folded in early, then toward the earlier cluster.
   Each cluster's support and size are computed once, and a count of
   the remaining clusters mentioning each variable makes "released" a
   lookup. A cluster physically equal to an earlier one is the same
   conjunct and is kept once. Returns the clusters in order, each with
   its support. *)
let order_clusters t clusters =
  let cs =
    List.fold_left
      (fun acc c -> if List.memq c acc then acc else c :: acc)
      [] clusters
    |> List.rev |> Array.of_list
  in
  let k = Array.length cs in
  let supp = Array.map (Bdd.support t.mgr) cs in
  let size = Array.map (Bdd.size t.mgr) cs in
  let curs = Array.map (List.filter (fun v -> v land 1 = 0)) supp in
  let mentions = Array.make (2 * t.nbits) 0 in
  let mention d c = List.iter (fun v -> mentions.(v) <- mentions.(v) + d) c in
  Array.iter (mention 1) curs;
  let released i =
    List.fold_left (fun n v -> if mentions.(v) = 1 then n + 1 else n) 0 curs.(i)
  in
  let taken = Array.make k false in
  Array.init k (fun _ ->
      let best = ref (-1) and best_score = ref (0, 0) in
      for i = 0 to k - 1 do
        if not taken.(i) then begin
          let score = (released i, -size.(i)) in
          if !best < 0 || score > !best_score then begin
            best := i;
            best_score := score
          end
        end
      done;
      taken.(!best) <- true;
      mention (-1) curs.(!best);
      (cs.(!best), supp.(!best)))

let build_schedule t ~cluster_limit =
  let conjuncts =
    (valid t ~primed:false :: valid t ~primed:true :: trans_parts t)
    |> List.filter (fun d -> not (Bdd.is_one d))
  in
  let n_conjuncts = List.length conjuncts in
  (* Cluster in order: conjoin while the cluster diagram stays under
     the node limit, then start a fresh one. *)
  let flush acc cluster =
    match cluster with None -> acc | Some c -> c :: acc
  in
  let clusters =
    let acc, last =
      List.fold_left
        (fun (acc, cluster) d ->
          match cluster with
          | None -> (acc, Some d)
          | Some c ->
              let merged = Bdd.dand t.mgr c d in
              if Bdd.size t.mgr merged <= cluster_limit then (acc, Some merged)
              else (c :: acc, Some d))
        ([], None) conjuncts
    in
    List.rev (flush acc last)
  in
  let ordered = order_clusters t clusters in
  let k = Array.length ordered in
  (* Last cluster mentioning each BDD variable; -1 = mentioned by
     none (quantified straight out of the operand before the fold). *)
  let last = Array.make (2 * t.nbits) (-1) in
  Array.iteri (fun i (_, s) -> List.iter (fun v -> last.(v) <- i) s) ordered;
  let ordered = Array.map fst ordered in
  let img_slots = Array.make k [] and pre_slots = Array.make k [] in
  let img_free = Stdlib.ref [] and pre_free = Stdlib.ref [] in
  for b = 0 to t.nbits - 1 do
    let cur = bdd_var_cur b and nxt = bdd_var_nxt b in
    (match last.(cur) with
    | -1 -> img_free := cur :: !img_free
    | i -> img_slots.(i) <- cur :: img_slots.(i));
    match last.(nxt) with
    | -1 -> pre_free := nxt :: !pre_free
    | i -> pre_slots.(i) <- nxt :: pre_slots.(i)
  done;
  let vs l = Bdd.varset t.mgr l in
  Array.iter (Bdd.ref t.mgr) ordered;
  {
    parts = ordered;
    img_sched = Array.map vs img_slots;
    pre_sched = Array.map vs pre_slots;
    img_free = vs !img_free;
    pre_free = vs !pre_free;
    n_conjuncts;
  }

let schedule ?(cluster_limit = default_cluster_limit) t =
  match t.sched_cache with
  | Some (limit, s) when limit = cluster_limit -> s
  | _ ->
      let s = build_schedule t ~cluster_limit in
      (match t.sched_cache with
      | Some (_, old) -> Array.iter (Bdd.deref t.mgr) old.parts
      | None -> ());
      t.sched_cache <- Some (cluster_limit, s);
      s

let n_partitions t = match t.sched_cache with
  | Some (_, s) -> Array.length s.parts
  | None -> 0

let rename_nxt_to_cur t d = Bdd.rename t.mgr (fun v -> v - 1) d
let rename_cur_to_nxt t d = Bdd.rename t.mgr (fun v -> v + 1) d

(* Encoding of one concrete state as a cube over the current bits. *)
let state_cube t (s : Model.state) =
  let cube = ref Bdd.one in
  Array.iteri
    (fun vi ve ->
      let v = s.(t.decl_index.(vi)) in
      let idx =
        let rec find i =
          if i >= Array.length ve.values then
            invalid_arg
              (Printf.sprintf "Enc.state_cube: %s out of domain of %s"
                 (Expr.value_to_string v) ve.name)
          else if Expr.value_equal ve.values.(i) v then i
          else find (i + 1)
        in
        find 0
      in
      cube := Bdd.dand t.mgr !cube (guard_of_index t ve ~primed:false idx))
    t.var_encs;
  !cube

(* Pick one concrete state from a non-empty set of states (over current
   bits). Deterministic: lowest value index first. *)
let decode_state t set =
  if Bdd.is_zero set then invalid_arg "Enc.decode_state: empty set";
  let s = Array.make (Array.length t.var_encs) (Expr.Bool false) in
  let rest = ref set in
  Array.iteri
    (fun vi ve ->
      let rec pick i =
        if i >= Array.length ve.values then
          invalid_arg "Enc.decode_state: no valid encoding (junk code?)"
        else
          let g = guard_of_index t ve ~primed:false i in
          let inter = Bdd.dand t.mgr !rest g in
          if Bdd.is_zero inter then pick (i + 1)
          else begin
            s.(t.decl_index.(vi)) <- ve.values.(i);
            rest := inter
          end
      in
      pick 0)
    t.var_encs;
  s

(* For the bounded model checker: map a BDD variable index back to
   (state bit, primed?). *)
let bit_of_bddvar idx = (idx / 2, idx land 1 = 1)
