(* Tests for the BDD package: algebraic identities, semantics against
   brute-force truth tables, quantification, renaming, counting. *)

let nvars = 6

(* A small propositional formula type used to cross-check the BDD
   operations against direct evaluation. *)
type form =
  | F_var of int
  | F_not of form
  | F_and of form * form
  | F_or of form * form
  | F_xor of form * form
  | F_ite of form * form * form

let rec eval env = function
  | F_var i -> env.(i)
  | F_not f -> not (eval env f)
  | F_and (a, b) -> eval env a && eval env b
  | F_or (a, b) -> eval env a || eval env b
  | F_xor (a, b) -> eval env a <> eval env b
  | F_ite (c, t, e) -> if eval env c then eval env t else eval env e

let rec build m = function
  | F_var i -> Bdd.var m i
  | F_not f -> Bdd.dnot m (build m f)
  | F_and (a, b) -> Bdd.dand m (build m a) (build m b)
  | F_or (a, b) -> Bdd.dor m (build m a) (build m b)
  | F_xor (a, b) -> Bdd.xor m (build m a) (build m b)
  | F_ite (c, t, e) -> Bdd.ite m (build m c) (build m t) (build m e)

let form_gen_over nv =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then map (fun i -> F_var i) (int_bound (nv - 1))
      else
        frequency
          [
            (1, map (fun i -> F_var i) (int_bound (nv - 1)));
            (2, map (fun f -> F_not f) (self (n - 1)));
            (3, map2 (fun a b -> F_and (a, b)) (self (n / 2)) (self (n / 2)));
            (3, map2 (fun a b -> F_or (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> F_xor (a, b)) (self (n / 2)) (self (n / 2)));
            ( 1,
              map3
                (fun a b c -> F_ite (a, b, c))
                (self (n / 3)) (self (n / 3)) (self (n / 3)) );
          ])

let form_arb_over nv = QCheck.make ~print:(fun _ -> "<form>") (form_gen_over nv)
let form_arb = form_arb_over nvars

let envs nv =
  List.init (1 lsl nv) (fun k -> Array.init nv (fun i -> (k lsr i) land 1 = 1))

let all_envs () = envs nvars

(* Evaluate a BDD under an environment by following the decision path. *)
let rec eval_bdd m env d =
  if Bdd.is_zero d then false
  else if Bdd.is_one d then true
  else
    let v = Bdd.top_var m d in
    eval_bdd m env (if env.(v) then Bdd.high m d else Bdd.low m d)

let prop_semantics =
  QCheck.Test.make ~name:"bdd agrees with truth table" ~count:200 form_arb
    (fun f ->
      let m = Bdd.create_manager () in
      let d = build m f in
      List.for_all (fun env -> eval_bdd m env d = eval env f) (all_envs ()))

let prop_canonical =
  QCheck.Test.make ~name:"equivalent formulas share a node" ~count:200
    (QCheck.pair form_arb form_arb) (fun (f, g) ->
      let m = Bdd.create_manager () in
      let df = build m f and dg = build m g in
      let equiv =
        List.for_all (fun env -> eval env f = eval env g) (all_envs ())
      in
      Bdd.equal df dg = equiv)

(* Reference cofactor for the quantifier properties: Shannon expansion
   down the diagram's own structure, rebuilt with [ite]. *)
let rec cofactor m v b d =
  if Bdd.is_zero d || Bdd.is_one d || Bdd.top_var m d > v then d
  else if Bdd.top_var m d = v then if b then Bdd.high m d else Bdd.low m d
  else
    Bdd.ite m
      (Bdd.var m (Bdd.top_var m d))
      (cofactor m v b (Bdd.high m d))
      (cofactor m v b (Bdd.low m d))

let prop_exists =
  QCheck.Test.make ~name:"exists = or of cofactors" ~count:100
    (QCheck.pair form_arb (QCheck.int_bound (nvars - 1))) (fun (f, v) ->
      let m = Bdd.create_manager () in
      let d = build m f in
      let q = Bdd.exists m (Bdd.varset m [ v ]) d in
      let expected =
        Bdd.dor m (cofactor m v false d) (cofactor m v true d)
      in
      Bdd.equal q expected)

let prop_forall =
  QCheck.Test.make ~name:"forall = and of cofactors" ~count:100
    (QCheck.pair form_arb (QCheck.int_bound (nvars - 1))) (fun (f, v) ->
      let m = Bdd.create_manager () in
      let d = build m f in
      let q = Bdd.forall m (Bdd.varset m [ v ]) d in
      let expected =
        Bdd.dand m (cofactor m v false d) (cofactor m v true d)
      in
      Bdd.equal q expected)

let prop_and_exists =
  QCheck.Test.make ~name:"and_exists = exists of and" ~count:100
    (QCheck.triple form_arb form_arb
       (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
          (QCheck.int_bound (nvars - 1))))
    (fun (f, g, vs) ->
      let m = Bdd.create_manager () in
      let df = build m f and dg = build m g in
      let set = Bdd.varset m vs in
      Bdd.equal
        (Bdd.and_exists m set df dg)
        (Bdd.exists m set (Bdd.dand m df dg)))

let prop_sat_count =
  QCheck.Test.make ~name:"sat_count matches enumeration" ~count:100 form_arb
    (fun f ->
      let m = Bdd.create_manager () in
      let d = build m f in
      let count =
        List.length (List.filter (fun env -> eval env f) (all_envs ()))
      in
      int_of_float (Bdd.sat_count m ~nvars d) = count)

let prop_any_sat =
  QCheck.Test.make ~name:"any_sat returns a model" ~count:100 form_arb
    (fun f ->
      let m = Bdd.create_manager () in
      let d = build m f in
      if Bdd.is_zero d then true
      else begin
        let path = Bdd.any_sat m d in
        let env = Array.make nvars false in
        (* Unmentioned variables are free; false works since the path
           already fixes every variable the function depends on along
           this branch. *)
        List.iter (fun (v, b) -> env.(v) <- b) path;
        eval env f
      end)

let prop_iter_sat =
  QCheck.Test.make ~name:"iter_sat enumerates exactly the models" ~count:50
    form_arb (fun f ->
      let m = Bdd.create_manager () in
      let d = build m f in
      let seen = Hashtbl.create 64 in
      Bdd.iter_sat m ~nvars d (fun a -> Hashtbl.replace seen (Array.copy a) ());
      List.for_all
        (fun env -> Hashtbl.mem seen env = eval env f)
        (all_envs ()))

let test_rename () =
  let m = Bdd.create_manager () in
  (* f(x0, x2) = x0 and not x2, renamed by +1 to f(x1, x3). *)
  let d = Bdd.dand m (Bdd.var m 0) (Bdd.dnot m (Bdd.var m 2)) in
  let r = Bdd.rename m (fun v -> v + 1) d in
  let expected = Bdd.dand m (Bdd.var m 1) (Bdd.dnot m (Bdd.var m 3)) in
  Alcotest.(check bool) "renamed" true (Bdd.equal r expected)

let test_rename_order_violation () =
  let m = Bdd.create_manager () in
  let d = Bdd.dand m (Bdd.var m 0) (Bdd.var m 1) in
  (* Swapping 0 and 1 is not monotonic. *)
  Alcotest.check_raises "order violation"
    (Invalid_argument "Bdd.rename: order-violating substitution") (fun () ->
      ignore (Bdd.rename m (fun v -> 1 - v) d))

let test_constants () =
  let m = Bdd.create_manager () in
  Alcotest.(check bool) "one" true (Bdd.is_one Bdd.one);
  Alcotest.(check bool) "zero" true (Bdd.is_zero Bdd.zero);
  Alcotest.(check bool) "x and not x" true
    (Bdd.is_zero (Bdd.dand m (Bdd.var m 0) (Bdd.nvar m 0)));
  Alcotest.(check bool) "x or not x" true
    (Bdd.is_one (Bdd.dor m (Bdd.var m 0) (Bdd.nvar m 0)));
  Alcotest.(check bool) "conj []" true (Bdd.is_one (Bdd.conj m []));
  Alcotest.(check bool) "disj []" true (Bdd.is_zero (Bdd.disj m []))

let test_support () =
  let m = Bdd.create_manager () in
  let d =
    Bdd.dand m (Bdd.var m 1) (Bdd.dor m (Bdd.var m 3) (Bdd.var m 5))
  in
  Alcotest.(check (list int)) "support" [ 1; 3; 5 ] (Bdd.support m d)

let test_size () =
  let m = Bdd.create_manager () in
  let d = Bdd.var m 0 in
  Alcotest.(check int) "single var" 1 (Bdd.size m d);
  let chain = Bdd.conj m (List.init 5 (fun i -> Bdd.var m i)) in
  Alcotest.(check int) "conjunction chain" 5 (Bdd.size m chain)

(* Coudert–Madre restrict: the result may differ from f outside the
   care set, but must agree with f everywhere inside it. *)
let prop_restrict_sound =
  QCheck.Test.make ~name:"restrict agrees with f on the care set" ~count:200
    (QCheck.pair form_arb form_arb) (fun (f, c) ->
      let m = Bdd.create_manager () in
      let df = build m f and dc = build m c in
      let r = Bdd.restrict m df dc in
      Bdd.equal (Bdd.dand m r dc) (Bdd.dand m df dc))

let prop_restrict_full_care =
  QCheck.Test.make ~name:"restrict under a full care set is the identity"
    ~count:100 form_arb (fun f ->
      let m = Bdd.create_manager () in
      let d = build m f in
      Bdd.equal (Bdd.restrict m d Bdd.one) d)

let prop_quantification_idempotent =
  QCheck.Test.make ~name:"exists over the same set is idempotent" ~count:100
    (QCheck.pair form_arb
       (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
          (QCheck.int_bound (nvars - 1))))
    (fun (f, vs) ->
      let m = Bdd.create_manager () in
      let set = Bdd.varset m vs in
      let once = Bdd.exists m set (build m f) in
      Bdd.equal once (Bdd.exists m set once))

let prop_quantifier_duality =
  QCheck.Test.make ~name:"forall = not exists not" ~count:100
    (QCheck.pair form_arb
       (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
          (QCheck.int_bound (nvars - 1))))
    (fun (f, vs) ->
      let m = Bdd.create_manager () in
      let set = Bdd.varset m vs in
      let d = build m f in
      Bdd.equal (Bdd.forall m set d)
        (Bdd.dnot m (Bdd.exists m set (Bdd.dnot m d))))

(* ------------------------------------------------------------------ *)
(* Node GC: rooting, sweeping, canonicity across a sweep. *)

(* Fill the unique table with throwaway minterm diagrams. *)
let make_garbage m =
  for k = 0 to (1 lsl nvars) - 1 do
    ignore
      (Bdd.conj m
         (List.init nvars (fun j ->
              if (k lsr j) land 1 = 1 then Bdd.var m j else Bdd.nvar m j)))
  done

let test_gc_sweep () =
  let m = Bdd.create_manager () in
  let keep =
    Bdd.dand m (Bdd.var m 0) (Bdd.dor m (Bdd.var m 1) (Bdd.var m 2))
  in
  Bdd.ref m keep;
  make_garbage m;
  let before = Bdd.live_nodes m in
  Bdd.gc m;
  let after = Bdd.live_nodes m in
  Alcotest.(check bool) "sweep reclaimed nodes" true (after < before);
  Alcotest.(check int) "sweep counted" 1 (Bdd.gc_count m);
  Alcotest.(check bool) "peak saw the garbage" true (Bdd.peak_nodes m >= before);
  (* Canonicity survives the sweep: rebuilding the rooted function (and
     fresh garbage) must find the very same nodes again. *)
  let rebuilt =
    Bdd.dand m (Bdd.var m 0) (Bdd.dor m (Bdd.var m 1) (Bdd.var m 2))
  in
  Alcotest.(check bool) "canonical after sweep" true (Bdd.equal rebuilt keep);
  Alcotest.(check bool) "rooted diagram still correct" true
    (eval_bdd m [| true; false; true; false; false; false |] keep);
  Bdd.deref m keep

let test_gc_roots_protocol () =
  let m = Bdd.create_manager () in
  let d = Bdd.dand m (Bdd.var m 0) (Bdd.var m 1) in
  Bdd.with_root m d (fun () ->
      Bdd.gc m;
      Alcotest.(check bool) "rooted survives a sweep inside with_root" true
        (Bdd.equal (Bdd.dand m (Bdd.var m 0) (Bdd.var m 1)) d));
  Alcotest.check_raises "with_root released its root"
    (Invalid_argument "Bdd.deref: not a registered root") (fun () ->
      Bdd.deref m d);
  (* Refcounted: two refs need two derefs. *)
  Bdd.ref m d;
  Bdd.ref m d;
  Bdd.deref m d;
  Bdd.gc m;
  Alcotest.(check bool) "still rooted after one deref" true
    (Bdd.equal (Bdd.dand m (Bdd.var m 0) (Bdd.var m 1)) d);
  Bdd.deref m d;
  Alcotest.(check bool) "constants need no roots" true
    (Bdd.with_root m Bdd.one (fun () -> true))

let test_gc_watermark () =
  let m = Bdd.create_manager ~gc_watermark:16 () in
  make_garbage m;
  Bdd.maybe_gc m;
  Alcotest.(check bool) "watermark sweep fired" true (Bdd.gc_count m >= 1);
  let sweeps = Bdd.gc_count m in
  Bdd.maybe_gc m;
  Alcotest.(check int) "no re-sweep below the watermark" sweeps
    (Bdd.gc_count m);
  Alcotest.check_raises "negative watermark rejected"
    (Invalid_argument "Bdd.set_gc_watermark: negative watermark") (fun () ->
      Bdd.set_gc_watermark m (-1))

(* Results computed *across* a sweep must still be correct: the op
   caches are cleared, so recomputation happens against the swept
   table. *)
let prop_gc_transparent =
  QCheck.Test.make ~name:"semantics unchanged across gc" ~count:100
    (QCheck.pair form_arb form_arb) (fun (f, g) ->
      let m = Bdd.create_manager () in
      let df = build m f in
      Bdd.ref m df;
      Bdd.gc m;
      let dg = build m g in
      let both = Bdd.dand m df dg in
      let ok =
        List.for_all
          (fun env -> eval_bdd m env both = (eval env f && eval env g))
          (all_envs ())
      in
      Bdd.deref m df;
      ok)

(* ------------------------------------------------------------------ *)
(* The computed table is direct-mapped and lossy, and one table serves
   every operation. This property shares a single manager across all
   its cases, over more variables than the others, so the unique table
   outgrows its initial 4096 slots and computed-table entries are
   overwritten while results are still being reused. Each case runs
   every operation twice on the same operands; every 20th case sweeps
   all but the rooted operands between the two passes. *)

let wide = 10
let wide_envs = envs wide

(* [p] holds under some reassignment of the variables [vs]. *)
let exists_over vs p env =
  let env = Array.copy env in
  let rec go = function
    | [] -> p env
    | v :: rest ->
        List.exists
          (fun b ->
            env.(v) <- b;
            go rest)
          [ false; true ]
  in
  go vs

let prop_shared_manager =
  let m = Bdd.create_manager () in
  let count = 200 and case = ref 0 in
  QCheck.Test.make ~name:"lossy computed table on a shared manager" ~count
    (QCheck.triple (form_arb_over wide) (form_arb_over wide)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
          (QCheck.int_bound (wide - 1))))
    (fun (f, g, vs) ->
      incr case;
      let df = build m f and dg = build m g in
      (* Operands stay rooted for the whole run, so the table keeps
         growing across sweeps. *)
      Bdd.ref m df;
      Bdd.ref m dg;
      let set = Bdd.varset m vs in
      let f_ env = eval env f and g_ env = eval env g in
      let exact p env r = r = p env in
      let ops =
        [
          ((fun () -> Bdd.dand m df dg), exact (fun e -> f_ e && g_ e));
          ((fun () -> Bdd.restrict m df dg), fun e r -> (not (g_ e)) || r = f_ e);
          ((fun () -> Bdd.dor m df dg), exact (fun e -> f_ e || g_ e));
          ((fun () -> Bdd.exists m set df), exact (exists_over vs f_));
          ((fun () -> Bdd.xor m df dg), exact (fun e -> f_ e <> g_ e));
          ((fun () -> Bdd.dnot m df), exact (fun e -> not (f_ e)));
          ( (fun () -> Bdd.ite m df dg (Bdd.dnot m dg)),
            exact (fun e -> if f_ e then g_ e else not (g_ e)) );
          ( (fun () -> Bdd.and_exists m set df dg),
            exact (exists_over vs (fun e -> f_ e && g_ e)) );
        ]
      in
      let first = List.map (fun (op, _) -> op ()) ops in
      let sweep = !case mod 20 = 0 in
      if sweep then Bdd.gc m;
      let again = List.map (fun (op, _) -> op ()) ops in
      let right d (_, check) =
        List.for_all (fun e -> check e (eval_bdd m e d)) wide_envs
      in
      (* Identity renaming rebuilds a diagram through the unique table
         alone, so it must return the very same node. After a sweep, a
         stale computed-table hit would return a swept twin instead. *)
      let canonical d = Bdd.equal (Bdd.rename m Fun.id d) d in
      List.for_all2 right first ops
      && List.for_all2 right again ops
      && List.for_all canonical again
      && (sweep || List.for_all2 Bdd.equal first again)
      && Bdd.equal (build m f) df
      && (!case < count || Bdd.peak_nodes m > 4096 / 2))

(* ------------------------------------------------------------------ *)
(* Traversals. [size] and [support] walk a diagram by marking its
   nodes; they must agree with a plain reference walk that keeps its
   own visited set, on diagrams built before and after the unique table
   doubles (the computed table is carried across each doubling), after
   a sweep, and when two domains walk two managers at once. *)

let reference_walk m d =
  let seen = Hashtbl.create 64 in
  let rec go acc d =
    if Bdd.is_zero d || Bdd.is_one d || Hashtbl.mem seen (Bdd.id d) then acc
    else begin
      Hashtbl.add seen (Bdd.id d) ();
      go (go (Bdd.top_var m d :: acc) (Bdd.low m d)) (Bdd.high m d)
    end
  in
  let vars = go [] d in
  (List.length vars, List.sort_uniq compare vars)

let walks_agree m d =
  let n, vars = reference_walk m d in
  Bdd.size m d = n && Bdd.support m d = vars

(* A pseudo-random function over variables [0, nv): a complete decision
   tree with random leaves, reduced by the unique table. *)
let random_function m st nv =
  let rec go v =
    if v = nv then if Random.State.bool st then Bdd.one else Bdd.zero
    else
      let lo = go (v + 1) in
      Bdd.ite m (Bdd.var m v) (go (v + 1)) lo
  in
  go 0

let prop_walks_across_growth =
  QCheck.Test.make ~name:"marked walks = reference walk across growth and gc"
    ~count:12
    (QCheck.triple (form_arb_over wide) (form_arb_over wide)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
          (QCheck.int_bound (wide - 1))))
    (fun (f, g, vs) ->
      let m = Bdd.create_manager () in
      let df = build m f and dg = build m g in
      let set = Bdd.varset m vs in
      let ops () =
        [
          df;
          dg;
          Bdd.dand m df dg;
          Bdd.dor m df dg;
          Bdd.xor m df dg;
          Bdd.exists m set df;
          Bdd.and_exists m set df dg;
          Bdd.restrict m df dg;
        ]
      in
      let before = ops () in
      let ok_before = List.for_all (walks_agree m) before in
      (* Grow the unique table from 4096 slots through at least three
         doublings with unrelated diagrams, walking those too. *)
      let st = Random.State.make [| Bdd.size m df; Bdd.size m dg |] in
      let filler = ref [] in
      while Bdd.peak_nodes m <= 8192 do
        filler := random_function m st 14 :: !filler
      done;
      let ok_filler = List.for_all (walks_agree m) !filler in
      let after = ops () in
      let same = List.for_all2 Bdd.equal before after in
      let ok_after = List.for_all (walks_agree m) after in
      List.iter (Bdd.ref m) after;
      Bdd.gc m;
      let ok_gc =
        List.for_all (walks_agree m) after
        && List.for_all2 Bdd.equal after (ops ())
      in
      ok_before && ok_filler && same && ok_after && ok_gc)

(* Ids are issued from 2 in allocation order and never reused, so a
   handle kept unrooted across a sweep still denotes its function, and
   no later node can take its id: [Symkit.Bmc]'s Tseitin memo keys on
   ids, so a reused id would be a silent wrong verdict. *)
let node_ids m d =
  let seen = Hashtbl.create 64 in
  let rec go d =
    if not (Bdd.is_zero d || Bdd.is_one d || Hashtbl.mem seen (Bdd.id d))
    then begin
      Hashtbl.add seen (Bdd.id d) ();
      go (Bdd.low m d);
      go (Bdd.high m d)
    end
  in
  go d;
  Hashtbl.fold (fun id () acc -> id :: acc) seen []

let test_ids_never_reused () =
  let m = Bdd.create_manager () in
  let allocated () = List.assoc "bdd.nodes_allocated" (Bdd.counters m) in
  let st = Random.State.make [| 29 |] in
  let kept = random_function m st wide in
  let truth = List.map (fun e -> eval_bdd m e kept) wide_envs in
  let size = Bdd.size m kept and support = Bdd.support m kept in
  Alcotest.(check bool) "ids so far issued from 2 in order" true
    (List.for_all (fun id -> id >= 2 && id < 2 + allocated ()) (node_ids m kept));
  (* Nothing is rooted: the sweep empties the unique table. *)
  Bdd.gc m;
  Alcotest.(check int) "sweep kept nothing" 0 (Bdd.live_nodes m);
  let issued = allocated () in
  (* Three pages' worth of new nodes: node storage grows, and the unique
     table doubles more than once. *)
  let fresh = ref [] in
  while allocated () - issued < 3 * 4096 do
    fresh := random_function m st 14 :: !fresh
  done;
  Alcotest.(check bool) "every new id above every earlier one" true
    (List.for_all
       (fun d ->
         List.for_all
           (fun id -> id >= 2 + issued && id < 2 + allocated ())
           (node_ids m d))
       !fresh);
  Alcotest.(check (list bool)) "unrooted handle evaluates the same" truth
    (List.map (fun e -> eval_bdd m e kept) wide_envs);
  Alcotest.(check int) "unrooted handle keeps its size" size (Bdd.size m kept);
  Alcotest.(check (list int)) "unrooted handle keeps its support" support
    (Bdd.support m kept);
  let d = Bdd.dor m kept (Bdd.var m 0) in
  Alcotest.(check (list bool)) "an operation on it stays correct"
    (List.map2 (fun e t -> t || e.(0)) wide_envs truth)
    (List.map (fun e -> eval_bdd m e d) wide_envs)

(* ------------------------------------------------------------------ *)
(* Table layout: the unique table tags each slot with hash bits beside
   the handle and re-places entries from the tag when it doubles; the
   computed table keeps its entries across a doubling. *)

(* Every minterm over variables [0, n), built bottom-up a level at a
   time: level j holds the 2^(n-j) minterms over [j, n), each a node on
   variable j above one of level j+1. The top level is returned,
   minterm k at index k (variable j takes bit j of k). *)
let minterms m n =
  let rec level j =
    if j = n then [| Bdd.one |]
    else
      let below = level (j + 1) in
      Array.init
        (2 * Array.length below)
        (fun k ->
          let lit = if k land 1 = 1 then Bdd.var m j else Bdd.nvar m j in
          Bdd.dand m lit below.(k lsr 1))
  in
  level 0

let minterm_env n k = Array.init n (fun j -> (k lsr j) land 1 = 1)

(* [minterms m n]'s nodes: 2^(n+1) - 2 minterm nodes, plus the literals
   of variables 0 .. n-2 that [Bdd.var]/[Bdd.nvar] create on the way. *)
let minterm_nodes n = (1 lsl (n + 1)) - 2 + (2 * (n - 1))
let table_n = 17

(* (unique-table slots, computed-table slots) from [Bdd.stats]. *)
let table_slots m =
  Scanf.sscanf (Bdd.stats m) "unique=%d/%d peak=%d computed=%d"
    (fun _ unique _ computed -> (unique, computed))

(* 2^18 distinct nodes: the unique table doubles from 4096 to 2^19
   slots, and with ~2^18 nodes about 32 pairs share all 30 tag bits, so
   probes pass tag-equal slots that hold a different node. *)
let test_unique_table_tags () =
  let m = Bdd.create_manager () in
  let allocated () = List.assoc "bdd.nodes_allocated" (Bdd.counters m) in
  let top = minterms m table_n in
  Alcotest.(check int) "every node distinct" (minterm_nodes table_n)
    (allocated ());
  Alcotest.(check int) "all of them in the unique table" (allocated ())
    (Bdd.live_nodes m);
  Alcotest.(check bool) "the unique table doubled past 2^18 slots" true
    (fst (table_slots m) >= 1 lsl 19);
  let again = minterms m table_n in
  Alcotest.(check bool) "rebuilding returns the same ids" true
    (Array.for_all2 Bdd.equal top again);
  Alcotest.(check int) "rebuilding allocates nothing" (minterm_nodes table_n)
    (allocated ());
  let k = 0x15a5a in
  Alcotest.(check (list bool)) "a minterm holds on its own point only"
    [ true; false; false ]
    (List.map
       (fun k' -> eval_bdd m (minterm_env table_n k') top.(k))
       [ k; k lxor 1; k lxor (1 lsl (table_n - 1)) ])

let test_gc_half_rooted () =
  let m = Bdd.create_manager () in
  let allocated () = List.assoc "bdd.nodes_allocated" (Bdd.counters m) in
  let top = minterms m table_n in
  let st = Random.State.make [| 31 |] in
  let rooted = Array.map (fun _ -> Random.State.bool st) top in
  Array.iteri (fun k d -> if rooted.(k) then Bdd.ref m d) top;
  let kept = Hashtbl.create 4096 in
  Array.iteri
    (fun k d ->
      if rooted.(k) then
        List.iter (fun id -> Hashtbl.replace kept id ()) (node_ids m d))
    top;
  (* Every id issued so far is below [issued]. *)
  let issued = 2 + allocated () in
  Bdd.gc m;
  Alcotest.(check int) "the sweep kept exactly the rooted nodes"
    (Hashtbl.length kept) (Bdd.live_nodes m);
  let again = minterms m table_n in
  let ok = ref true and fresh = ref 0 in
  Array.iteri
    (fun k d ->
      if rooted.(k) then ok := !ok && Bdd.equal d top.(k)
      else begin
        let old = top.(k) in
        let holds k' = eval_bdd m (minterm_env table_n k') old in
        ok :=
          !ok && holds k
          && (not (holds (k lxor 1)))
          && (not (holds (k lxor (1 lsl (table_n - 1)))))
          && List.for_all
               (fun id -> Hashtbl.mem kept id || id >= issued)
               (node_ids m d)
          && Bdd.id d >= issued;
        incr fresh
      end)
    again;
  Alcotest.(check bool)
    "rooted rebuild to their ids; unrooted keep their semantics and \
     rebuild to ids above every earlier one"
    true !ok;
  Alcotest.(check bool) "about half unrooted" true
    (!fresh > Array.length top / 3 && !fresh < 2 * Array.length top / 3)

let test_computed_table_doubling () =
  let m = Bdd.create_manager () in
  let hits () = List.assoc "bdd.cache_hits" (Bdd.counters m)
  and misses () = List.assoc "bdd.cache_misses" (Bdd.counters m) in
  let a = Bdd.dor m (Bdd.var m 0) (Bdd.var m 2)
  and b = Bdd.dand m (Bdd.var m 1) (Bdd.nvar m 3) in
  let set = Bdd.varset m [ 1 ] in
  let ops () =
    [
      Bdd.dand m a b;
      Bdd.xor m a b;
      Bdd.exists m set b;
      Bdd.and_exists m set a b;
    ]
  in
  let first = ops () in
  let _, slots = table_slots m in
  (* [Bdd.var] creates a node through the unique table alone, without
     a computed-table lookup or store. *)
  let v = ref 100 in
  while snd (table_slots m) = slots do
    ignore (Bdd.var m !v);
    incr v
  done;
  Alcotest.(check int) "the computed table doubled" (2 * slots)
    (snd (table_slots m));
  let h = hits () and mi = misses () in
  let second = ops () in
  Alcotest.(check bool) "same results" true
    (List.for_all2 Bdd.equal first second);
  Alcotest.(check (pair int int))
    "every repeated op is one computed-table hit"
    (h + List.length first, mi)
    (hits (), misses ())

let test_walks_two_domains () =
  let walk_many seed () =
    let m = Bdd.create_manager () in
    let rand = Random.State.make [| seed |] in
    let forms = QCheck.Gen.generate ~rand ~n:200 (form_gen_over wide) in
    let ds = List.map (build m) forms in
    (* Walk every diagram several times so the two domains' walks
       interleave; each pass must agree with the reference. *)
    List.init 5 (fun _ -> List.for_all (walks_agree m) ds)
    |> List.for_all Fun.id
  in
  let d1 = Domain.spawn (walk_many 1) and d2 = Domain.spawn (walk_many 2) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 walks agree" true r1;
  Alcotest.(check bool) "domain 2 walks agree" true r2

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_shared_manager;
      prop_walks_across_growth;
      prop_restrict_sound;
      prop_restrict_full_care;
      prop_gc_transparent;
      prop_quantification_idempotent;
      prop_quantifier_duality;
      prop_semantics;
      prop_canonical;
      prop_exists;
      prop_forall;
      prop_and_exists;
      prop_sat_count;
      prop_any_sat;
      prop_iter_sat;
    ]

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "rename order violation" `Quick
      test_rename_order_violation;
    Alcotest.test_case "gc sweep" `Quick test_gc_sweep;
    Alcotest.test_case "gc roots protocol" `Quick test_gc_roots_protocol;
    Alcotest.test_case "gc watermark" `Quick test_gc_watermark;
    Alcotest.test_case "walks from two domains" `Quick test_walks_two_domains;
    Alcotest.test_case "ids never reused across gc" `Quick
      test_ids_never_reused;
    Alcotest.test_case "unique table: tags across doublings" `Quick
      test_unique_table_tags;
    Alcotest.test_case "gc with half the functions rooted" `Quick
      test_gc_half_rooted;
    Alcotest.test_case "computed table: hits survive a doubling" `Quick
      test_computed_table_doubling;
  ]
  @ qtests

let () = Alcotest.run "bdd" [ ("bdd", suite) ]
