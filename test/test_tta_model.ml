(* Tests for the formal TTA model: construction, well-formedness
   (deadlock freedom), the paper's verification results at small scale
   (2-node clusters keep each check under a few seconds; the 4-node
   paper-scale runs live in the benchmark harness and EXPERIMENTS.md),
   cross-engine agreement, and semantic checks on the counterexamples. *)

open Symkit

let nodes = 2

(* The historical [check] signature the assertions were written
   against, shimmed over the unified [Engine] interface. *)
let tta_check ?cancel ~engine ~max_depth cfg =
  ((Tta_model.Engine.get engine).Tta_model.Engine.run ?cancel ~max_depth cfg)
    .Tta_model.Engine.verdict

let enc_of cfg = Enc.create (Bdd.create_manager ()) (Tta_model.Build.model cfg)

(* ------------------------------------------------------------------ *)
(* Construction and static structure *)

let test_construction_all_configs () =
  List.iter
    (fun cfg ->
      let model = Tta_model.Build.model cfg in
      Alcotest.(check bool)
        (Tta_model.Configs.name cfg ^ " has variables")
        true
        (List.length model.Model.vars > 0))
    [
      Tta_model.Configs.passive ~nodes ();
      Tta_model.Configs.time_windows ~nodes ();
      Tta_model.Configs.small_shifting ~nodes ();
      Tta_model.Configs.full_shifting ~nodes ();
      Tta_model.Configs.full_shifting ~nodes ~forbid_cold_start_duplication:true ();
    ]

let test_variable_inventory () =
  let model = Tta_model.Build.model (Tta_model.Configs.full_shifting ~nodes:4 ()) in
  (* 7 variables per node, 3 per coupler, 1 budget. *)
  Alcotest.(check int) "variable count" ((7 * 4) + (3 * 2) + 1)
    (List.length model.Model.vars);
  (* Without a budget, one fewer. *)
  let model2 = Tta_model.Build.model (Tta_model.Configs.passive ~nodes:4 ()) in
  Alcotest.(check int) "no budget variable" ((7 * 4) + (3 * 2))
    (List.length model2.Model.vars)

let test_config_validation () =
  Alcotest.check_raises "too few nodes"
    (Invalid_argument "Configs.make: need at least 2 nodes") (fun () ->
      ignore (Tta_model.Configs.passive ~nodes:1 ()))

let test_initial_state_unique () =
  let enc = enc_of (Tta_model.Configs.passive ~nodes ()) in
  let init = Enc.init_bdd enc in
  Alcotest.(check bool) "exactly one initial state" true
    (Bdd.sat_count (Enc.mgr enc) ~nvars:(2 * Enc.nbits enc) init
     /. (2.0 ** float_of_int (Enc.nbits enc))
    = 1.0)

(* ------------------------------------------------------------------ *)
(* Deadlock freedom: the conjoined constraints never paint a reachable
   state into a corner. This is the key well-formedness property of a
   relational model. *)

let test_deadlock_freedom () =
  List.iter
    (fun cfg ->
      let enc = enc_of cfg in
      let reach = Reach.reachable_set enc in
      let stuck = Reach.deadlocked enc reach in
      Alcotest.(check bool)
        (Tta_model.Configs.name cfg ^ " deadlock-free")
        true (Bdd.is_zero stuck))
    [
      Tta_model.Configs.passive ~nodes ();
      Tta_model.Configs.full_shifting ~nodes ();
      Tta_model.Configs.full_shifting ~nodes ~forbid_cold_start_duplication:true ();
    ]

(* ------------------------------------------------------------------ *)
(* The paper's verification results at 2-node scale *)

let bad = Tta_model.Props.integrated_node_frozen ~nodes

let test_safe_configurations_proved () =
  List.iter
    (fun cfg ->
      match tta_check ~engine:Tta_model.Engine.Bdd_reach ~max_depth:60 cfg with
      | Tta_model.Engine.Holds _ -> ()
      | Tta_model.Engine.Violated { trace; model } ->
          Alcotest.failf "%s: spurious violation:\n%s"
            (Tta_model.Configs.name cfg)
            (Trace.to_string model trace)
      | Tta_model.Engine.Unknown { detail } ->
          Alcotest.failf "%s: %s" (Tta_model.Configs.name cfg) detail)
    [
      Tta_model.Configs.passive ~nodes ();
      Tta_model.Configs.time_windows ~nodes ();
      Tta_model.Configs.small_shifting ~nodes ();
    ]

let get_violation ~engine cfg =
  match tta_check ~engine ~max_depth:16 cfg with
  | Tta_model.Engine.Violated { trace; model } -> (trace, model)
  | _ -> Alcotest.fail "expected a violation"

let test_full_shifting_violated_and_traces_agree () =
  let cfg = Tta_model.Configs.full_shifting ~nodes () in
  let bdd_trace, model = get_violation ~engine:Tta_model.Engine.Bdd_reach cfg in
  let bmc_trace, _ = get_violation ~engine:Tta_model.Engine.Sat_bmc cfg in
  (* Both engines find minimal counterexamples of the same length, and
     both replay against the model. *)
  Alcotest.(check int) "engines agree on minimal length"
    (Array.length bdd_trace) (Array.length bmc_trace);
  List.iter
    (fun trace ->
      match Trace.validate model trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid trace: %s" e)
    [ bdd_trace; bmc_trace ]

(* The default BDD path's exact work on E1-E5 at 3 nodes: verdict,
   iterations, trace length, node allocations and computed-table hits
   and misses. The kernel's storage layout only changes speed; a change
   in these counts is a change in the search. *)
let test_section5_work_pinned () =
  let n = 3 in
  List.iter
    (fun (cfg, verdict, iterations, trace_len, (allocated, hits, misses)) ->
      let mgr = Bdd.create_manager () in
      let enc = Enc.create mgr (Tta_model.Build.model cfg) in
      let bad = Tta_model.Props.integrated_node_frozen ~nodes:n in
      let got, len, stats =
        match Reach.check ~max_iterations:100 enc ~bad with
        | Reach.Safe s -> ("safe", 0, s)
        | Reach.Unsafe (t, s) -> ("violated", Array.length t, s)
        | Reach.Depth_exhausted s -> ("exhausted", 0, s)
      in
      let name = Tta_model.Configs.name cfg in
      Alcotest.(check string) (name ^ ": verdict") verdict got;
      Alcotest.(check int) (name ^ ": iterations") iterations
        stats.Reach.iterations;
      Alcotest.(check int) (name ^ ": trace length") trace_len len;
      let counter k = List.assoc k (Bdd.counters mgr) in
      Alcotest.(check int) (name ^ ": nodes allocated") allocated
        (counter "bdd.nodes_allocated");
      Alcotest.(check int) (name ^ ": cache hits") hits
        (counter "bdd.cache_hits");
      Alcotest.(check int) (name ^ ": cache misses") misses
        (counter "bdd.cache_misses"))
    [
      ( Tta_model.Configs.passive ~nodes:n (),
        "safe",
        24,
        0,
        (156850, 116737, 358242) );
      ( Tta_model.Configs.time_windows ~nodes:n (),
        "safe",
        24,
        0,
        (156850, 116737, 358242) );
      ( Tta_model.Configs.small_shifting ~nodes:n (),
        "safe",
        24,
        0,
        (156850, 116737, 358242) );
      ( Tta_model.Configs.full_shifting ~nodes:n (),
        "violated",
        12,
        13,
        (132167, 104210, 284149) );
      ( Tta_model.Configs.full_shifting ~nodes:n
          ~forbid_cold_start_duplication:true (),
        "violated",
        19,
        20,
        (190311, 131234, 445870) );
    ]

(* The compile that every BDD verdict starts with, pinned for E1-E5 at
   2 and 3 nodes: the cluster count, then each cluster's node count and
   support length in schedule order, and the nodes the compile
   allocates. Compile speedups must leave all of them as they are. *)
let e1_to_e5 n =
  [
    Tta_model.Configs.passive ~nodes:n ();
    Tta_model.Configs.time_windows ~nodes:n ();
    Tta_model.Configs.small_shifting ~nodes:n ();
    Tta_model.Configs.full_shifting ~nodes:n ();
    Tta_model.Configs.full_shifting ~nodes:n ~forbid_cold_start_duplication:true
      ();
  ]

let cluster_shape model =
  let enc = Enc.create (Bdd.create_manager ()) model in
  let s = Enc.schedule enc in
  ( Enc.n_partitions enc,
    Array.to_list (Array.map (Bdd.size (Enc.mgr enc)) s.Enc.parts),
    Array.to_list
      (Array.map
         (fun d -> List.length (Bdd.support (Enc.mgr enc) d))
         s.Enc.parts),
    List.assoc "bdd.nodes_allocated" (Bdd.counters (Enc.mgr enc)) )

let test_compile_pinned () =
  let safe2 = ([ 1058; 981; 1246; 1458; 5 ], [ 41; 72; 47; 49; 4 ], 31447) in
  let safe3 =
    ( [ 1305; 1391; 1364; 1406; 904; 1444; 519 ],
      [ 48; 50; 72; 55; 45; 47; 46 ],
      61172 )
  in
  let common3 = [ 1305; 1391; 1364; 1406; 904; 1444 ]
  and supp3 = [ 48; 50; 72; 55; 45; 47; 48 ] in
  let expected =
    [
      (2, [ safe2; safe2; safe2;
            ([ 33; 1058; 981; 1246; 1325 ], [ 10; 41; 72; 47; 47 ], 31155);
            ([ 39; 1058; 981; 1246; 1325 ], [ 16; 41; 72; 47; 47 ], 31204) ]);
      (3, [ safe3; safe3; safe3;
            (common3 @ [ 1122 ], supp3, 62174);
            (common3 @ [ 1103 ], supp3, 62798) ]);
    ]
  in
  List.iter
    (fun (n, rows) ->
      List.iter2
        (fun cfg (sizes, supports, allocated) ->
          let name = Printf.sprintf "%s@%d" (Tta_model.Configs.name cfg) n in
          let parts, got_sizes, got_supports, got_alloc =
            cluster_shape (Tta_model.Build.model cfg)
          in
          Alcotest.(check int) (name ^ ": partitions") (List.length sizes) parts;
          Alcotest.(check (list int)) (name ^ ": cluster sizes") sizes got_sizes;
          Alcotest.(check (list int))
            (name ^ ": cluster supports") supports got_supports;
          Alcotest.(check int) (name ^ ": compile allocations") allocated
            got_alloc)
        (e1_to_e5 n) rows)
    expected

(* The largest 3-node transition constraint shares its sub-terms
   physically; an unshared deep copy of it must compile to the same
   diagram. *)
let test_shared_terms_compile_alike () =
  let rec copy (e : Expr.t) : Expr.t =
    match e with
    | Const v -> Const v
    | Cur v -> Cur (String.init (String.length v) (String.get v))
    | Nxt v -> Nxt (String.init (String.length v) (String.get v))
    | Not a -> Not (copy a)
    | And (a, b) -> And (copy a, copy b)
    | Or (a, b) -> Or (copy a, copy b)
    | Imp (a, b) -> Imp (copy a, copy b)
    | Iff (a, b) -> Iff (copy a, copy b)
    | Eq (a, b) -> Eq (copy a, copy b)
    | Lt (a, b) -> Lt (copy a, copy b)
    | Add (a, b) -> Add (copy a, copy b)
    | Sub (a, b) -> Sub (copy a, copy b)
    | Ite (c, a, b) -> Ite (copy c, copy a, copy b)
    | Member (a, vs) -> Member (copy a, vs)
  in
  let model = Tta_model.Build.model (Tta_model.Configs.passive ~nodes:3 ()) in
  let largest =
    List.fold_left
      (fun best e ->
        if String.length (Expr.to_string e) > String.length (Expr.to_string best)
        then e
        else best)
      Expr.tt model.Model.trans
  in
  (* Distinct physical nodes against tree nodes: the sharing is real. *)
  let seen = ref [] in
  let rec walk tree (e : Expr.t) =
    if not (List.memq e !seen) then seen := e :: !seen;
    match e with
    | Const _ | Cur _ | Nxt _ -> tree + 1
    | Not a | Member (a, _) -> walk (tree + 1) a
    | And (a, b) | Or (a, b) | Imp (a, b) | Iff (a, b) | Eq (a, b)
    | Lt (a, b) | Add (a, b) | Sub (a, b) ->
        walk (walk (tree + 1) a) b
    | Ite (c, a, b) -> walk (walk (walk (tree + 1) c) a) b
  in
  let tree = walk 0 largest in
  Alcotest.(check bool)
    (Printf.sprintf "sub-terms shared (%d distinct of %d)" (List.length !seen)
       tree)
    true
    (2 * List.length !seen < tree);
  let enc = Enc.create (Bdd.create_manager ()) model in
  Alcotest.(check bool) "shared term = unshared copy" true
    (Bdd.equal (Enc.pred enc largest) (Enc.pred enc (copy largest)))

(* Two domains compiling one memoized model at once see what a
   sequential compile sees. *)
let test_concurrent_compile () =
  let model = Tta_model.Build.model (Tta_model.Configs.full_shifting ~nodes:3 ()) in
  let alone = cluster_shape model in
  let ds = List.init 2 (fun _ -> Domain.spawn (fun () -> cluster_shape model)) in
  List.iteri
    (fun i d ->
      let parts, sizes, supports, alloc = Domain.join d in
      let p0, s0, u0, a0 = alone in
      let name = Printf.sprintf "domain %d" i in
      Alcotest.(check int) (name ^ ": partitions") p0 parts;
      Alcotest.(check (list int)) (name ^ ": sizes") s0 sizes;
      Alcotest.(check (list int)) (name ^ ": supports") u0 supports;
      Alcotest.(check int) (name ^ ": allocations") a0 alloc)
    ds

(* Semantic checks on the counterexample: the budget is respected, the
   replay actually happens, and the victim had integrated. *)
let count_steps_with model trace pred =
  Array.fold_left
    (fun acc s -> if Model.eval_pred model pred s then acc + 1 else acc)
    0 trace

let test_counterexample_semantics () =
  let cfg = Tta_model.Configs.full_shifting ~nodes () in
  let trace, model = get_violation ~engine:Tta_model.Engine.Bdd_reach cfg in
  let oos = Tta_model.Props.replay_active in
  let replays = count_steps_with model trace oos in
  Alcotest.(check int) "exactly one out-of-slot step (budget = 1)" 1 replays;
  (* The final state exhibits the property violation and nothing
     earlier does (minimality). *)
  let last = trace.(Array.length trace - 1) in
  Alcotest.(check bool) "final state is bad" true (Model.eval_pred model bad last);
  Alcotest.(check int) "no earlier bad state" 1
    (count_steps_with model trace bad)

let test_forbid_cold_start_duplication () =
  (* With cold-start replays prohibited, two nodes are provably safe (a
     2-node victim of a C-state replay always counts its own frame as
     agreed and survives)... *)
  let cfg2 =
    Tta_model.Configs.full_shifting ~nodes:2 ~forbid_cold_start_duplication:true ()
  in
  (match tta_check ~engine:Tta_model.Engine.Bdd_reach ~max_depth:60 cfg2 with
  | Tta_model.Engine.Holds _ -> ()
  | _ -> Alcotest.fail "2 nodes without cold-start duplication should be safe");
  (* ...but from three nodes on, the paper's second counterexample (a
     duplicated C-state frame) appears. *)
  let cfg =
    Tta_model.Configs.full_shifting ~nodes:3 ~forbid_cold_start_duplication:true ()
  in
  let get_violation ~engine cfg =
    match tta_check ~engine ~max_depth:24 cfg with
    | Tta_model.Engine.Violated { trace; model } -> (trace, model)
    | _ -> Alcotest.fail "expected a violation"
  in
  let trace, model = get_violation ~engine:Tta_model.Engine.Bdd_reach cfg in
  (* The C-state duplication variant is still a violation, but no step
     replays a buffered cold-start frame. *)
  let cs_replay k =
    let open Expr in
    let open Expr.Syntax in
    (cur (Printf.sprintf "c%d_fault" k) == sym "out_of_slot")
    && (cur (Printf.sprintf "c%d_buf_frame" k) == sym "cold_start")
  in
  Alcotest.(check int) "no cold-start replay anywhere" 0
    (count_steps_with model trace (Expr.disj [ cs_replay 0; cs_replay 1 ]));
  (* Some replay still happens — necessarily of a C-state frame. *)
  Alcotest.(check bool) "a replay happened" true
    (count_steps_with model trace Tta_model.Props.replay_active > 0)

let test_unlimited_budget_also_violated () =
  let cfg =
    Tta_model.Configs.make ~nodes Guardian.Feature_set.Full_shifting
  in
  match tta_check ~engine:Tta_model.Engine.Bdd_reach ~max_depth:16 cfg with
  | Tta_model.Engine.Violated { trace; _ } ->
      (* Without the budget constraint the counterexample can only get
         shorter or stay equal. *)
      let budget_trace, _ =
        get_violation ~engine:Tta_model.Engine.Bdd_reach
          (Tta_model.Configs.full_shifting ~nodes ())
      in
      Alcotest.(check bool) "not longer than the budgeted trace" true
        (Array.length trace <= Array.length budget_trace)
  | _ -> Alcotest.fail "expected a violation"

(* E9's checked claim: the safe configurations' property is not
   1-inductive on its own, but the BDD fixpoint is an inductive
   strengthening of it, discharged by the SAT solver; the unsafe
   configurations' fixpoint holds a bad state. E5 keeps its three
   participants, as in the Section 5 matrix (two nodes are safe). *)
let test_induction_on_tta () =
  let check cfg inv =
    let enc = enc_of cfg in
    let bad =
      Tta_model.Props.integrated_node_frozen ~nodes:cfg.Tta_model.Configs.nodes
    in
    let inv =
      match inv with
      | `Fixpoint -> Reach.reachable_set enc
      | `Not_bad -> Bdd.dnot (Enc.mgr enc) (Enc.pred enc bad)
    in
    Induction.result_to_string (Induction.check enc ~inv ~bad)
  in
  let expect name cfg inv expected =
    Alcotest.(check string) name
      (Induction.result_to_string expected)
      (check cfg inv)
  in
  List.iter
    (fun (name, cfg) ->
      expect (name ^ " fixpoint") cfg `Fixpoint Induction.Inductive;
      expect (name ^ " not bad") cfg `Not_bad
        (Induction.Fails Induction.Consecution))
    [
      ("E1", Tta_model.Configs.passive ~nodes ());
      ("E2", Tta_model.Configs.time_windows ~nodes ());
      ("E3", Tta_model.Configs.small_shifting ~nodes ());
    ];
  List.iter
    (fun (name, cfg) ->
      expect (name ^ " fixpoint") cfg `Fixpoint
        (Induction.Fails Induction.Safety))
    [
      ("E4", Tta_model.Configs.full_shifting ~nodes ());
      ( "E5",
        Tta_model.Configs.full_shifting ~nodes:3
          ~forbid_cold_start_duplication:true () );
    ]

(* The SMV export of the paper's model round-trips its key structure. *)
let test_smv_export_of_tta () =
  let cfg = Tta_model.Configs.full_shifting ~nodes:4 () in
  let model = Tta_model.Build.model cfg in
  let smv =
    Smv_export.to_string
      ~invarspec:(Tta_model.Props.integrated_node_frozen ~nodes:4)
      model
  in
  let has needle =
    let n = String.length needle and m = String.length smv in
    let rec go i = i + n <= m && (String.sub smv i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "declares the node state machines" true
    (has "n1_state : {freeze, init, listen, cold_start, active, passive, \
          await, test, download};");
  Alcotest.(check bool) "declares coupler faults" true
    (has "c0_fault : {none, silence, bad_frame, out_of_slot};");
  Alcotest.(check bool) "has the property" true (has "INVARSPEC")

(* ------------------------------------------------------------------ *)
(* Reachability probes: the model exhibits the good behaviours too. *)

let test_integration_reachable () =
  let cfg = Tta_model.Configs.passive ~nodes () in
  match
    Tta_model.Engine.witness ~max_depth:12 cfg
      (Tta_model.Props.some_node_integrated ~nodes)
  with
  | Some (trace, model) -> (
      match Trace.validate model trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid witness: %s" e)
  | None -> Alcotest.fail "integration unreachable: broken model"

let test_full_activity_reachable () =
  let cfg = Tta_model.Configs.passive ~nodes () in
  match
    Tta_model.Engine.witness ~max_depth:14 cfg
      (Tta_model.Props.all_nodes_active ~nodes)
  with
  | Some (trace, _) ->
      Alcotest.(check bool) "nontrivial run" true (Array.length trace > 5)
  | None -> Alcotest.fail "full activity unreachable: broken model"

(* The violation at the minimal depth is not a fluke of one schedule:
   enumeration finds several distinct minimal counterexamples, each
   validating against the model. *)
let test_enumerate_counterexamples () =
  let cfg = Tta_model.Configs.full_shifting ~nodes () in
  let model = Tta_model.Build.model cfg in
  let enc = Enc.create (Bdd.create_manager ()) model in
  let traces =
    Bmc.enumerate ~max_depth:14 ~limit:5 enc ~bad
  in
  Alcotest.(check bool) "several distinct minimal traces" true
    (List.length traces >= 3);
  let lens = List.map Array.length traces in
  Alcotest.(check bool) "all at the minimal depth" true
    (List.for_all (( = ) (List.hd lens)) lens);
  List.iteri
    (fun i trace ->
      match Trace.validate model trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "trace %d invalid: %s" i e)
    traces;
  (* Pairwise distinct. *)
  let rec distinct = function
    | [] -> true
    | t :: rest -> (not (List.exists (( = ) t) rest)) && distinct rest
  in
  Alcotest.(check bool) "pairwise distinct" true (distinct traces)

(* Conformance of the executable twin: for sampled states, the set of
   successors enumerated by the hand-coded program must equal the
   symbolic image of the constraint encoding — two independent
   implementations of the Section 4 semantics agreeing pointwise. *)
let conformance_check cfg ~samples =
  let ctx = Tta_model.Exec.make_ctx cfg in
  let enc = Enc.create (Bdd.create_manager ()) (Tta_model.Exec.model ctx) in
  let m = Enc.mgr enc in
  let rng = Random.State.make [| 20260705 |] in
  let check_state label s =
    let image = Reach.image enc (Enc.state_cube enc s) in
    let exec_set =
      List.fold_left
        (fun acc s' -> Bdd.dor m acc (Enc.state_cube enc s'))
        Bdd.zero
        (Tta_model.Exec.successors ctx s)
    in
    if not (Bdd.equal image exec_set) then begin
      let diff1 = Bdd.dand m image (Bdd.dnot m exec_set) in
      let diff2 = Bdd.dand m exec_set (Bdd.dnot m image) in
      let show d =
        if Bdd.is_zero d then "-"
        else
          Format.asprintf "%a"
            (Model.pp_state (Tta_model.Exec.model ctx))
            (Enc.decode_state enc d)
      in
      Alcotest.failf
        "%s: successor sets differ at %s\nonly symbolic: %s\nonly exec: %s"
        label
        (Format.asprintf "%a" (Model.pp_state (Tta_model.Exec.model ctx)) s)
        (show diff1) (show diff2)
    end
  in
  (* The initial state, a short random walk from it, and uniformly
     random states of the full space. *)
  let s = ref (Tta_model.Exec.initial ctx) in
  check_state "initial" !s;
  for step = 1 to samples do
    (match Tta_model.Exec.successors ctx !s with
    | [] -> s := Tta_model.Exec.initial ctx
    | succs ->
        s := List.nth succs (Random.State.int rng (List.length succs)));
    check_state (Printf.sprintf "walk step %d" step) !s
  done;
  for k = 1 to samples do
    check_state
      (Printf.sprintf "random state %d" k)
      (Tta_model.Exec.random_state ctx rng)
  done

let test_exec_conformance () =
  conformance_check (Tta_model.Configs.full_shifting ~nodes ()) ~samples:25;
  conformance_check (Tta_model.Configs.passive ~nodes ()) ~samples:15;
  conformance_check
    (Tta_model.Configs.full_shifting ~nodes
       ~forbid_cold_start_duplication:true ())
    ~samples:15

(* Protocol-mechanism ablations. The measured outcome is itself a
   finding: removing the listen-phase rules (big bang, the
   hold-on-cold-start rule, the staggered timeouts) does NOT break the
   freeze-safety invariant — the timeout reset on observed traffic
   alone prevents a second cold-start epoch from forming while one is
   active, so those rules protect start-up robustness and liveness
   rather than safety. The one safety-relevant mechanism is the one the
   paper studies: the prohibition on full-frame buffering. The big-bang
   rule does shorten the attacker's job when absent: integrating on the
   first cold-start frame lets the replay strike two slots earlier. *)
let test_protocol_ablations_preserve_safety () =
  List.iter
    (fun variant ->
      let cfg =
        Tta_model.Configs.make ~nodes
          ~variant Guardian.Feature_set.Passive
      in
      match tta_check ~engine:Tta_model.Engine.Bdd_reach ~max_depth:80 cfg with
      | Tta_model.Engine.Holds _ -> ()
      | Tta_model.Engine.Violated { trace; model } ->
          Alcotest.failf "%s: unexpectedly violated:\n%s"
            (Tta_model.Configs.name cfg)
            (Trace.to_string model trace)
      | Tta_model.Engine.Unknown { detail } ->
          Alcotest.failf "%s: %s" (Tta_model.Configs.name cfg) detail)
    [
      Tta_model.Configs.No_big_bang;
      Tta_model.Configs.No_listen_hold;
      Tta_model.Configs.No_timeout_stagger;
    ]

let test_no_big_bang_shortens_attack () =
  let trace_len variant =
    let cfg =
      Tta_model.Configs.make ~nodes ~oos_budget:1 ~variant
        Guardian.Feature_set.Full_shifting
    in
    match tta_check ~engine:Tta_model.Engine.Bdd_reach ~max_depth:20 cfg with
    | Tta_model.Engine.Violated { trace; _ } -> Array.length trace
    | _ -> Alcotest.fail "expected a violation"
  in
  let standard = trace_len Tta_model.Configs.Standard in
  let no_bb = trace_len Tta_model.Configs.No_big_bang in
  Alcotest.(check int) "standard minimal trace" 12 standard;
  Alcotest.(check bool) "first-frame integration is strictly easier to attack"
    true (no_bb < standard)

(* CTL probes over the passive model. Two notable shapes:

   - [AG (integrated -> EF active)] holds: an integrated node can
     always work its way back to active — the protocol has no
     integrated dead ends besides the freezes the safety property
     tracks.
   - [AG EF some_active] FAILS, and legitimately so: two nodes whose
     listen timeouts expire in the same silent slot enter cold start
     simultaneously and collide forever (each sees only noise, so the
     start-up check [agreed <= 1 && failed = 0] re-arms both every
     round). This cold-start contention livelock is a known property of
     the abstraction — it is precisely why the big-bang rule prevents
     anyone from *integrating* during contention — and it lies outside
     the paper's safety property, which is about freezes, not
     liveness. *)
let test_ctl_recoverability () =
  let cfg = Tta_model.Configs.passive ~nodes () in
  let enc = enc_of cfg in
  let reach = Reach.reachable_set enc in
  let active = Tta_model.Props.some_node_active ~nodes in
  let integrated = Tta_model.Props.some_node_integrated ~nodes in
  let check f = (Ctl.check ~reachable:reach enc f).Ctl.holds in
  Alcotest.(check bool) "integrated nodes can always re-activate" true
    (check Ctl.(AG (Imp (atom integrated, EF (atom active)))));
  Alcotest.(check bool) "cold-start contention livelock exists" false
    (check Ctl.(AG (EF (atom active))));
  (* From the initial state, full activity is reachable. *)
  Alcotest.(check bool) "all-active reachable initially" true
    (Ctl.check ~reachable:reach enc
       Ctl.(EF (atom (Tta_model.Props.all_nodes_active ~nodes))))
      .Ctl.holds_initially

let test_cold_start_reachable () =
  let cfg = Tta_model.Configs.passive ~nodes () in
  match
    Tta_model.Engine.witness ~max_depth:10 cfg
      (Tta_model.Props.node_in_state ~node:1 "cold_start")
  with
  | Some _ -> ()
  | None -> Alcotest.fail "cold start unreachable: broken model"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tta_model"
    [
      ( "structure",
        [
          Alcotest.test_case "construction" `Quick test_construction_all_configs;
          Alcotest.test_case "variable inventory" `Quick test_variable_inventory;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "unique initial state" `Quick
            test_initial_state_unique;
          Alcotest.test_case "deadlock freedom" `Quick test_deadlock_freedom;
        ] );
      ( "verification results",
        [
          Alcotest.test_case "safe configurations proved" `Quick
            test_safe_configurations_proved;
          Alcotest.test_case "full shifting violated; engines agree" `Quick
            test_full_shifting_violated_and_traces_agree;
          Alcotest.test_case "section 5 work pinned at 3 nodes" `Quick
            test_section5_work_pinned;
          Alcotest.test_case "compile pinned at 2 and 3 nodes" `Quick
            test_compile_pinned;
          Alcotest.test_case "shared sub-terms compile once, alike" `Quick
            test_shared_terms_compile_alike;
          Alcotest.test_case "two domains compile one model" `Quick
            test_concurrent_compile;
          Alcotest.test_case "counterexample semantics" `Quick
            test_counterexample_semantics;
          Alcotest.test_case "cold-start duplication prohibited" `Quick
            test_forbid_cold_start_duplication;
          Alcotest.test_case "unlimited budget" `Quick
            test_unlimited_budget_also_violated;
          Alcotest.test_case "E9 invariant check E1-E5" `Quick
            test_induction_on_tta;
          Alcotest.test_case "smv export" `Quick test_smv_export_of_tta;
          Alcotest.test_case "counterexample enumeration" `Quick
            test_enumerate_counterexamples;
          Alcotest.test_case "executable twin conformance" `Quick
            test_exec_conformance;
          Alcotest.test_case "ablations preserve safety" `Quick
            test_protocol_ablations_preserve_safety;
          Alcotest.test_case "no-big-bang shortens the attack" `Quick
            test_no_big_bang_shortens_attack;
        ] );
      ( "probes",
        [
          Alcotest.test_case "integration reachable" `Quick
            test_integration_reachable;
          Alcotest.test_case "full activity reachable" `Quick
            test_full_activity_reachable;
          Alcotest.test_case "cold start reachable" `Quick
            test_cold_start_reachable;
          Alcotest.test_case "ctl recoverability" `Quick
            test_ctl_recoverability;
        ] );
    ]
