(* Tests for the symbolic model-checking kernel: expression evaluation,
   BDD encoding vs concrete evaluation, and the three engines (BDD
   reachability, SAT BMC, explicit BFS) cross-checked on small models
   with known answers. *)

open Symkit

let v_int n = Expr.Int n
let v_sym s = Expr.Sym s

(* --- A 3-bit counter that wraps: bad = (c = 5) reachable in 5 steps. *)
let counter_model =
  let open Expr in
  let open Expr.Syntax in
  Model.make ~name:"counter"
    ~vars:[ ("c", Model.Range (0, 7)) ]
    ~init:[ cur "c" == int 0 ]
    ~trans:[ nxt "c" == ite (cur "c" == int 7) (int 0) (cur "c" + int 1) ]

(* --- A counter that saturates at 3: bad = (c = 5) unreachable. *)
let saturating_model =
  let open Expr in
  let open Expr.Syntax in
  Model.make ~name:"saturating"
    ~vars:[ ("c", Model.Range (0, 7)) ]
    ~init:[ cur "c" == int 0 ]
    ~trans:
      [ nxt "c" == ite (cur "c" < int 3) (cur "c" + int 1) (cur "c") ]

(* --- Two-process mutual exclusion with a shared turn variable
   (Peterson-like, simplified to a strict alternation token): the bad
   state "both critical" is unreachable. *)
let mutex_model =
  let open Expr in
  let open Expr.Syntax in
  let proc p other =
    let st = p ^ "_st" in
    [
      (* idle -> trying (nondeterministic), trying -> critical if token,
         critical -> idle passing the token. *)
      cur st == sym "idle"
      ==> member (nxt st) [ v_sym "idle"; v_sym "trying" ];
      cur st == sym "trying"
      ==> ite
            (cur "turn" == sym p)
            (nxt st == sym "critical")
            (nxt st == sym "trying");
      cur st == sym "critical" ==> (nxt st == sym "idle");
      (* Token passes when leaving the critical section. *)
      cur st == sym "critical" ==> (nxt "turn" == sym other);
      ((cur st != sym "critical") && (cur (other ^ "_st") != sym "critical"))
      ==> (nxt "turn" == cur "turn");
    ]
  in
  Model.make ~name:"mutex"
    ~vars:
      [
        ("p_st", Model.Enum [ "idle"; "trying"; "critical" ]);
        ("q_st", Model.Enum [ "idle"; "trying"; "critical" ]);
        ("turn", Model.Enum [ "p"; "q" ]);
      ]
    ~init:
      [ cur "p_st" == sym "idle"; cur "q_st" == sym "idle";
        cur "turn" == sym "p" ]
    ~trans:(proc "p" "q" @ proc "q" "p")

let both_critical =
  let open Expr in
  let open Expr.Syntax in
  (cur "p_st" == sym "critical") && (cur "q_st" == sym "critical")

(* A reachable condition in the mutex model, to exercise counterexample
   extraction on an interesting model. *)
let q_critical =
  let open Expr in
  let open Expr.Syntax in
  cur "q_st" == sym "critical"

let c_is n =
  let open Expr in
  let open Expr.Syntax in
  cur "c" == int n

(* ------------------------------------------------------------------ *)

let check_reach model bad =
  let enc = Enc.create (Bdd.create_manager ()) model in
  Reach.check enc ~bad

let check_bmc ?(max_depth = 20) model bad =
  let enc = Enc.create (Bdd.create_manager ()) model in
  Bmc.check ~max_depth enc ~bad

let check_explicit ?(max_depth = 50) model bad =
  let all = Model.enumerate_states model in
  Explicit.search ~max_depth
    ~initial:(Model.initial_states_brute model)
    ~next:(Model.successors_brute model all)
    ~bad:(fun s -> Model.eval_pred model bad s)
    ()

let expect_trace name model trace expected_len =
  Alcotest.(check int) (name ^ " length") expected_len (Array.length trace);
  match Trace.validate model trace with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid trace: %s" name e

let test_counter_reachable () =
  (match check_reach counter_model (c_is 5) with
  | Reach.Unsafe (trace, _) ->
      expect_trace "reach" counter_model trace 6;
      Alcotest.(check bool) "last state is bad" true
        (Model.eval_pred counter_model (c_is 5) trace.(5))
  | _ -> Alcotest.fail "reach: expected Unsafe");
  (match check_bmc counter_model (c_is 5) with
  | Bmc.Counterexample trace -> expect_trace "bmc" counter_model trace 6
  | _ -> Alcotest.fail "bmc: expected counterexample");
  match check_explicit counter_model (c_is 5) with
  | Explicit.Violation trace ->
      Alcotest.(check int) "explicit length" 6 (List.length trace)
  | _ -> Alcotest.fail "explicit: expected violation"

let test_counter_wraps () =
  (* c = 0 is re-reachable after wrapping; the set of reachable states
     is the full range. *)
  match check_reach counter_model (c_is 7) with
  | Reach.Unsafe (trace, stats) ->
      Alcotest.(check int) "length" 8 (Array.length trace);
      Alcotest.(check bool) "reachable counted" true
        (stats.Reach.reachable_states >= 7.0)
  | _ -> Alcotest.fail "expected Unsafe"

let test_saturating_safe () =
  (match check_reach saturating_model (c_is 5) with
  | Reach.Safe stats ->
      Alcotest.(check bool) "reachable = 4 states" true
        (int_of_float stats.Reach.reachable_states = 4)
  | _ -> Alcotest.fail "reach: expected Safe");
  (match check_bmc ~max_depth:10 saturating_model (c_is 5) with
  | Bmc.No_counterexample (Some d) -> Alcotest.(check int) "depth" 10 d
  | _ -> Alcotest.fail "bmc: expected no counterexample");
  match check_explicit saturating_model (c_is 5) with
  | Explicit.Exhausted { states; _ } ->
      Alcotest.(check int) "explicit states" 4 states
  | _ -> Alcotest.fail "explicit: expected exhausted"

let test_mutex_safe () =
  (match check_reach mutex_model both_critical with
  | Reach.Safe _ -> ()
  | Reach.Unsafe (trace, _) ->
      Alcotest.failf "reach: spurious violation:\n%s"
        (Trace.to_string mutex_model trace)
  | Reach.Depth_exhausted _ -> Alcotest.fail "reach: exhausted");
  (match check_bmc ~max_depth:12 mutex_model both_critical with
  | Bmc.No_counterexample _ -> ()
  | Bmc.Counterexample trace ->
      Alcotest.failf "bmc: spurious violation:\n%s"
        (Trace.to_string mutex_model trace));
  match check_explicit mutex_model both_critical with
  | Explicit.Exhausted _ -> ()
  | _ -> Alcotest.fail "explicit: expected exhausted"

let test_mutex_progress () =
  (* q can reach its critical section; all engines agree on the minimal
     number of steps. *)
  let reach_len =
    match check_reach mutex_model q_critical with
    | Reach.Unsafe (trace, _) ->
        expect_trace "reach" mutex_model trace (Array.length trace);
        Array.length trace
    | _ -> Alcotest.fail "reach: expected Unsafe"
  in
  let bmc_len =
    match check_bmc mutex_model q_critical with
    | Bmc.Counterexample trace ->
        expect_trace "bmc" mutex_model trace (Array.length trace);
        Array.length trace
    | _ -> Alcotest.fail "bmc: expected counterexample"
  in
  let explicit_len =
    match check_explicit mutex_model q_critical with
    | Explicit.Violation trace -> List.length trace
    | _ -> Alcotest.fail "explicit: expected violation"
  in
  Alcotest.(check int) "reach = bmc" reach_len bmc_len;
  Alcotest.(check int) "reach = explicit" reach_len explicit_len

(* ------------------------------------------------------------------ *)
(* Image-computation strategies: the partitioned image/preimage (early
   quantification over Enc.schedule's clusters) must equal the
   monolithic relprod at every iteration of the BFS fixpoint, on every
   seed model — and Reach.check must produce the same verdict, trace
   length and iteration count under every tuning. *)

let seed_models =
  [
    ("counter", counter_model);
    ("saturating", saturating_model);
    ("mutex", mutex_model);
  ]

let test_partitioned_image_agreement () =
  List.iter
    (fun (name, model) ->
      let enc = Enc.create (Bdd.create_manager ()) model in
      let m = Enc.mgr enc in
      let part = Reach.default_tuning in
      let mono = Reach.monolithic_tuning in
      let rec go i reach frontier =
        let img = Reach.image ~tuning:part enc frontier in
        Alcotest.(check bool)
          (Printf.sprintf "%s: image agrees at iteration %d" name i)
          true
          (Bdd.equal img (Reach.image ~tuning:mono enc frontier));
        Alcotest.(check bool)
          (Printf.sprintf "%s: preimage agrees at iteration %d" name i)
          true
          (Bdd.equal
             (Reach.preimage ~tuning:part enc frontier)
             (Reach.preimage ~tuning:mono enc frontier));
        let fresh = Bdd.dand m img (Bdd.dnot m reach) in
        if not (Bdd.is_zero fresh) then
          go (i + 1) (Bdd.dor m reach fresh) fresh
      in
      let init = Enc.init_bdd enc in
      go 0 init init)
    seed_models

let test_tuning_verdict_agreement () =
  (* The low-watermark tuning forces node-GC sweeps inside the fixpoint
     on these small models; verdicts must still be identical. *)
  let tunings =
    [
      ("monolithic", Reach.monolithic_tuning);
      ("partitioned", Reach.default_tuning);
      ("no-restrict", { Reach.default_tuning with Reach.use_restrict = false });
      ("gc-200", { Reach.default_tuning with Reach.gc_watermark = 200 });
    ]
  in
  List.iter
    (fun (mname, model, bad) ->
      let outcome (_, tuning) =
        let enc = Enc.create (Bdd.create_manager ()) model in
        match Reach.check ~tuning enc ~bad with
        | Reach.Safe s -> ("safe", 0, s.Reach.iterations)
        | Reach.Unsafe (t, s) -> ("unsafe", Array.length t, s.Reach.iterations)
        | Reach.Depth_exhausted s -> ("exhausted", 0, s.Reach.iterations)
      in
      let reference = outcome (List.hd tunings) in
      List.iter
        (fun t ->
          let v, len, iters = outcome t in
          let rv, rlen, riters = reference in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s verdict" mname (fst t))
            rv v;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s trace length" mname (fst t))
            rlen len;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s iterations" mname (fst t))
            riters iters)
        (List.tl tunings))
    [
      ("counter", counter_model, c_is 5);
      ("saturating", saturating_model, c_is 5);
      ("mutex-safe", mutex_model, both_critical);
      ("mutex-progress", mutex_model, q_critical);
    ]

let test_reachable_set_cancel_and_obs () =
  (* Immediate cancellation returns the initial states (the trivial
     lower bound) — and the iteration counter lands in the track. *)
  let col = Obs.Collector.create () in
  let t = Obs.Collector.track col "reach" in
  let enc = Enc.create (Bdd.create_manager ()) counter_model in
  let cancelled =
    Reach.reachable_set ~cancel:(fun () -> true) ~obs:t enc
  in
  Alcotest.(check bool) "lower bound = init" true
    (Bdd.equal cancelled (Enc.init_bdd enc));
  Alcotest.(check (option int)) "no iterations recorded" (Some 0)
    (List.assoc_opt "reach.iterations" (Obs.counters t));
  (* A budget of two polls gives a strict lower bound strictly above
     the initial set (the counter model grows every step). *)
  let polls = ref 0 in
  let partial =
    Reach.reachable_set
      ~cancel:(fun () ->
        incr polls;
        !polls > 2)
      enc
  in
  let full = Reach.reachable_set ~obs:t enc in
  let m = Enc.mgr enc in
  let strictly_below a b =
    (not (Bdd.equal a b)) && Bdd.is_zero (Bdd.dand m a (Bdd.dnot m b))
  in
  Alcotest.(check bool) "partial above init" true
    (strictly_below (Enc.init_bdd enc) partial);
  Alcotest.(check bool) "partial below full" true (strictly_below partial full);
  Alcotest.(check (option int)) "full run counted its iterations" (Some 8)
    (List.assoc_opt "reach.iterations" (Obs.counters t))

(* ------------------------------------------------------------------ *)
(* Encoder correctness: symbolic predicate evaluation agrees with the
   concrete evaluator on every state, for randomly generated
   predicates over a small mixed-domain model. *)

let pred_test_model =
  Model.make ~name:"pred-space"
    ~vars:
      [
        ("a", Model.Range (0, 4));
        ("b", Model.Range (1, 3));
        ("e", Model.Enum [ "red"; "green"; "blue" ]);
        ("f", Model.Bool);
      ]
    ~init:[] ~trans:[]

let random_pred_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Expr.int n) (int_range (-1) 5);
        oneofl
          [ Expr.cur "a"; Expr.cur "b"; Expr.sym "red"; Expr.sym "green" ];
        return (Expr.cur "e");
      ]
  in
  let bool_leaf =
    oneof
      [
        return (Expr.cur "f");
        return Expr.tt;
        return Expr.ff;
        map2 (fun a b -> Expr.Eq (a, b)) leaf leaf;
        map2 (fun a b -> Expr.Lt (a, b)) leaf leaf;
        map
          (fun v -> Expr.member (Expr.cur "e") [ v_sym "red"; v ])
          (oneofl [ v_sym "green"; v_sym "blue" ]);
        map2
          (fun x y ->
            Expr.Eq (Expr.Add (Expr.cur "a", Expr.int x),
                     Expr.Add (Expr.cur "b", Expr.int y)))
          (int_range 0 3) (int_range 0 3);
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then bool_leaf
      else
        frequency
          [
            (2, bool_leaf);
            (1, map (fun a -> Expr.Not a) (self (n - 1)));
            (2, map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Expr.Imp (a, b)) (self (n / 2)) (self (n / 2)));
            ( 1,
              map3
                (fun a b c -> Expr.Ite (a, b, c))
                (self (n / 3)) (self (n / 3)) (self (n / 3)) );
          ])

let prop_pred_agrees =
  QCheck.Test.make ~name:"symbolic predicate = concrete evaluation"
    ~count:200
    (QCheck.make ~print:Expr.to_string random_pred_gen)
    (fun e ->
      (* Ill-typed expressions (e.g. comparing a sym with <) may be
         generated; they must fail identically in both evaluators. *)
      let model = pred_test_model in
      let enc = Enc.create (Bdd.create_manager ()) model in
      match Enc.pred enc e with
      | exception Expr.Type_error _ -> true
      | d ->
          List.for_all
            (fun s ->
              let concrete =
                try Some (Model.eval_pred model e s)
                with Expr.Type_error _ -> None
              in
              match concrete with
              | None -> true
              | Some b ->
                  let cube = Enc.state_cube enc s in
                  let inter = Bdd.dand (Enc.mgr enc) cube d in
                  Bdd.is_zero inter <> b)
            (Model.enumerate_states model))

(* The same agreement over state PAIRS, for predicates mentioning
   primed variables (i.e. transition constraints — the encoder path the
   whole model checker stands on). *)
let trans_pred_of_size =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Expr.int n) (int_range (-1) 5);
        oneofl
          [ Expr.cur "a"; Expr.cur "b"; Expr.nxt "a"; Expr.nxt "b";
            Expr.cur "e"; Expr.nxt "e" ];
      ]
  in
  let bool_leaf =
    oneof
      [
        oneofl [ Expr.cur "f"; Expr.nxt "f" ];
        map2 (fun a b -> Expr.Eq (a, b)) leaf leaf;
        map2 (fun a b -> Expr.Lt (a, b)) leaf leaf;
        map2
          (fun x b ->
            Expr.Eq (Expr.Add (Expr.cur "a", Expr.int x),
                     if b then Expr.nxt "a" else Expr.nxt "b"))
          (int_range 0 3) bool;
      ]
  in
  fix (fun self n ->
      if n <= 0 then bool_leaf
      else
        frequency
          [
            (2, bool_leaf);
            (1, map (fun a -> Expr.Not a) (self (n - 1)));
            (2, map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Expr.Iff (a, b)) (self (n / 2)) (self (n / 2)));
          ])

let random_trans_pred_gen = QCheck.Gen.sized trans_pred_of_size

let prop_trans_pred_agrees =
  QCheck.Test.make ~name:"symbolic transition predicate = concrete evaluation"
    ~count:60
    (QCheck.make ~print:Expr.to_string random_trans_pred_gen)
    (fun e ->
      let model = pred_test_model in
      let enc = Enc.create (Bdd.create_manager ()) model in
      match Enc.pred enc e with
      | exception Expr.Type_error _ -> true
      | d ->
          let states = Model.enumerate_states model in
          List.for_all
            (fun s ->
              let cube_s = Enc.state_cube enc s in
              List.for_all
                (fun s' ->
                  let concrete =
                    try Some (Model.eval_trans model e s s')
                    with Expr.Type_error _ -> None
                  in
                  match concrete with
                  | None -> true
                  | Some b ->
                      (* Pair cube: current bits from s, primed bits
                         from s' (via the renaming). *)
                      let cube' =
                        Enc.rename_cur_to_nxt enc (Enc.state_cube enc s')
                      in
                      let pair =
                        Bdd.dand (Enc.mgr enc) cube_s cube'
                      in
                      Bdd.is_zero (Bdd.dand (Enc.mgr enc) pair d) <> b)
                states)
            states)

let prop_state_roundtrip =
  QCheck.Test.make ~name:"state_cube / decode_state roundtrip" ~count:100
    (QCheck.make
       ~print:(fun _ -> "<state>")
       QCheck.Gen.(
         let model = pred_test_model in
         let states = Array.of_list (Model.enumerate_states model) in
         map (fun i -> states.(i)) (int_bound (Array.length states - 1))))
    (fun s ->
      let enc = Enc.create (Bdd.create_manager ()) pred_test_model in
      let s' = Enc.decode_state enc (Enc.state_cube enc s) in
      s = s')

(* ------------------------------------------------------------------ *)
(* Expression evaluator unit tests. *)

let test_eval_basic () =
  let lookup_cur = function
    | "x" -> v_int 3
    | "m" -> v_sym "on"
    | v -> Alcotest.failf "unexpected var %s" v
  in
  let lookup_nxt = function
    | "x" -> v_int 4
    | v -> Alcotest.failf "unexpected primed var %s" v
  in
  let ev e = Expr.eval ~lookup_cur ~lookup_nxt e in
  let open Expr in
  let open Expr.Syntax in
  Alcotest.(check bool) "x + 1 = x'" true
    (ev (cur "x" + int 1 == nxt "x") = Bool true);
  Alcotest.(check bool) "x < 2 is false" true
    (ev (cur "x" < int 2) = Bool false);
  Alcotest.(check bool) "member" true
    (ev (member (cur "m") [ v_sym "off"; v_sym "on" ]) = Bool true);
  Alcotest.(check bool) "ite" true
    (ev (ite (cur "x" == int 3) (sym "yes") (sym "no")) = Sym "yes");
  Alcotest.(check bool) "x - 5 negative" true (ev (cur "x" - int 5) = Int (-2))

let test_eval_type_errors () =
  let lookup_cur = function "x" -> v_int 1 | _ -> v_sym "s" in
  let lookup_nxt _ = v_int 0 in
  let open Expr in
  let open Expr.Syntax in
  Alcotest.check_raises "sym + int" (Expr.Type_error "dummy") (fun () ->
      try ignore (eval ~lookup_cur ~lookup_nxt (cur "y" + int 1)) with
      | Expr.Type_error _ -> raise (Expr.Type_error "dummy"));
  Alcotest.check_raises "int as bool" (Expr.Type_error "dummy") (fun () ->
      try ignore (eval ~lookup_cur ~lookup_nxt (cur "x" && tt)) with
      | Expr.Type_error _ -> raise (Expr.Type_error "dummy"))

let test_model_validation () =
  let open Expr in
  let open Expr.Syntax in
  Alcotest.check_raises "undeclared var"
    (Invalid_argument "Model bad: undeclared variable y in (y = 0)")
    (fun () ->
      ignore
        (Model.make ~name:"bad"
           ~vars:[ ("x", Model.Range (0, 1)) ]
           ~init:[ cur "y" == int 0 ]
           ~trans:[]));
  Alcotest.check_raises "primed in init"
    (Invalid_argument "Model bad2: primed variable in init constraint (x' = 0)")
    (fun () ->
      ignore
        (Model.make ~name:"bad2"
           ~vars:[ ("x", Model.Range (0, 1)) ]
           ~init:[ nxt "x" == int 0 ]
           ~trans:[]))

let test_trace_validate_rejects () =
  let bad_trace = [| [| v_int 3 |]; [| v_int 9 |] |] in
  match Trace.validate counter_model bad_trace with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid trace"

(* ------------------------------------------------------------------ *)
(* One-step induction of a supplied invariant. *)

let induction model ~inv ~bad =
  let enc = Enc.create (Bdd.create_manager ()) model in
  Induction.check enc ~inv:(inv enc) ~bad

let fixpoint enc = Reach.reachable_set enc
let pred e enc = Enc.pred enc e
let expect_induction name expected got =
  Alcotest.(check string) name
    (Induction.result_to_string expected)
    (Induction.result_to_string got)

let test_induction_proves_saturating () =
  expect_induction "fixpoint {0..3}" Induction.Inductive
    (induction saturating_model ~inv:fixpoint ~bad:(c_is 5))

let test_induction_refutes_counter () =
  (* The wrapping counter's fixpoint is every value, 5 included. *)
  expect_induction "fixpoint holds c = 5" (Induction.Fails Induction.Safety)
    (induction counter_model ~inv:fixpoint ~bad:(c_is 5))

let test_induction_proves_mutex () =
  expect_induction "mutex fixpoint" Induction.Inductive
    (induction mutex_model ~inv:fixpoint ~bad:both_critical)

let test_induction_tautology_at_k0 () =
  (* A property true of every valid state is inductive unstrengthened:
     no state, let alone a transition, can break it. *)
  let open Expr in
  let open Expr.Syntax in
  let bad = cur "c" > int 7 in
  expect_induction "not bad" Induction.Inductive
    (induction saturating_model ~inv:(pred (not_ bad)) ~bad)

(* Each invariant below fails exactly one obligation on the saturating
   counter (0 -> 1 -> 2 -> 3 -> 3; 4..7 are fixed points), so the
   verdict names the obligation, not just the first in the order. *)
let test_induction_fails_initiation () =
  (* {3}: safe and closed, but excludes the initial c = 0. *)
  expect_induction "c = 3" (Induction.Fails Induction.Initiation)
    (induction saturating_model ~inv:(pred (c_is 3)) ~bad:(c_is 5))

let test_induction_fails_safety () =
  (* {0..3, 5}: initial and closed, but holds the bad c = 5. *)
  let open Expr in
  let open Expr.Syntax in
  expect_induction "c <= 3 or c = 5" (Induction.Fails Induction.Safety)
    (induction saturating_model
       ~inv:(pred ((cur "c" <= int 3) || c_is 5))
       ~bad:(c_is 5))

let test_induction_fails_consecution () =
  (* {0..2}: initial and safe, but 2 steps to 3. *)
  let open Expr in
  let open Expr.Syntax in
  expect_induction "c <= 2" (Induction.Fails Induction.Consecution)
    (induction saturating_model ~inv:(pred (cur "c" <= int 2)) ~bad:(c_is 5))

(* One span per obligation discharged, in order, and none for those
   the check never reaches. *)
let test_induction_obligation_spans () =
  let spans inv =
    let col = Obs.Collector.create () in
    let obs = Obs.Collector.track col "induction" in
    let enc = Enc.create (Bdd.create_manager ()) saturating_model in
    ignore (Induction.check ~obs enc ~inv:(inv enc) ~bad:(c_is 5));
    match Json.member "traceEvents" (Obs.Collector.chrome_trace col) with
    | Some (Json.List events) ->
        List.filter_map
          (fun e ->
            match (Json.member "ph" e, Json.member "name" e) with
            | Some (Json.String "X"), Some (Json.String name) -> Some name
            | _ -> None)
          events
    | _ -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check (list string))
    "inductive: all three"
    [ "induction.initiation"; "induction.safety"; "induction.consecution" ]
    (spans fixpoint);
  Alcotest.(check (list string))
    "fails initiation: one" [ "induction.initiation" ]
    (spans (pred (c_is 3)))

(* ------------------------------------------------------------------ *)
(* CTL. *)

let ctl_check model f =
  let enc = Enc.create (Bdd.create_manager ()) model in
  (Ctl.check enc f).Ctl.holds

let test_ctl_counter () =
  (* The wrapping counter visits every value from every state. *)
  Alcotest.(check bool) "AG EF c=0" true
    (ctl_check counter_model Ctl.(AG (EF (atom (c_is 0)))));
  Alcotest.(check bool) "EF c=5" true
    (ctl_check counter_model Ctl.(EF (atom (c_is 5))));
  Alcotest.(check bool) "AF c=5" true
    (ctl_check counter_model Ctl.(AF (atom (c_is 5))));
  (* Deterministic: AX agrees with the successor. *)
  Alcotest.(check bool) "AX from init" true
    (let enc = Enc.create (Bdd.create_manager ()) counter_model in
     (Ctl.check enc Ctl.(Imp (atom (c_is 0), AX (atom (c_is 1)))))
       .Ctl.holds)

let test_ctl_saturating () =
  Alcotest.(check bool) "AG c<=3" true
    (ctl_check saturating_model
       Ctl.(AG (atom Expr.(Syntax.( <= ) (cur "c") (int 3)))));
  Alcotest.(check bool) "EF c=5 fails" false
    (ctl_check saturating_model Ctl.(EF (atom (c_is 5))));
  (* The saturated state is a sink: AG (c=3 -> AX c=3). *)
  Alcotest.(check bool) "saturation is absorbing" true
    (ctl_check saturating_model
       Ctl.(AG (Imp (atom (c_is 3), AX (atom (c_is 3))))))

let test_ctl_mutex () =
  let p_critical =
    let open Expr in
    let open Expr.Syntax in
    cur "p_st" == sym "critical"
  in
  Alcotest.(check bool) "AG not both critical" true
    (ctl_check mutex_model Ctl.(AG (Not (atom both_critical))));
  (* Recoverability: from every reachable state, p can still reach its
     critical section. *)
  Alcotest.(check bool) "AG EF p critical" true
    (ctl_check mutex_model Ctl.(AG (EF (atom p_critical))));
  (* But it is not inevitable: p may idle forever. *)
  Alcotest.(check bool) "AF p critical fails" false
    (ctl_check mutex_model Ctl.(AF (atom p_critical)));
  (* E[not-critical U critical]: a path keeps p out until it enters. *)
  Alcotest.(check bool) "EU" true
    (ctl_check mutex_model Ctl.(EU (Not (atom p_critical), atom p_critical)))

let test_ctl_failing_state_is_reachable () =
  let enc = Enc.create (Bdd.create_manager ()) counter_model in
  (* A plain atom: the failing states are exactly the reachable states
     where it is false, so the witness must falsify it. *)
  let v = Ctl.check enc (Ctl.atom (c_is 0)) in
  Alcotest.(check bool) "fails" false v.Ctl.holds;
  (match v.Ctl.failing_state with
  | Some s ->
      Alcotest.(check bool) "witness falsifies the atom" true
        (not (Model.eval_pred counter_model (c_is 0) s))
  | None -> Alcotest.fail "expected a failing state");
  (* AG of the same atom also fails, but there the witness may be any
     reachable state (even c = 0 violates AG through its future). *)
  let v2 = Ctl.check enc Ctl.(AG (atom (c_is 0))) in
  Alcotest.(check bool) "AG fails too" false v2.Ctl.holds;
  Alcotest.(check bool) "AG has a witness" true (v2.Ctl.failing_state <> None)

(* ------------------------------------------------------------------ *)
(* SMV export. *)

let test_smv_export_shape () =
  let smv = Smv_export.to_string ~invarspec:both_critical mutex_model in
  let has needle =
    let n = String.length needle and m = String.length smv in
    let rec go i = i + n <= m && (String.sub smv i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (has "MODULE main");
  Alcotest.(check bool) "variables declared" true
    (has "p_st : {idle, trying, critical};");
  Alcotest.(check bool) "primed variables use next()" true (has "next(");
  Alcotest.(check bool) "property emitted" true (has "INVARSPEC");
  Alcotest.(check bool) "init sections" true (has "INIT");
  Alcotest.(check bool) "trans sections" true (has "TRANS")

(* ------------------------------------------------------------------ *)
(* Differential engine oracle: random models, the BDD and SAT engines,
   and an independent answer to compare them with.

   A case is a small model whose constraints come from
   [trans_pred_of_size]: integer ranges a, b, e and a boolean f, as far
   as the constraints mention them, plus unconstrained enumerations
   (g, h) to make two to five variables; every domain has one to five
   values. One generated sub-term is shared physically by several
   transition constraints, since [Enc] memoizes on physical identity.
   The oracle is a breadth-first search over the enumerated state
   space, written here and sharing nothing with [Explicit] or
   [Model]'s brute-force enumeration: it gives the shortest violation
   depth, or none. *)

let rec unprime = function
  | Expr.Nxt v -> Expr.Cur v
  | (Expr.Const _ | Expr.Cur _) as e -> e
  | Expr.Not a -> Expr.Not (unprime a)
  | Expr.And (a, b) -> Expr.And (unprime a, unprime b)
  | Expr.Or (a, b) -> Expr.Or (unprime a, unprime b)
  | Expr.Imp (a, b) -> Expr.Imp (unprime a, unprime b)
  | Expr.Iff (a, b) -> Expr.Iff (unprime a, unprime b)
  | Expr.Eq (a, b) -> Expr.Eq (unprime a, unprime b)
  | Expr.Lt (a, b) -> Expr.Lt (unprime a, unprime b)
  | Expr.Add (a, b) -> Expr.Add (unprime a, unprime b)
  | Expr.Sub (a, b) -> Expr.Sub (unprime a, unprime b)
  | Expr.Ite (a, b, c) -> Expr.Ite (unprime a, unprime b, unprime c)
  | Expr.Member (a, vs) -> Expr.Member (unprime a, vs)

(* At most this many states, so the oracle's pair scan stays cheap. *)
let oracle_max_states = 200

let oracle_case_gen =
  let open QCheck.Gen in
  let pred = int_range 0 6 >>= trans_pred_of_size in
  let small = int_range 0 2 >>= trans_pred_of_size in
  let domain name size lo =
    match name with
    | "f" -> Model.Bool
    | "g" | "h" -> Model.Enum (List.init size (Printf.sprintf "%s%d" name))
    | _ -> Model.Range (lo, lo + size - 1)
  in
  list_size (int_bound 1) small >>= fun init ->
  list_size (int_range 1 3) pred >>= fun trans ->
  small >>= fun bad ->
  pred >>= fun sh ->
  int_bound 2 >>= fun sharing ->
  int_bound 2 >>= fun counting ->
  int_range 1 2 >>= fun stride ->
  int_bound 2 >>= fun aiming ->
  int_bound 4 >>= fun target ->
  int_bound 3 >>= fun padding ->
  list_repeat 6 (pair (int_range 1 5) (int_range (-1) 1)) >>= fun dims ->
  (* Random relations mostly reach everything in one step or nothing
     at all. A counter on [a] (from its lowest value, stepping by
     [stride]), a bad state that names a value of [a], and random
     constraints weakened by a disjunct stretch the runs. *)
  let counter =
    Expr.Eq (Expr.Add (Expr.cur "a", Expr.int stride), Expr.nxt "a")
  in
  (* [a] sorts first among the names, so it gets the first domain. *)
  let lo = snd (List.hd dims) in
  let trans =
    List.mapi
      (fun i t ->
        let t =
          match (sharing, i mod 2) with
          | 0, _ -> t
          | _, 0 -> Expr.Or (sh, t)
          | _ -> Expr.Iff (t, sh)
        in
        (* With the counter, each random constraint binds at one value
           of [a] only. *)
        if counting = 0 then t
        else Expr.Imp (Expr.Eq (Expr.cur "a", Expr.int (lo + i + counting)), t))
      trans
  in
  let trans = if counting > 0 then counter :: trans else trans in
  let init =
    if counting > 0 then [ Expr.Eq (Expr.cur "a", Expr.int lo) ]
    else List.map unprime init
  in
  let at_target = Expr.Eq (Expr.cur "a", Expr.int (lo + target)) in
  let bad =
    match aiming with
    | 0 -> unprime bad
    | 1 -> at_target
    | _ -> Expr.And (at_target, Expr.Or (unprime sh, unprime bad))
  in
  let mentioned =
    List.sort_uniq compare
      (List.concat_map
         (fun e ->
           let c, n = Expr.vars e in
           c @ n)
         (bad :: (init @ trans)))
  in
  let m = List.length mentioned in
  let extra = max (min padding (5 - m)) (2 - m) in
  let names = mentioned @ List.filteri (fun i _ -> i < extra) [ "g"; "h" ] in
  (* A counter gets five values to climb through. Shrink the largest
     other domain until the space is small enough. *)
  let sizes = Array.of_list (List.map fst dims) in
  if counting > 0 then sizes.(0) <- 5;
  let space () =
    List.fold_left ( * ) 1
      (List.mapi (fun i n -> if n = "f" then 2 else sizes.(i)) names)
  in
  while space () > oracle_max_states do
    let big = ref (-1) in
    List.iteri
      (fun i n ->
        if
          n <> "f"
          && (i > 0 || counting = 0)
          && (!big < 0 || sizes.(i) > sizes.(!big))
        then big := i)
      names;
    sizes.(!big) <- sizes.(!big) - 1
  done;
  let vars =
    List.mapi (fun i n -> (n, domain n sizes.(i) (snd (List.nth dims i)))) names
  in
  return (Model.make ~name:"random" ~vars ~init ~trans, bad)

let print_oracle_case ((m : Model.t), bad) =
  Printf.sprintf "vars: %s\ninit: %s\ntrans: %s\nbad: %s"
    (String.concat ", "
       (List.map
          (fun (n, d) -> Format.asprintf "%s %a" n Model.pp_domain d)
          m.Model.vars))
    (String.concat " ; " (List.map Expr.to_string m.Model.init))
    (String.concat " ; " (List.map Expr.to_string m.Model.trans))
    (Expr.to_string bad)

(* Breadth-first search from the initial states: the depth of the
   nearest bad state, if one is reachable. *)
let oracle_depth (m : Model.t) bad =
  let names = Array.of_list (List.map fst m.Model.vars) in
  let values = function
    | Model.Bool -> [ Expr.Bool false; Expr.Bool true ]
    | Model.Range (lo, hi) ->
        List.init (hi - lo + 1) (fun i -> Expr.Int (lo + i))
    | Model.Enum syms -> List.map (fun s -> Expr.Sym s) syms
  in
  let states =
    Array.of_list
      (List.fold_right
         (fun (_, d) tails ->
           List.concat_map
             (fun v -> List.map (fun t -> v :: t) tails)
             (values d))
         m.Model.vars [ [] ])
    |> Array.map Array.of_list
  in
  let lookup s name =
    let rec find i = if names.(i) = name then s.(i) else find (i + 1) in
    find 0
  in
  let holds ?(next = [||]) s e =
    Expr.eval ~lookup_cur:(lookup s) ~lookup_nxt:(lookup next) e
    = Expr.Bool true
  in
  let n = Array.length states in
  let dist = Array.make n (-1) in
  let frontier =
    List.filter
      (fun i -> List.for_all (holds states.(i)) m.Model.init)
      (List.init n Fun.id)
  in
  List.iter (fun i -> dist.(i) <- 0) frontier;
  let step i j = List.for_all (holds ~next:states.(j) states.(i)) m.Model.trans in
  let rec bfs depth frontier =
    if List.exists (fun i -> holds states.(i) bad) frontier then Some depth
    else if frontier = [] then None
    else begin
      let next = ref [] in
      List.iter
        (fun i ->
          for j = 0 to n - 1 do
            if dist.(j) < 0 && step i j then begin
              dist.(j) <- depth + 1;
              next := j :: !next
            end
          done)
        frontier;
      bfs (depth + 1) !next
    end
  in
  bfs 0 frontier

(* Ratchet bounds for the BMC session: up, then back down inside what
   it has seen, then past it. *)
let session_bounds = [ 1; 3; 2; 6; 4 ]
let bmc_bound = 6

let prop_engines_agree_with_oracle =
  QCheck.Test.make ~name:"BDD and BMC agree with a breadth-first oracle"
    ~count:300
    (QCheck.make ~print:print_oracle_case oracle_case_gen)
    (fun (model, bad) ->
      let fresh () = Enc.create (Bdd.create_manager ()) model in
      let expected = oracle_depth model bad in
      let valid name trace =
        match Trace.validate model trace with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_reportf "%s trace invalid: %s" name e
      in
      (* What [Bmc.check] must answer at bound [d]. *)
      let bmc_ok name d = function
        | Bmc.Counterexample trace -> (
            match expected with
            | Some k when k <= d ->
                Array.length trace = k + 1 && valid name trace
            | _ -> QCheck.Test.fail_reportf "%s: violated at bound %d" name d)
        | Bmc.No_counterexample (Some d') -> (
            d' = d
            &&
            match expected with
            | Some k when k <= d ->
                QCheck.Test.fail_reportf "%s: clean to %d, oracle depth %d" name
                  d k
            | _ -> true)
        | Bmc.No_counterexample None -> false
      in
      let reach_ok =
        match (Reach.check (fresh ()) ~bad, expected) with
        | Reach.Safe _, None -> true
        | Reach.Unsafe (trace, _), Some k ->
            Array.length trace = k + 1 && valid "reach" trace
        | _ -> QCheck.Test.fail_report "reach verdict differs from the oracle"
      in
      let session = Bmc.create (fresh ()) in
      reach_ok
      && bmc_ok "bmc" bmc_bound (Bmc.check ~max_depth:bmc_bound (fresh ()) ~bad)
      && List.for_all
           (fun d ->
             let kind = function
               | Bmc.Counterexample trace -> `Violated (Array.length trace)
               | Bmc.No_counterexample k -> `Clean k
             in
             let r = Bmc.check_session ~max_depth:d session ~bad in
             bmc_ok "session" d r
             && kind r = kind (Bmc.check ~max_depth:d (fresh ()) ~bad)
             &&
             match expected with
             | Some k -> Bmc.clean_depth session ~bad < k
             | None -> true)
           session_bounds)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pred_agrees;
      prop_trans_pred_agrees;
      prop_state_roundtrip;
      prop_engines_agree_with_oracle;
    ]

(* Search-identity pin for the SAT path on the paper's own model: one
   2-node full-shifting session ratcheted through five bounds. It is
   clean to 10 and finds the 12-state trace of a coupler freezing a
   healthy node at 12. The solver counters pin the whole search, so a
   solver change meant as a pure speed change must leave them as they
   are. *)
let test_bmc_session_pin () =
  let nodes = 2 in
  let model = Tta_model.Build.model (Tta_model.Configs.full_shifting ~nodes ()) in
  let bad = Tta_model.Props.integrated_node_frozen ~nodes in
  let b = Bmc.create (Enc.create (Bdd.create_manager ()) model) in
  let verdict d =
    match Bmc.check_session ~max_depth:d b ~bad with
    | Bmc.Counterexample trace -> Printf.sprintf "violated (%d)" (Array.length trace)
    | Bmc.No_counterexample (Some k) -> Printf.sprintf "clean to %d" k
    | Bmc.No_counterexample None -> "clean to none"
  in
  Alcotest.(check (list string))
    "verdicts"
    [ "clean to 4"; "clean to 6"; "clean to 8"; "clean to 10"; "violated (12)" ]
    (List.map verdict [ 4; 6; 8; 10; 12 ]);
  Alcotest.(check (list (pair string int)))
    "session counters"
    [
      ("sat.clauses", 67716);
      ("sat.conflicts", 5401);
      ("sat.decisions", 20497);
      ("sat.deleted", 1891);
      ("sat.learned", 5401);
      ("sat.propagations", 4233495);
      ("sat.restarts", 94);
      ("sat.vars", 19631);
    ]
    (Bmc.counters b)

(* Key pins. Every verdict-cache entry, consistent-hash ring slot and
   warm-session family is named by [Model.fingerprint], which digests
   the text [Expr.to_buffer] prints; a printer change would silently
   re-key them all. The digests below are the content-only ones (the
   model name is not hashed), so a cache directory written with them
   stays valid. *)
let test_expr_printer_goldens () =
  let open Expr in
  let cases =
    [
      (Nxt "x", "x'");
      (Not (Cur "a"), "!(a)");
      (Ite (Cur "c", Const (Int (-3)), Nxt "d"), "(c ? -3 : d')");
      ( Member (Cur "m", [ Sym "idle"; Int (-2); Bool true ]),
        "(m in {idle, -2, true})" );
      (Member (Nxt "m", []), "(m' in {})");
      (Const (Int (-7)), "-7");
      (Const (Sym "cold_start"), "cold_start");
      (Const (Bool false), "false");
      ( Imp
          ( And (Cur "a", Or (Cur "b", Not (Nxt "c"))),
            Iff (Eq (Cur "x", Add (Cur "y", int 1)), Lt (Sub (Nxt "z", int 2), Cur "w"))
          ),
        "((a & (b | !(c'))) -> ((x = (y + 1)) <-> ((z' - 2) < w)))" );
    ]
  in
  List.iter
    (fun (e, want) ->
      Alcotest.(check string) want want (to_string e);
      Alcotest.(check string) ("pp " ^ want) want (Format.asprintf "%a" pp e))
    cases;
  Alcotest.(check (list string))
    "value_to_string" [ "-12"; "listen"; "true" ]
    (List.map value_to_string [ Int (-12); Sym "listen"; Bool true ]);
  Alcotest.(check string) "pp_value" "-12"
    (Format.asprintf "%a" pp_value (Int (-12)));
  Alcotest.(check string) "pp_domain" "{a, b} 0..3 boolean"
    (Format.asprintf "%a %a %a" Model.pp_domain (Model.Enum [ "a"; "b" ])
       Model.pp_domain (Model.Range (0, 3)) Model.pp_domain Model.Bool)

let test_fingerprint_goldens () =
  let module C = Tta_model.Configs in
  let fp cfg = Model.fingerprint (Tta_model.Build.model cfg) in
  List.iter
    (fun (label, cfg, want) -> Alcotest.(check string) label want (fp cfg))
    [
      ("2-node passive", C.passive ~nodes:2 (), "fc2898a6f1bbc81e6c5d994901a334f5");
      ( "2-node full-shifting",
        C.full_shifting ~nodes:2 (),
        "1fc0c0a623813e0a324974905e76d27d" );
      ( "3-node time-windows",
        C.time_windows ~nodes:3 (),
        "974a897158f846aef54be50bd164f2dc" );
      ( "3-node full-shifting, no cold-start duplication",
        C.full_shifting ~nodes:3 ~forbid_cold_start_duplication:true (),
        "25fb4b1ba83421c32f8ee315d4d79d79" );
      ( "4-node full-shifting",
        C.full_shifting ~nodes:4 (),
        "7c16c35fa154dfb087a40b6d6964d715" );
    ]

(* The fingerprint's equivalence classes. The three non-buffering
   couplers differ only in which fault modes they allow, and in this
   model that leaves their transition systems identical, with or
   without a protocol ablation; full shifting buffers frames and is a
   system of its own. If a model refinement separates these classes,
   this pin fails on purpose: the shared cache, coalescing, session
   and routing keys would then split with them. *)
let test_fingerprint_classes () =
  let module C = Tta_model.Configs in
  let module F = Guardian.Feature_set in
  let fp cfg = Model.fingerprint (Tta_model.Build.model cfg) in
  let ablations = [ C.No_big_bang; C.No_listen_hold; C.No_timeout_stagger ] in
  List.iter
    (fun nodes ->
      let same label cfgs =
        let first = fp (List.hd cfgs) in
        List.iter
          (fun cfg ->
            Alcotest.(check string)
              (Printf.sprintf "%d nodes: %s" nodes label) first (fp cfg))
          cfgs;
        (label, first)
      in
      let non_buffering variant =
        List.map
          (fun fs -> C.make ~nodes ~variant fs)
          [ F.Passive; F.Time_windows; F.Small_shifting ]
      in
      let classes =
        same "E1 = E2 = E3" (non_buffering C.Standard)
        :: List.map
             (fun v -> same (C.variant_to_string v) (non_buffering v))
             ablations
      in
      let singles =
        ("E4", fp (C.full_shifting ~nodes ()))
        :: ( "E5",
             fp (C.full_shifting ~nodes ~forbid_cold_start_duplication:true ())
           )
        :: List.map
             (fun v ->
               ( "full-shifting+" ^ C.variant_to_string v,
                 fp (C.make ~nodes ~oos_budget:1 ~variant:v F.Full_shifting) ))
             ablations
      in
      let all = classes @ singles in
      List.iteri
        (fun i (a, fa) ->
          List.iteri
            (fun j (b, fb) ->
              if i < j then
                Alcotest.(check bool)
                  (Printf.sprintf "%d nodes: %s <> %s" nodes a b)
                  false (String.equal fa fb))
            all)
        all)
    [ 2; 3; 4 ]

(* One model per configuration, its fingerprint memoized in it: a
   repeat [Build.model] on a structurally equal (freshly allocated)
   configuration returns the same value, and with its fingerprint
   costs a table lookup and a field read, which an allocation count
   shows without any timing. *)
let test_fingerprint_memo () =
  let cfg () = Tta_model.Configs.passive ~nodes:2 () in
  let cfg0 = cfg () and cfg1 = cfg () in
  let model = Tta_model.Build.model cfg0 in
  let first = Model.fingerprint model in
  let w0 = Gc.minor_words () in
  let model' = Tta_model.Build.model cfg1 in
  let again = Model.fingerprint model' in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "two config values" true (cfg0 != cfg1);
  Alcotest.(check bool) "one model value" true (model == model');
  Alcotest.(check string) "same digest" first again;
  Alcotest.(check bool)
    (Printf.sprintf "repeat call allocates < 100 words (%.0f)" words)
    true (words < 100.)

(* Domains racing on a configuration no one has built yet may each
   build it and compute the memo; all must get the one shared model
   and the digest a fresh, unshared copy of it hashes to. *)
let test_fingerprint_race () =
  let cfg () = Tta_model.Configs.full_shifting ~nodes:3 ~oos_budget:2 () in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            let m = Tta_model.Build.model (cfg ()) in
            (m, Model.fingerprint m)))
  in
  Atomic.set go true;
  let results = List.map Domain.join domains in
  let shared = Tta_model.Build.model (cfg ()) in
  let want =
    Model.fingerprint
      (Model.make ~name:shared.Model.name ~vars:shared.Model.vars
         ~init:shared.Model.init ~trans:shared.Model.trans)
  in
  List.iter
    (fun (m, fp) ->
      Alcotest.(check bool) "racing domain got the shared model" true
        (m == shared);
      Alcotest.(check string) "racing domain" want fp)
    results;
  Alcotest.(check string) "memo after the race" want (Model.fingerprint shared)

let suite =
  [
    Alcotest.test_case "eval basics" `Quick test_eval_basic;
    Alcotest.test_case "eval type errors" `Quick test_eval_type_errors;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "counter reachable (3 engines)" `Quick
      test_counter_reachable;
    Alcotest.test_case "counter wraps" `Quick test_counter_wraps;
    Alcotest.test_case "saturating safe (3 engines)" `Quick
      test_saturating_safe;
    Alcotest.test_case "mutex safe (3 engines)" `Quick test_mutex_safe;
    Alcotest.test_case "mutex progress agreement" `Quick test_mutex_progress;
    Alcotest.test_case "trace validation rejects" `Quick
      test_trace_validate_rejects;
    Alcotest.test_case "partitioned image = monolithic (per iteration)" `Quick
      test_partitioned_image_agreement;
    Alcotest.test_case "tuning verdict agreement" `Quick
      test_tuning_verdict_agreement;
    Alcotest.test_case "reachable_set cancel + obs" `Quick
      test_reachable_set_cancel_and_obs;
    Alcotest.test_case "k-induction proves saturating" `Quick
      test_induction_proves_saturating;
    Alcotest.test_case "k-induction refutes counter" `Quick
      test_induction_refutes_counter;
    Alcotest.test_case "k-induction proves mutex" `Quick
      test_induction_proves_mutex;
    Alcotest.test_case "k-induction tautology at k=0" `Quick
      test_induction_tautology_at_k0;
    Alcotest.test_case "k-induction I fails initiation only" `Quick
      test_induction_fails_initiation;
    Alcotest.test_case "k-induction I fails safety only" `Quick
      test_induction_fails_safety;
    Alcotest.test_case "k-induction I fails consecution only" `Quick
      test_induction_fails_consecution;
    Alcotest.test_case "induction: one span per obligation" `Quick
      test_induction_obligation_spans;
    Alcotest.test_case "ctl: counter" `Quick test_ctl_counter;
    Alcotest.test_case "ctl: saturating" `Quick test_ctl_saturating;
    Alcotest.test_case "ctl: mutex" `Quick test_ctl_mutex;
    Alcotest.test_case "ctl: failing state" `Quick
      test_ctl_failing_state_is_reachable;
    Alcotest.test_case "bmc session search pin (full-shifting)" `Quick
      test_bmc_session_pin;
    Alcotest.test_case "smv export shape" `Quick test_smv_export_shape;
    Alcotest.test_case "expr printer goldens" `Quick test_expr_printer_goldens;
    Alcotest.test_case "model fingerprint goldens" `Quick
      test_fingerprint_goldens;
    Alcotest.test_case "fingerprint memo" `Quick test_fingerprint_memo;
    Alcotest.test_case "fingerprint domain race" `Quick test_fingerprint_race;
    Alcotest.test_case "fingerprint equivalence classes" `Quick
      test_fingerprint_classes;
  ]
  @ qtests

let () = Alcotest.run "symkit" [ ("symkit", suite) ]
