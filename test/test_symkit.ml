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
let random_trans_pred_gen =
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
  sized @@ fix (fun self n ->
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

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pred_agrees; prop_trans_pred_agrees; prop_state_roundtrip ]

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
   re-key them all. The digests below are those the repository has
   always produced, so existing cache directories stay valid. *)
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
      ("2-node passive", C.passive ~nodes:2 (), "3fb0d1b546a8a283d818adf8408ccf6c");
      ( "2-node full-shifting",
        C.full_shifting ~nodes:2 (),
        "8bde9b5c3da660cc8f7880ebe2bf956f" );
      ( "3-node time-windows",
        C.time_windows ~nodes:3 (),
        "e5ce45d01286301e8eb5b5bcb0eec79d" );
      ( "3-node full-shifting, no cold-start duplication",
        C.full_shifting ~nodes:3 ~forbid_cold_start_duplication:true (),
        "bda46e481acb1a6423e40be4b6bfdf16" );
      ( "4-node full-shifting",
        C.full_shifting ~nodes:4 (),
        "3b146d2a3a86f24b4f61ef9dbd0f0539" );
    ]

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
  ]
  @ qtests

let () = Alcotest.run "symkit" [ ("symkit", suite) ]
