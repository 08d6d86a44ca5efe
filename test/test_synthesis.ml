(* Tests for lib/synthesis: deterministic enumeration and sampling,
   the Section 6 analytic pre-filter against hand-built violations,
   Pareto dominance and pruning, and end-to-end runs (pool and service
   path) that must reproduce the paper's four feature sets as frontier
   points. *)

let space = Synthesis.Space.default ()

let keys cands = List.map Synthesis.Space.candidate_key cands

(* ------------------------------------------------------------------ *)
(* Space: enumeration and sampling *)

let test_enumeration () =
  let all = Synthesis.Space.enumerate space in
  Alcotest.(check int) "size matches" (Synthesis.Space.size space)
    (List.length all);
  Alcotest.(check bool) "non-empty" true (all <> []);
  let distinct = List.sort_uniq compare (keys all) in
  Alcotest.(check int) "keys are unique" (List.length all)
    (List.length distinct);
  Alcotest.(check string) "candidate_at agrees with enumerate"
    (Synthesis.Space.candidate_key (List.nth all 7))
    (Synthesis.Space.candidate_key (Synthesis.Space.candidate_at space 7))

let test_sampling_deterministic () =
  let a = Synthesis.Space.sample ~seed:11 ~count:50 space in
  let b = Synthesis.Space.sample ~seed:11 ~count:50 space in
  Alcotest.(check (list string)) "same seed, same sample" (keys a) (keys b);
  Alcotest.(check int) "requested count" 50 (List.length a);
  let c = Synthesis.Space.sample ~seed:12 ~count:50 space in
  Alcotest.(check bool) "different seed, different sample" true
    (keys a <> keys c);
  (* A sample is a sub-sequence of the enumeration order. *)
  let enum = keys (Synthesis.Space.enumerate space) in
  let index k = Option.get (List.find_index (String.equal k) enum) in
  let idx = List.map index (keys a) in
  Alcotest.(check (list int)) "enumeration order preserved"
    (List.sort compare idx) idx

let test_sample_degenerate () =
  Alcotest.(check int) "count >= size is the full space"
    (Synthesis.Space.size space)
    (List.length
       (Synthesis.Space.sample ~seed:1 ~count:(Synthesis.Space.size space + 5)
          space));
  Alcotest.(check (list string)) "count 0 is empty" []
    (keys (Synthesis.Space.sample ~seed:1 ~count:0 space))

(* ------------------------------------------------------------------ *)
(* Pre-filter: the paper anchors pass, hand-built violations fail on
   the right equation *)

let test_paper_candidates_pass () =
  let anchors = Synthesis.Space.paper_candidates space in
  Alcotest.(check int) "four anchors" 4 (List.length anchors);
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        (Synthesis.Space.candidate_key c)
        []
        (List.map Synthesis.Prefilter.to_string
           (Synthesis.Prefilter.check space c)))
    anchors;
  Alcotest.(check int) "all four feature sets" 4
    (List.length
       (List.sort_uniq Guardian.Feature_set.compare
          (List.map
             (fun c -> c.Synthesis.Space.feature_set)
             anchors)))

let rejects c rejection =
  List.mem rejection (Synthesis.Prefilter.check space c)

let test_prefilter_equations () =
  let anchors = Synthesis.Space.paper_candidates space in
  let anchor fs =
    List.find (fun c -> c.Synthesis.Space.feature_set = fs) anchors
  in
  let open Guardian.Feature_set in
  (* eq (2): not a clock spread at all *)
  Alcotest.(check bool) "eq2" true
    (rejects
       { (anchor Passive) with Synthesis.Space.rho_max = 0.9 }
       Synthesis.Prefilter.Clock_spread);
  (* eq (1): a reshaping coupler with no buffer *)
  Alcotest.(check bool) "eq1 small-shifting" true
    (rejects
       { (anchor Small_shifting) with Synthesis.Space.buffer_bits = 0 }
       Synthesis.Prefilter.Buffer_below_min);
  (* eq (1): full shifting below a whole frame *)
  Alcotest.(check bool) "eq1 full-shifting" true
    (rejects
       { (anchor Full_shifting) with Synthesis.Space.buffer_bits = 512 }
       Synthesis.Prefilter.Buffer_below_min);
  (* eq (3): a non-buffering coupler provisioned beyond f_min - 1 *)
  Alcotest.(check bool) "eq3" true
    (rejects
       { (anchor Time_windows) with Synthesis.Space.buffer_bits = 2076 }
       Synthesis.Prefilter.Buffer_above_max);
  (* eqs (4)/(7)/(10): a clock spread outside the envelope *)
  Alcotest.(check bool) "eq10" true
    (rejects
       { (anchor Small_shifting) with Synthesis.Space.rho_max = 2.0 }
       Synthesis.Prefilter.Clock_ratio);
  (* window narrower than the longest frame *)
  Alcotest.(check bool) "window" true
    (rejects
       { (anchor Time_windows) with Synthesis.Space.window_bits = 100 }
       Synthesis.Prefilter.Window_width);
  (* shift allowance below the in-spec skew *)
  Alcotest.(check bool) "shift" true
    (rejects
       { (anchor Small_shifting) with Synthesis.Space.shift_bits = 0 }
       Synthesis.Prefilter.Shift_allowance);
  (* a passive hub has no window, buffer or shift requirement *)
  Alcotest.(check bool) "passive unconstrained" true
    (Synthesis.Prefilter.check space
       {
         Synthesis.Space.feature_set = Passive;
         buffer_bits = 0;
         window_bits = 0;
         shift_bits = 0;
         rho_max = 1.3026;
         rho_min = 1.0;
       }
    = [])

let test_split_counts () =
  let cands = Synthesis.Space.enumerate space in
  let survivors, rejects, counts = Synthesis.Prefilter.split space cands in
  Alcotest.(check int) "partition is total" (List.length cands)
    (List.length survivors + List.length rejects);
  Alcotest.(check int) "every key reported"
    (List.length Synthesis.Prefilter.all_rejections)
    (List.length counts);
  Alcotest.(check bool) "something was rejected" true (rejects <> []);
  Alcotest.(check bool) "something survived" true (survivors <> []);
  (* Count consistency: each reject contributes one count per violated
     equation. *)
  let total_counts = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  let total_violations =
    List.fold_left (fun a (_, rs) -> a + List.length rs) 0 rejects
  in
  Alcotest.(check int) "counts = violations" total_violations total_counts

(* ------------------------------------------------------------------ *)
(* Pareto dominance and pruning (synthetic points, no model checking) *)

let point ?(threats = 0) ?(upheld = true) ?(buffer = 0) ?(authority = 0) () =
  {
    Synthesis.Pareto.candidate =
      {
        Synthesis.Space.feature_set = Guardian.Feature_set.Passive;
        buffer_bits = buffer;
        window_bits = 0;
        shift_bits = 0;
        rho_max = 1.0;
        rho_min = 1.0;
      };
    objectives = { Synthesis.Pareto.threats; upheld };
    costs = { Synthesis.Pareto.buffer_bits = buffer; authority };
    faults_contained = [];
    verdict = (if upheld then Synthesis.Check.Upheld else Synthesis.Check.Breached 1);
  }

let test_dominance () =
  let open Synthesis.Pareto in
  (* same objectives, cheaper -> dominates *)
  Alcotest.(check bool) "cheaper dominates" true
    (dominates (point ~buffer:0 ()) (point ~buffer:64 ()));
  Alcotest.(check bool) "not vice versa" false
    (dominates (point ~buffer:64 ()) (point ~buffer:0 ()));
  (* more containment at higher cost: incomparable *)
  Alcotest.(check bool) "tradeoff incomparable (a)" false
    (dominates (point ~threats:2 ~authority:1 ()) (point ()));
  Alcotest.(check bool) "tradeoff incomparable (b)" false
    (dominates (point ()) (point ~threats:2 ~authority:1 ()));
  (* equal points do not dominate each other (no strict edge) *)
  Alcotest.(check bool) "equal points" false (dominates (point ()) (point ()));
  (* upheld beats breached at equal cost *)
  Alcotest.(check bool) "upheld dominates breached" true
    (dominates (point ()) (point ~upheld:false ()))

let test_frontier_pruning () =
  let open Synthesis.Pareto in
  let a = point ~buffer:0 () in
  let b = point ~buffer:64 () (* dominated by a *) in
  let c = point ~threats:2 ~authority:1 () (* incomparable *) in
  let a' = point ~buffer:0 () (* duplicate signature of a *) in
  let f = frontier [ a; b; c; a' ] in
  Alcotest.(check int) "dominated and duplicate pruned" 2 (List.length f);
  Alcotest.(check bool) "a kept" true (List.memq a f);
  Alcotest.(check bool) "c kept" true (List.memq c f)

(* ------------------------------------------------------------------ *)
(* End-to-end: determinism, envelope agreement, the paper's frontier *)

let run_once () = Synthesis.run ~seed:7 ~sample:24 ~nodes:2 space

let outcome_keys (r : Synthesis.report) =
  List.map
    (fun (o : Synthesis.Check.outcome) ->
      ( Synthesis.Space.candidate_key o.Synthesis.Check.candidate,
        Synthesis.Check.verdict_label o.Synthesis.Check.verdict ))
    r.Synthesis.outcomes

let frontier_keys (r : Synthesis.report) =
  List.map
    (fun (p : Synthesis.Pareto.point) ->
      Synthesis.Space.candidate_key p.Synthesis.Pareto.candidate)
    r.Synthesis.frontier

let test_run_deterministic () =
  let a = run_once () and b = run_once () in
  Alcotest.(check (list (pair string string)))
    "same seed: same candidates, order and verdicts" (outcome_keys a)
    (outcome_keys b);
  Alcotest.(check (list string)) "same frontier" (frontier_keys a)
    (frontier_keys b);
  Alcotest.(check (list (pair string string)))
    "same verdict summary"
    (Synthesis.verdict_summary a)
    (Synthesis.verdict_summary b)

let test_run_reproduces_paper () =
  let r = run_once () in
  Alcotest.(check bool) "pre-filter rejected something" true
    (r.Synthesis.rejected > 0);
  Alcotest.(check bool) "envelope agreement" true
    r.Synthesis.envelope_agreement;
  (* Re-verify by hand: every model-checked candidate passes the
     analytic filter. *)
  List.iter
    (fun (o : Synthesis.Check.outcome) ->
      Alcotest.(check bool)
        (Synthesis.Space.candidate_key o.Synthesis.Check.candidate)
        true
        (Synthesis.Prefilter.feasible space o.Synthesis.Check.candidate))
    r.Synthesis.outcomes;
  Alcotest.(check bool) "paper frontier shape" true
    (Synthesis.paper_frontier_ok r);
  Alcotest.(check int) "four feature sets on the frontier" 4
    (List.length (Synthesis.frontier_feature_sets r));
  (* Full shifting is the breached one; the three lower levels hold. *)
  List.iter
    (fun (p : Synthesis.Pareto.point) ->
      let fs = p.Synthesis.Pareto.candidate.Synthesis.Space.feature_set in
      let expect_upheld = fs <> Guardian.Feature_set.Full_shifting in
      Alcotest.(check bool)
        (Guardian.Feature_set.to_string fs)
        expect_upheld
        p.Synthesis.Pareto.objectives.Synthesis.Pareto.upheld)
    r.Synthesis.frontier

(* The direct path runs one pool job per transition system: the four
   paper anchors, each listed twice, lower to four configurations, and
   passive, time windows and small shifting are one system. *)
let test_direct_one_job_per_system () =
  let anchors = Synthesis.Space.paper_candidates space in
  let cands = anchors @ anchors in
  let col = Obs.Collector.create () in
  let outcomes = Synthesis.Check.direct ~domains:1 ~obs:col ~nodes:2 cands in
  Alcotest.(check int) "two pool jobs" 2
    (List.assoc "pool.tasks" (Obs.Collector.totals col));
  Alcotest.(check int) "one outcome per candidate" 8 (List.length outcomes);
  List.iter2
    (fun c (o : Synthesis.Check.outcome) ->
      let fs = c.Synthesis.Space.feature_set in
      Alcotest.(check string)
        (Synthesis.Space.candidate_key c ^ ": own configuration")
        (Tta_model.Configs.name (Synthesis.Check.lower ~nodes:2 c))
        (Tta_model.Configs.name o.Synthesis.Check.config);
      Alcotest.(check string)
        (Synthesis.Space.candidate_key c ^ ": verdict")
        (if fs = Guardian.Feature_set.Full_shifting then "breached"
         else "upheld")
        (Synthesis.Check.verdict_label o.Synthesis.Check.verdict))
    cands outcomes

let test_analytic_checker_agreement_matrix () =
  (* Across the Section 5 matrix configs: the model checker's verdict
     never rescues a candidate the envelope rejects — survivors are
     exactly the anchors' envelope, and the checker's breach (full
     shifting) is a protocol-logic fact, not an envelope one. *)
  let r = Synthesis.run ~seed:3 ~sample:0 ~nodes:2 space in
  Alcotest.(check int) "anchors only" 4 r.Synthesis.survivors;
  (* Passive, time windows and small shifting are one transition
     system, full shifting the other. *)
  Alcotest.(check int) "one run per transition system" 2
    r.Synthesis.checked;
  Alcotest.(check int) "breached configs" 1 r.Synthesis.breached;
  Alcotest.(check int) "upheld configs" 3 r.Synthesis.upheld

(* ------------------------------------------------------------------ *)
(* Service path: an in-process daemon with a session pool; verdicts
   must agree with the direct path and reuse must be attributed *)

let test_service_path_agrees () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tta_synth_test_%d.sock" (Unix.getpid ()))
  in
  let sessions = Sessions.create () in
  let server =
    Service.Server.start ~workers:2 ~sessions
      (Service.Net.Unix_socket sock)
  in
  let service =
    Fun.protect
      ~finally:(fun () ->
        Service.Server.stop server;
        Service.Server.wait server;
        try Unix.unlink sock with Unix.Unix_error _ -> ())
    @@ fun () ->
    Synthesis.run ~seed:7 ~sample:24 ~nodes:2
      ~via:(Synthesis.Service (Service.Server.bound_addr server))
      space
  in
  let direct = run_once () in
  Alcotest.(check (list (pair string string)))
    "service verdicts agree with the direct path"
    (Synthesis.verdict_summary direct)
    (Synthesis.verdict_summary service);
  Alcotest.(check (list string)) "same frontier" (frontier_keys direct)
    (frontier_keys service);
  Alcotest.(check bool) "warm sessions were reused" true
    (service.Synthesis.session_reuses > 0);
  Alcotest.(check bool) "reuse is attributed per candidate" true
    (List.exists
       (fun (o : Synthesis.Check.outcome) ->
         o.Synthesis.Check.reused_session
         && o.Synthesis.Check.warm_depth > 0)
       service.Synthesis.outcomes)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "synthesis"
    [
      ( "space",
        [
          Alcotest.test_case "enumeration" `Quick test_enumeration;
          Alcotest.test_case "sampling determinism" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "sampling degenerate cases" `Quick
            test_sample_degenerate;
        ] );
      ( "prefilter",
        [
          Alcotest.test_case "paper anchors pass" `Quick
            test_paper_candidates_pass;
          Alcotest.test_case "per-equation rejections" `Quick
            test_prefilter_equations;
          Alcotest.test_case "split counts" `Quick test_split_counts;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominance" `Quick test_dominance;
          Alcotest.test_case "frontier pruning" `Quick test_frontier_pruning;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "deterministic end to end" `Quick
            test_run_deterministic;
          Alcotest.test_case "reproduces the paper" `Quick
            test_run_reproduces_paper;
          Alcotest.test_case "Section 5 matrix agreement" `Quick
            test_analytic_checker_agreement_matrix;
          Alcotest.test_case "direct path: one job per system" `Quick
            test_direct_one_job_per_system;
        ] );
      ( "service",
        [
          Alcotest.test_case "daemon path agrees and reuses" `Quick
            test_service_path_agrees;
        ] );
    ]
