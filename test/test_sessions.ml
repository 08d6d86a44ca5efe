(* Tests for lib/sessions: the warm solver-session pool.

   The load-bearing property is verdict equality — a request served by
   a warm pooled session must answer exactly what a cold engine run at
   the same bound answers, across the full Section 5 configuration
   matrix and both SAT engines. The rest covers the pool mechanics
   (keying, hits/misses, LRU eviction) and the incremental win itself
   (a warm depth-(k+1) solve spends strictly fewer conflicts than a
   cold session solving 0..k+1). *)

module Engine = Tta_model.Engine
module Configs = Tta_model.Configs

let nodes = 2

let matrix =
  [
    ("passive", Configs.passive ~nodes ());
    ("time-windows", Configs.time_windows ~nodes ());
    ("small-shifting", Configs.small_shifting ~nodes ());
    ("full-shifting", Configs.full_shifting ~nodes ());
  ]

(* ------------------------------------------------------------------ *)
(* Family keying *)

let test_family_of () =
  let fam cfg = Sessions.family_of cfg in
  Alcotest.(check string) "fingerprint is deterministic"
    (fam (Configs.passive ~nodes ()))
    (fam (Configs.passive ~nodes ()));
  Alcotest.(check bool) "node count changes the family" true
    (fam (Configs.passive ~nodes:2 ()) <> fam (Configs.passive ~nodes:3 ()));
  Alcotest.(check bool) "feature set changes the family" true
    (fam (Configs.passive ~nodes ())
    <> fam (Configs.full_shifting ~nodes ()));
  (* The whole point: the family is bound-, property- and
     name-independent, so near-miss requests (same transition system,
     different depth) share it. The three non-buffering rows are one
     system, full shifting another. *)
  let passive = fam (Configs.passive ~nodes ()) in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool)
        (name ^ " shares passive's family iff it does not buffer")
        (name <> "full-shifting") (fam cfg = passive))
    matrix

let test_non_sat_engine_rejected () =
  let pool = Sessions.create () in
  Alcotest.check_raises "bdd engine is not session-backed"
    (Invalid_argument "Sessions.run: bdd-reachability is not session-backed")
    (fun () ->
      ignore
        (Sessions.run pool ~engine:Engine.Bdd_reach ~max_depth:4
           (Configs.passive ~nodes ())))

(* ------------------------------------------------------------------ *)
(* Verdict equality: pooled warm sessions vs cold engine runs *)

let verdict_key = function
  | Engine.Holds { detail } -> "holds: " ^ detail
  | Engine.Unknown { detail } -> "unknown: " ^ detail
  | Engine.Violated { trace; _ } ->
      Printf.sprintf "violated in %d steps" (Array.length trace)

let check_matrix_equality ~engine ~max_depth =
  let pool = Sessions.create () in
  let ename = Engine.id_to_string engine in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (name, cfg) ->
      let family = Sessions.family_of cfg in
      let fresh = not (Hashtbl.mem seen family) in
      Hashtbl.replace seen family ();
      let cold =
        ((Engine.get engine).Engine.run ~max_depth cfg).Engine.verdict
      in
      (* Two pooled passes: the first builds the session unless an
         earlier row of the same transition system did, the second
         must find it warm — and both must answer like the cold run. *)
      let r1, a1 = Sessions.run pool ~engine ~max_depth cfg in
      let r2, a2 = Sessions.run pool ~engine ~max_depth cfg in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s cold pass verdict" ename name)
        (verdict_key cold)
        (verdict_key r1.Engine.verdict);
      Alcotest.(check string)
        (Printf.sprintf "%s/%s warm pass verdict" ename name)
        (verdict_key cold)
        (verdict_key r2.Engine.verdict);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s first pass is a miss once per system" ename
           name)
        (not fresh) a1.Sessions.reused;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s second pass is warm" ename name)
        true a2.Sessions.reused)
    matrix

let test_bmc_matrix_equality () =
  check_matrix_equality ~engine:Engine.Sat_bmc ~max_depth:12

let test_warm_deeper_bound_equality () =
  (* The near-miss pattern the pool exists for: the same family asked
     at increasing bounds. Every warm answer must equal a cold run at
     that bound, and the session's unrolling must carry over. *)
  let pool = Sessions.create () in
  let cfg = Configs.full_shifting ~nodes () in
  List.iter
    (fun depth ->
      let cold =
        ((Engine.get Engine.Sat_bmc).Engine.run ~max_depth:depth cfg)
          .Engine.verdict
      in
      let r, _ = Sessions.run pool ~engine:Engine.Sat_bmc ~max_depth:depth cfg in
      Alcotest.(check string)
        (Printf.sprintf "depth %d verdict" depth)
        (verdict_key cold) (verdict_key r.Engine.verdict))
    [ 2; 4; 6; 8; 10; 12 ];
  let s = Sessions.stats pool in
  Alcotest.(check int) "one session built" 1 s.Sessions.misses;
  Alcotest.(check int) "five warm hits" 5 s.Sessions.hits

(* A warm session answers a violation with the request's own model
   value, not the one the session was built from: the name is a
   label, and every configuration name of a transition system must get
   back exactly what [Build.model] gives it. *)
let test_violation_carries_request_model () =
  let pool = Sessions.create () in
  let cfg = Configs.full_shifting ~nodes () in
  ignore (Sessions.run pool ~engine:Engine.Sat_bmc ~max_depth:10 cfg);
  let r, a = Sessions.run pool ~engine:Engine.Sat_bmc ~max_depth:12 cfg in
  Alcotest.(check bool) "session reused" true a.Sessions.reused;
  match r.Engine.verdict with
  | Engine.Violated { model; trace } ->
      Alcotest.(check bool) "model == Build.model cfg" true
        (model == Tta_model.Build.model cfg);
      Alcotest.(check int) "12-step counterexample" 12 (Array.length trace)
  | v -> Alcotest.failf "expected a violation, got %s" (verdict_key v)

(* ------------------------------------------------------------------ *)
(* The incremental win *)

let test_warm_solve_fewer_conflicts () =
  (* Solving depth k+1 on a session warm at depth k must cost strictly
     fewer conflicts than a cold session scanning 0..k+1 — the learned
     clauses and the clean-depth memo are doing real work. *)
  let cfg = Configs.time_windows ~nodes () in
  let model = Tta_model.Build.model cfg in
  let bad = Tta_model.Props.integrated_node_frozen ~nodes in
  let session () =
    Symkit.Bmc.create (Symkit.Enc.create (Bdd.create_manager ()) model)
  in
  let cold = session () in
  ignore (Symkit.Bmc.check_session ~max_depth:9 cold ~bad);
  let cold_conflicts = Symkit.Bmc.conflicts cold in
  let warm = session () in
  ignore (Symkit.Bmc.check_session ~max_depth:8 warm ~bad);
  let before = Symkit.Bmc.conflicts warm in
  ignore (Symkit.Bmc.check_session ~max_depth:9 warm ~bad);
  let warm_delta = Symkit.Bmc.conflicts warm - before in
  Alcotest.(check bool) "cold scan hits conflicts" true (cold_conflicts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "warm solve cheaper (%d < %d)" warm_delta cold_conflicts)
    true
    (warm_delta < cold_conflicts)

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_pool_lru_eviction () =
  let pool = Sessions.create ~capacity:1 () in
  let run cfg = ignore (Sessions.run pool ~engine:Engine.Sat_bmc ~max_depth:3 cfg) in
  let c2 = Configs.passive ~nodes:2 () in
  let c3 = Configs.passive ~nodes:3 () in
  run c2;
  run c3;
  (* Capacity 1: checking c3's entry in evicted c2's (the LRU). *)
  let s = Sessions.stats pool in
  Alcotest.(check int) "both built cold" 2 s.Sessions.misses;
  Alcotest.(check int) "one eviction" 1 s.Sessions.evictions;
  Alcotest.(check int) "one idle entry survives" 1 s.Sessions.idle;
  run c3;
  Alcotest.(check int) "the survivor is the recent family" 1
    (Sessions.stats pool).Sessions.hits;
  run c2;
  Alcotest.(check int) "the evicted family rebuilds" 3
    (Sessions.stats pool).Sessions.misses

let test_family_override () =
  (* An explicit family key names the pool bucket, so a fingerprint
     match split across custom keys (per-tenant isolation) does not
     share state. *)
  let pool = Sessions.create () in
  let cfg = Configs.passive ~nodes () in
  let run family =
    snd (Sessions.run pool ~engine:Engine.Sat_bmc ~family ~max_depth:3 cfg)
  in
  Alcotest.(check bool) "custom family starts cold" false
    (run "tenant-a").Sessions.reused;
  Alcotest.(check bool) "same custom family is warm" true
    (run "tenant-a").Sessions.reused;
  Alcotest.(check bool) "other tenant does not share" false
    (run "tenant-b").Sessions.reused

let test_family_mismatch_is_miss () =
  (* The cache-poisoning scenario: a stale override naming a bucket
     warmed by a *different* model must not check out that state — the
     fingerprint stored in each entry is verified at checkout, a
     mismatch is a miss, and every request keeps the verdict of its
     own model. *)
  let pool = Sessions.create () in
  let c2 = Configs.passive ~nodes:2 () in
  let c3 = Configs.passive ~nodes:3 () in
  let cold cfg =
    ((Engine.get Engine.Sat_bmc).Engine.run ~max_depth:4 cfg).Engine.verdict
  in
  let run cfg =
    Sessions.run pool ~engine:Engine.Sat_bmc ~family:"shared" ~max_depth:4 cfg
  in
  let r2, a2 = run c2 in
  let r3, a3 = run c3 in
  Alcotest.(check bool) "first tenant-bucket use is cold" false
    a2.Sessions.reused;
  Alcotest.(check bool) "mismatched model must not reuse the entry" false
    a3.Sessions.reused;
  Alcotest.(check string) "2-node verdict is its own model's"
    (verdict_key (cold c2))
    (verdict_key r2.Engine.verdict);
  Alcotest.(check string) "3-node verdict is its own model's"
    (verdict_key (cold c3))
    (verdict_key r3.Engine.verdict);
  let s = Sessions.stats pool in
  Alcotest.(check int) "the foreign checkout is counted" 1
    s.Sessions.mismatches;
  (* Both entries now idle under the shared bucket: each model still
     finds exactly its own. *)
  let _, a2' = run c2 in
  let _, a3' = run c3 in
  Alcotest.(check bool) "2-node model reuses its own entry" true
    a2'.Sessions.reused;
  Alcotest.(check bool) "3-node model reuses its own entry" true
    a3'.Sessions.reused

let test_crashed_run_retried_on_fresh_session () =
  (* An engine exception (here an injected chaos crash at the first
     cooperative safepoint) must discard the poisoned session and
     retry on a fresh one under the supervisor policy, ending in the
     cold verdict — the parity the scheduler relies on for the
     --sessions path under --chaos. *)
  let faults =
    match Resilience.Faults.of_spec "5:engine_step=crash@1x1" with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad chaos spec: %s" e
  in
  let supervisor =
    { Resilience.Supervisor.default with retries = 1; backoff_s = 0.001 }
  in
  let pool = Sessions.create () in
  let cfg = Configs.passive ~nodes () in
  let cold =
    ((Engine.get Engine.Sat_bmc).Engine.run ~max_depth:4 cfg).Engine.verdict
  in
  let r, _ =
    Sessions.run pool ~engine:Engine.Sat_bmc ~supervisor ~faults ~max_depth:4
      cfg
  in
  Alcotest.(check string) "retried verdict equals a cold run"
    (verdict_key cold)
    (verdict_key r.Engine.verdict);
  Alcotest.(check bool) "the retry was counted" true
    (List.assoc_opt "supervisor.retries" r.Engine.counters = Some 1);
  let s = Sessions.stats pool in
  Alcotest.(check int) "poisoned session discarded" 1 s.Sessions.discards;
  Alcotest.(check int) "retry rebuilt a fresh session" 2 s.Sessions.misses;
  Alcotest.(check int) "only the healthy session returned to the pool" 1
    s.Sessions.idle

let test_engine_failed_carries_clean_depth () =
  (* Exhausted retries must surface Engine_failed carrying the best
     clean depth the family had certified — the content of a degraded
     verdict. The warm entry proved depth 8 fault-free, so the failure
     can report at least 8 but never more than a fault-free conclusive
     run at the failed request's own bound. *)
  let pool = Sessions.create () in
  let cfg = Configs.passive ~nodes () in
  let warm_bound = 8 and failed_bound = 12 in
  let r, a = Sessions.run pool ~engine:Engine.Sat_bmc ~max_depth:warm_bound cfg in
  (match r.Engine.verdict with
  | Engine.Holds _ -> ()
  | _ -> Alcotest.fail "warm-up run must be conclusive");
  Alcotest.(check int) "warm-up certifies its bound" warm_bound
    a.Sessions.clean_depth;
  (* Every attempt of the second run now crashes at the first
     cooperative safepoint, so no attempt deepens the certificate. *)
  let faults =
    match Resilience.Faults.of_spec "5:engine_step=crash" with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad chaos spec: %s" e
  in
  let supervisor =
    { Resilience.Supervisor.default with retries = 1; backoff_s = 0.001 }
  in
  match
    Sessions.run pool ~engine:Engine.Sat_bmc ~supervisor ~faults
      ~max_depth:failed_bound cfg
  with
  | _ -> Alcotest.fail "expected Engine_failed"
  | exception Sessions.Engine_failed { message; clean_depth } ->
      Alcotest.(check bool) "failure names the underlying exception" true
        (message <> "");
      Alcotest.(check int) "clean depth survives from the warm entry"
        warm_bound clean_depth;
      Alcotest.(check bool) "bounded by a fault-free conclusive run" true
        (clean_depth <= failed_bound)

let test_one_loop_one_budget () =
  (* The portfolio path (Supervisor.run) and the session path
     (Sessions.run) share one retry loop, so under the same fault spec
     they spend the same attempt budget: the same attempts, the same
     injected crashes and the same supervisor.* counters — for a spec
     the loop recovers from and for one it never does. *)
  let cfg = Configs.passive ~nodes () in
  let supervisor = { Resilience.Supervisor.default with backoff_s = 0.001 } in
  let faults_of spec =
    match Resilience.Faults.of_spec spec with
    | Ok f -> f
    | Error e -> Alcotest.failf "bad chaos spec: %s" e
  in
  let crashes f =
    Option.value ~default:0
      (List.assoc_opt "engine_start.crash" (Resilience.Faults.injections f))
  in
  let track () = Obs.Collector.track (Obs.Collector.create ()) "parity" in
  let supervisor_counters obs =
    List.sort compare
      (List.filter
         (fun (n, _) -> String.starts_with ~prefix:"supervisor." n)
         (Obs.counters obs))
  in
  List.iter
    (fun (spec, attempts, recovers) ->
      let faults = faults_of spec and obs = track () in
      let o =
        Resilience.Supervisor.run ~policy:supervisor ~faults ~obs ~max_depth:4
          (Engine.get Engine.Sat_bmc) cfg
      in
      let faults' = faults_of spec and obs' = track () in
      let ok' =
        match
          Sessions.run (Sessions.create ()) ~engine:Engine.Sat_bmc ~obs:obs'
            ~supervisor ~faults:faults' ~max_depth:4 cfg
        with
        | _ -> true
        | exception Sessions.Engine_failed _ -> false
      in
      let check_int what = Alcotest.(check int) (spec ^ ": " ^ what) in
      check_int "portfolio-path attempts" attempts
        o.Resilience.Supervisor.attempts;
      (* Every failed session attempt is exactly one injected crash. *)
      check_int "session-path attempts" attempts
        (crashes faults' + if ok' then 1 else 0);
      Alcotest.(check bool) (spec ^ ": portfolio path recovers") recovers
        (Result.is_ok o.Resilience.Supervisor.result);
      Alcotest.(check bool) (spec ^ ": session path recovers") recovers ok';
      check_int "same injected crashes" (crashes faults) (crashes faults');
      Alcotest.(check (list (pair string int)))
        (spec ^ ": same supervisor counters")
        (List.sort compare o.Resilience.Supervisor.counters)
        (supervisor_counters obs');
      Alcotest.(check (list (pair string int)))
        (spec ^ ": same live counters") (supervisor_counters obs)
        (supervisor_counters obs'))
    [ ("5:engine_start=crashx2", 3, true); ("5:engine_start=crash", 3, false) ]

let test_peek_clean_depth () =
  (* The no-run degraded path: a deadline-dead request reads the best
     idle certificate without checking anything out. *)
  let pool = Sessions.create () in
  let cfg = Configs.passive ~nodes () in
  Alcotest.(check int) "empty pool has no certificate" (-1)
    (Sessions.peek_clean_depth pool cfg);
  ignore (Sessions.run pool ~engine:Engine.Sat_bmc ~max_depth:6 cfg);
  Alcotest.(check int) "idle entry's certificate visible" 6
    (Sessions.peek_clean_depth pool cfg);
  (* Family override names a different bucket: no certificate there. *)
  Alcotest.(check int) "override bucket is separate" (-1)
    (Sessions.peek_clean_depth pool ~family:"tenant-b" cfg);
  (* A different model in the same pool must not leak its depth. *)
  let other = Configs.passive ~nodes:3 () in
  Alcotest.(check int) "other model sees no certificate" (-1)
    (Sessions.peek_clean_depth pool other)

let () =
  Alcotest.run "sessions"
    [
      ( "keying",
        [
          Alcotest.test_case "family fingerprints" `Quick test_family_of;
          Alcotest.test_case "non-SAT engines rejected" `Quick
            test_non_sat_engine_rejected;
          Alcotest.test_case "family override" `Quick test_family_override;
          Alcotest.test_case "family mismatch is a miss" `Quick
            test_family_mismatch_is_miss;
        ] );
      ( "verdict-equality",
        [
          Alcotest.test_case "bmc matrix, cold and warm passes" `Quick
            test_bmc_matrix_equality;
          Alcotest.test_case "increasing bounds on one warm session" `Quick
            test_warm_deeper_bound_equality;
          Alcotest.test_case "violation carries the request's model" `Quick
            test_violation_carries_request_model;
        ] );
      ( "incremental-win",
        [
          Alcotest.test_case "warm solve spends fewer conflicts" `Quick
            test_warm_solve_fewer_conflicts;
        ] );
      ( "pool",
        [
          Alcotest.test_case "LRU eviction at capacity" `Quick
            test_pool_lru_eviction;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crashed run retried on a fresh session" `Quick
            test_crashed_run_retried_on_fresh_session;
          Alcotest.test_case "exhausted retries carry the clean depth" `Quick
            test_engine_failed_carries_clean_depth;
          Alcotest.test_case "peek reads idle certificates" `Quick
            test_peek_clean_depth;
          Alcotest.test_case "one loop, one attempt budget" `Quick
            test_one_loop_one_budget;
        ] );
    ]
