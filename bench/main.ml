(* The benchmark harness: regenerates every table/figure of the paper
   (one section per experiment id of DESIGN.md), then runs bechamel
   micro-benchmarks over the performance-critical kernels.

   The model-checking experiments are single-shot wall-clock rows (a
   4-node SAT/BDD run is minutes, far outside bechamel's regime); the
   default uses 3-node clusters so a full run finishes in about a
   minute — pass --paper-scale for the 4-node runs recorded in
   EXPERIMENTS.md. Numeric experiments re-verify the paper's constants
   on every run. *)

let paper_scale = Array.exists (( = ) "--paper-scale") Sys.argv
let skip_micro = Array.exists (( = ) "--no-micro") Sys.argv

(* Quick mode for the BDD engine: run only the E1-E5 reach rows (and
   write BENCH_bdd.json), skipping the full table/figure reproduction. *)
let reach_only = Array.exists (( = ) "--reach-only") Sys.argv

(* Quick mode for CI and iteration on warm solver sessions: run only
   the warm-vs-cold near-miss stream (and write BENCH_sessions.json),
   skipping the full table/figure reproduction. *)
let sessions_only = Array.exists (( = ) "--sessions-only") Sys.argv

(* Quick mode for the guardian design-space synthesizer: one seeded
   sweep on the direct pool path, the same sweep again as warm-session
   traffic through an in-process daemon, verdict agreement enforced,
   BENCH_synth.json written. *)
let synth_only = Array.exists (( = ) "--synth-only") Sys.argv

let nodes = if paper_scale then 4 else 3

let heading fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "\n%s\n%s\n" s (String.make (String.length s) '-'))
    fmt

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Section 5 results: one row per configuration (E1-E5). *)

let measured_of verdict =
  match verdict with
  | Tta_model.Engine.Holds { detail } -> "holds (" ^ detail ^ ")"
  | Tta_model.Engine.Violated { trace; model } ->
      let ok =
        match Symkit.Trace.validate model trace with
        | Ok () -> "validated"
        | Error e -> "INVALID: " ^ e
      in
      Printf.sprintf "violated by a %d-step trace (%s)" (Array.length trace)
        ok
  | Tta_model.Engine.Unknown { detail } -> "unknown (" ^ detail ^ ")"

(* Machine-readable Section 5 results: per-config outcome and wall
   time plus the full telemetry (whose records carry each run's
   counters). Consumed by CI as a build artifact. *)
let bench_json_path = "BENCH_portfolio.json"

let write_bench_json telemetry results dt =
  let row ((j : Portfolio.job), (r : Portfolio.result)) =
    Json.Obj
      [
        ("label", Json.String j.Portfolio.label);
        ( "engine",
          Json.String (Tta_model.Engine.id_to_string r.Portfolio.engine) );
        ( "outcome",
          Json.String
            (Portfolio.Telemetry.outcome_to_string
               (Portfolio.Telemetry.outcome_of_verdict r.Portfolio.verdict)) );
        ("wall_s", Json.Float r.Portfolio.wall_s);
        ("cache_hit", Json.Bool r.Portfolio.cache_hit);
      ]
  in
  let j =
    Json.Obj
      [
        ("nodes", Json.Int nodes);
        ("paper_scale", Json.Bool paper_scale);
        ("matrix_wall_s", Json.Float dt);
        ("configs", Json.List (List.map row results));
        ("telemetry", Portfolio.Telemetry.to_json telemetry);
      ]
  in
  let oc = open_out_bin bench_json_path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc

let section5 () =
  heading "Section 5.2 — star-coupler fault tolerance (%d nodes, %s)" nodes
    (if paper_scale then "paper scale"
     else "reduced scale; --paper-scale for 4 nodes");
  (* The six verdict rows (E1-E5 plus the E9 SAT-BMC ablation) run
     through the portfolio pool — same engines and depths as before,
     now drained by Domain workers. No verdict cache here: the bench
     exists to measure the actual checking time. *)
  let telemetry = Portfolio.Telemetry.create () in
  let jobs = Portfolio.section5_jobs ~nodes () in
  let expects = [ "holds"; "holds"; "holds"; "violated"; "violated";
                  "violated" ] in
  let results, dt =
    timed (fun () -> Portfolio.run_matrix ~telemetry jobs)
  in
  List.iter2
    (fun expect ((j : Portfolio.job), (r : Portfolio.result)) ->
      Printf.printf "%-36s expect: %-10s got: %s [%.1fs]\n%!"
        j.Portfolio.label expect
        (measured_of r.Portfolio.verdict)
        r.Portfolio.wall_s)
    expects results;
  Printf.printf "matrix wall clock on %d domain(s): %.1fs\n%!"
    (Portfolio.Pool.default_domains ()) dt;
  Format.printf "%a%!" Portfolio.Telemetry.pp_table telemetry;
  write_bench_json telemetry results dt;
  Printf.printf "machine-readable results written to %s\n%!" bench_json_path

(* ------------------------------------------------------------------ *)
(* Section 6 numbers and Figure 3 (E6, E7). *)

let section6 () =
  heading "Section 6 — buffer-size tradeoffs (E6)";
  List.iter
    (fun (e : Analysis.Buffer.worked_example) ->
      Printf.printf "  %-40s = %.6g %s\n" e.Analysis.Buffer.label
        e.Analysis.Buffer.result e.Analysis.Buffer.unit_)
    (Analysis.Buffer.worked_examples ());
  print_endline "  paper: 115,000 bits / 30.26% / 1.11%";
  heading "Figure 3 — clock-ratio limit vs frame-size range (E7)";
  List.iter
    (fun s -> Format.printf "%a@." Analysis.Figure3.pp_series s)
    (Analysis.Figure3.default_families ());
  match Analysis.Figure3.highlighted_point () with
  | Some r ->
      Printf.printf
        "  highlighted point (128, 128): ratio = %.1f (paper: f_max/5)\n" r
  | None -> print_endline "  highlighted point infeasible (unexpected!)"

(* ------------------------------------------------------------------ *)
(* E8: leaky-bucket validation of equation (1). *)

let section_leaky () =
  heading "Leaky bucket — measured occupancy vs B_min (E8)";
  Printf.printf "  %-10s %-10s %-8s %-10s %-8s\n" "node rate" "hub rate"
    "frame" "measured" "B_min";
  List.iter
    (fun (node_rate, guardian_rate, frame_bits) ->
      let measured =
        Guardian.Leaky_bucket.required_buffer ~node_rate ~guardian_rate
          ~frame_bits ~le:4
      in
      let bound =
        Guardian.Leaky_bucket.analytic_bound ~node_rate ~guardian_rate
          ~frame_bits ~le:4
      in
      Printf.printf "  %-10g %-10g %-8d %-10d %-8.1f\n" node_rate guardian_rate
        frame_bits measured bound)
    [
      (1.0, 1.0002, 2076);
      (1.0002, 1.0, 2076);
      (1.0, 1.0111, 2076);
      (1.0, 1.1, 2076);
      (1.0, 1.3026, 76);
    ]

(* ------------------------------------------------------------------ *)
(* E10: simulator reproduction + campaign summary. *)

let section_sim () =
  heading "Simulator — replay vs passive faults (E10) and campaigns";
  let o = Core.Experiments.e10 () in
  Printf.printf "  %s\n  -> %s [%s]\n" o.Core.Experiments.title
    o.Core.Experiments.measured
    (if o.Core.Experiments.matches then "REPRODUCED" else "MISMATCH");
  Printf.printf
    "\n  campaign (16 trials/feature set, one random coupler fault each):\n";
  Printf.printf "  %-16s %-14s %-14s %-14s\n" "feature set" "healthy froze"
    "majority lost" "reintegr. blocked";
  List.iter
    (fun feature_set ->
      let s =
        Sim.Campaign.summarize
          (Sim.Campaign.run ~feature_set ~nodes:4 ~trials:16 ())
      in
      Printf.printf "  %-16s %-14d %-14d %-14d\n"
        (Guardian.Feature_set.to_string feature_set)
        s.Sim.Campaign.with_healthy_freeze s.Sim.Campaign.with_cluster_loss
        s.Sim.Campaign.with_integration_block)
    Guardian.Feature_set.all

(* ------------------------------------------------------------------ *)
(* Extension experiments: E11 (mailbox trap), E12 (clock drift),
   E13 (bus vs star). *)

let section_extensions () =
  let open Ttp in
  let medl = Medl.uniform ~nodes:4 () in
  heading "E11 — the data-continuity mailbox: a fault-free failure";
  let c =
    Sim.Cluster.create ~feature_set:Guardian.Feature_set.Full_shifting
      ~data_continuity:true medl
  in
  ignore (Sim.Cluster.boot c);
  Controller.host_freeze (Sim.Cluster.controller c 3);
  ignore
    (Sim.Cluster.run_until c ~max_slots:12 (fun c ->
         Controller.slot (Sim.Cluster.controller c 0) = 2
         && Controller.state (Sim.Cluster.controller c 0) = Controller.Active));
  Sim.Cluster.start_node c 3;
  Sim.Cluster.run c ~slots:18;
  Printf.printf
    "  mailbox substitutions: %d; re-integrating node expelled with zero \
     faults: %b\n"
    (Guardian.Coupler.substitutions (Sim.Cluster.coupler c 0))
    (Controller.freeze_cause (Sim.Cluster.controller c 3)
    = Some Controller.Clique_error);

  heading "E12 — oscillator drift (one 4000 ppm node, 120 slots)";
  Printf.printf "  %-40s %-9s %-14s\n" "configuration" "freezes"
    "clock spread";
  let drift_row label feature_set sync window =
    let c = Sim.Cluster.create ~feature_set medl in
    Sim.Cluster.set_drift c
      (Sim.Clock_model.create ~sync ~window ~ppm:[| 0.0; 0.0; 0.0; 4000.0 |] ());
    ignore (Sim.Cluster.boot c);
    Sim.Cluster.run c ~slots:120;
    let spread =
      match Sim.Cluster.drift c with
      | Some d -> Sim.Clock_model.spread d
      | None -> nan
    in
    Printf.printf "  %-40s %-9d %-14.2f\n" label
      (List.length (Sim.Event_log.freezes (Sim.Cluster.log c)))
      spread
  in
  drift_row "time-windows, no clock sync" Guardian.Feature_set.Time_windows
    false 1.0;
  drift_row "time-windows, FTA clock sync" Guardian.Feature_set.Time_windows
    true 1.0;
  drift_row "small-shifting (reshaping), no sync"
    Guardian.Feature_set.Small_shifting false 30.0;

  heading "E13 — bus (Figure 1) vs star (Figure 2): the babbling idiot";
  let bus_row label guardian_fault =
    let b = Sim.Bus.create medl in
    ignore (Sim.Bus.boot b);
    Sim.Bus.set_node_fault b ~node:3 (Sim.Node_fault.Babbling { in_slot = 1 });
    (match guardian_fault with
    | Some gf -> Sim.Bus.set_guardian_fault b ~node:3 gf
    | None -> ());
    Sim.Bus.run b ~slots:40;
    Printf.printf "  %-44s active nodes after: %d/4\n" label
      (Sim.Bus.count_in_state b Controller.Active)
  in
  bus_row "bus, babbler, healthy local guardian" None;
  bus_row "bus, babbler, its local guardian stuck open"
    (Some Sim.Bus.G_stuck_open);
  let star = Sim.Cluster.create ~feature_set:Guardian.Feature_set.Time_windows medl in
  ignore (Sim.Cluster.boot star);
  Sim.Cluster.set_node_fault star ~node:3
    (Sim.Node_fault.Babbling { in_slot = 1 });
  Sim.Cluster.run star ~slots:40;
  Printf.printf "  %-44s active nodes after: %d/4\n"
    "star, babbler, central time-window guardian"
    (Sim.Cluster.count_in_state star Controller.Active)

(* ------------------------------------------------------------------ *)
(* The BDD engine on the Section 5 verdicts: one default-tuned fixpoint
   per configuration (E1-E5). test/test_bench.ml pins each row's
   verdict, iteration count and trace length. The reference is the
   seed's recorded 88-121 s per 4-node experiment, not a rerun: the
   monolithic relational product it used does not finish at paper
   scale in minutes. Writes BENCH_bdd.json. *)

let bdd_json_path = "BENCH_bdd.json"
let seed_reference_s = (88.0, 121.0)

let section_reach () =
  heading
    "BDD reachability — Section 5 configurations, default tuning (%d nodes)"
    nodes;
  let configs =
    [
      ("E1 passive", nodes, Tta_model.Configs.passive ~nodes ());
      ("E2 time-windows", nodes, Tta_model.Configs.time_windows ~nodes ());
      ( "E3 small-shifting",
        nodes,
        Tta_model.Configs.small_shifting ~nodes () );
      ("E4 full-shifting", nodes, Tta_model.Configs.full_shifting ~nodes ());
      (* The C-state-duplication instance needs three participants. *)
      ( "E5 full-shifting-nodup",
        max 3 nodes,
        Tta_model.Configs.full_shifting ~nodes:(max 3 nodes)
          ~forbid_cold_start_duplication:true () );
    ]
  in
  Printf.printf "  %-24s %-9s %4s %6s %9s %4s %8s\n" "config" "verdict" "len"
    "iters" "peak" "gc" "time";
  let run_one (cfg_name, cfg_nodes, cfg) =
    let mgr = Bdd.create_manager () in
    let enc = Symkit.Enc.create mgr (Tta_model.Build.model cfg) in
    let bad = Tta_model.Props.integrated_node_frozen ~nodes:cfg_nodes in
    let result, wall =
      timed (fun () -> Symkit.Reach.check ~max_iterations:100 enc ~bad)
    in
    let verdict, trace_len, stats =
      match result with
      | Symkit.Reach.Safe s -> ("safe", 0, s)
      | Symkit.Reach.Unsafe (t, s) -> ("violated", Array.length t, s)
      | Symkit.Reach.Depth_exhausted s -> ("exhausted", 0, s)
    in
    Printf.printf "  %-24s %-9s %4d %6d %9d %4d %7.2fs\n%!" cfg_name verdict
      trace_len stats.Symkit.Reach.iterations stats.Symkit.Reach.peak_nodes
      (Bdd.gc_count mgr) wall;
    Json.Obj
      [
        ("config", Json.String cfg_name);
        ("verdict", Json.String verdict);
        ("trace_len", Json.Int trace_len);
        ("iterations", Json.Int stats.Symkit.Reach.iterations);
        ("peak_nodes", Json.Int stats.Symkit.Reach.peak_nodes);
        ("partitions", Json.Int (Symkit.Enc.n_partitions enc));
        ("gc_count", Json.Int (Bdd.gc_count mgr));
        ( "nodes_allocated",
          Json.Int (List.assoc "bdd.nodes_allocated" (Bdd.counters mgr)) );
        ("bdd_peak_nodes", Json.Int (Bdd.peak_nodes mgr));
        ("wall_s", Json.Float wall);
      ]
  in
  let rows = List.map run_one configs in
  let ref_lo, ref_hi = seed_reference_s in
  Printf.printf "  seed reference: %.0f-%.0fs per 4-node experiment\n%!" ref_lo
    ref_hi;
  let j =
    Json.Obj
      [
        ("nodes", Json.Int nodes);
        ("paper_scale", Json.Bool paper_scale);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ( "seed_reference_s",
          Json.Obj [ ("min", Json.Float ref_lo); ("max", Json.Float ref_hi) ] );
        ("rows", Json.List rows);
      ]
  in
  let oc = open_out_bin bdd_json_path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "machine-readable results written to %s\n%!" bdd_json_path

(* ------------------------------------------------------------------ *)
(* E15: sensitivity of the BDD engine to the variable order, measured
   as peak BDD size and proof time of the passive-configuration
   fixpoint. All orders must agree on the verdict. *)

let section_orders () =
  heading "E15 — BDD variable-order sensitivity (passive config, %d nodes)"
    nodes;
  let cfg = Tta_model.Configs.passive ~nodes () in
  let model = Tta_model.Build.model cfg in
  let bad = Tta_model.Props.integrated_node_frozen ~nodes in
  Printf.printf "  %-48s %-10s %-12s %-8s\n" "order" "verdict" "peak nodes"
    "time";
  List.iter
    (fun (label, order) ->
      let enc =
        Symkit.Enc.create ~var_order:order (Bdd.create_manager ()) model
      in
      let result, dt =
        timed (fun () -> Symkit.Reach.check ~max_iterations:100 enc ~bad)
      in
      let verdict, peak =
        match result with
        | Symkit.Reach.Safe s -> ("safe", s.Symkit.Reach.peak_nodes)
        | Symkit.Reach.Unsafe (_, s) -> ("VIOLATED?!", s.Symkit.Reach.peak_nodes)
        | Symkit.Reach.Depth_exhausted s ->
            ("exhausted", s.Symkit.Reach.peak_nodes)
      in
      Printf.printf "  %-48s %-10s %-12d %.1fs\n%!" label verdict peak dt)
    (Tta_model.Build.var_order_strategies cfg)

(* ------------------------------------------------------------------ *)
(* E17: why model checking and not fault injection — random walks on
   the very same formal model essentially never assemble the precise
   conjunction of choices the replay failure needs, while BMC derives
   it deterministically. *)

let section_walks () =
  heading
    "E17 — random-walk fault injection vs model checking (full shifting, 2 \
     nodes)";
  let cfg = Tta_model.Configs.full_shifting ~nodes:2 () in
  let ctx = Tta_model.Exec.make_ctx cfg in
  let model = Tta_model.Exec.model ctx in
  let bad_pred = Tta_model.Props.integrated_node_frozen ~nodes:2 in
  let bad s = Symkit.Model.eval_pred model bad_pred s in
  let rng = Random.State.make [| 42 |] in
  let (hits, walks), dt =
    timed (fun () ->
        let walks = if paper_scale then 3000 else 1000 in
        (Tta_model.Exec.random_walks ctx rng ~walks ~depth:14 ~bad, walks))
  in
  Printf.printf
    "  random walks (depth 14):        %d/%d hit the failure [%.1fs]\n" hits
    walks dt;
  let verdict, dt =
    timed (fun () ->
        let enc = Symkit.Enc.create (Bdd.create_manager ()) model in
        Symkit.Bmc.check ~max_depth:14 enc ~bad:bad_pred)
  in
  (match verdict with
  | Symkit.Bmc.Counterexample trace ->
      Printf.printf
        "  SAT bounded model checking:     counterexample, %d steps [%.1fs]\n"
        (Array.length trace) dt
  | Symkit.Bmc.No_counterexample d ->
      Printf.printf "  SAT BMC: unexpectedly clean to depth %d [%.1fs]\n"
        (Option.value ~default:(-1) d)
        dt);
  print_endline
    "  (the paper's predecessors used hardware/software fault injection;\n\
    \   this asymmetry is why Section 3 reaches for a model checker)"

(* ------------------------------------------------------------------ *)
(* E16: the asynchronous masquerade (the paper's concluding claim). *)

let section_async () =
  heading "E16 — asynchronous (CAN-like) masquerade and the identification fix";
  let senders () =
    [| Sim.Async_net.sender ~can_id:1 ~period:7;
       Sim.Async_net.sender ~can_id:3 ~period:5 |]
  in
  Printf.printf "  %-42s %-10s %-12s %-10s %-10s\n" "configuration" "accepted"
    "masquerades" "staleness" "detected";
  List.iter
    (fun (label, gateway, check_sequence) ->
      let net = Sim.Async_net.create ~check_sequence ~gateway (senders ()) in
      Sim.Async_net.run net ~ticks:200;
      let r = Sim.Async_net.reception net in
      Printf.printf "  %-42s %-10d %-12d %-10d %-10d\n" label
        r.Sim.Async_net.accepted r.Sim.Async_net.stale_accepted
        r.Sim.Async_net.max_staleness r.Sim.Async_net.replays_detected)
    [
      ("transparent gateway", Sim.Async_net.Transparent, false);
      ( "buffering gateway (CAN emulation)",
        Sim.Async_net.Store_and_forward { replay_at = [ 11; 23; 41; 83 ] },
        false );
      ( "buffering gateway + sequence numbers",
        Sim.Async_net.Store_and_forward { replay_at = [ 11; 23; 41; 83 ] },
        true );
    ]

(* ------------------------------------------------------------------ *)
(* Warm solver sessions: a seeded near-miss stream (the same model
   families asked at climbing bounds, interleaved) served twice — cold,
   with a fresh session per query, and warm, against one shared pool.
   The bench enforces verdict equality itself: any cold/warm
   disagreement is a hard failure, not a JSON field for CI to notice. *)

let sessions_json_path = "BENCH_sessions.json"

let section_sessions () =
  (* 2-node families: the stream measures the latency distribution of
     state reuse, not checking scale, and 20 cold BMC runs at 3 nodes
     would dominate the suite's wall clock for no extra signal. *)
  let snodes = 2 in
  heading "Warm solver sessions — near-miss stream, cold vs pooled (%d nodes)"
    snodes;
  let families =
    [
      ("passive", Tta_model.Configs.passive ~nodes:snodes ());
      ("time-windows", Tta_model.Configs.time_windows ~nodes:snodes ());
      ("small-shifting", Tta_model.Configs.small_shifting ~nodes:snodes ());
      ("full-shifting", Tta_model.Configs.full_shifting ~nodes:snodes ());
    ]
  in
  (* Depth-major interleave: a climbing ratchet to 12, then a backfill
     round at the intermediate bounds a client probing for a minimal
     counterexample would ask next. Every query is a distinct
     (family, bound) pair — none could be answered by the exact-key
     verdict cache — but the backfill bounds sit under the session's
     clean depth, so the memo answers them instantly while a cold
     solver re-unrolls and re-solves from scratch. *)
  let stream =
    List.concat_map
      (fun depth -> List.map (fun (n, c) -> (n, c, depth)) families)
      [ 4; 6; 8; 10; 12; 5; 7; 9; 11 ]
  in
  let engine = Tta_model.Engine.Sat_bmc in
  let verdict_key = function
    | Tta_model.Engine.Holds { detail } -> "holds: " ^ detail
    | Tta_model.Engine.Unknown { detail } -> "unknown: " ^ detail
    | Tta_model.Engine.Violated { trace; _ } ->
        Printf.sprintf "violated in %d steps" (Array.length trace)
  in
  let pool = Sessions.create () in
  let run_query ~warm (name, cfg, depth) =
    let p = if warm then pool else Sessions.create () in
    let (r, attr), wall =
      timed (fun () -> Sessions.run p ~engine ~max_depth:depth cfg)
    in
    (name, depth, verdict_key r.Tta_model.Engine.verdict, wall *. 1000., attr)
  in
  let cold = List.map (run_query ~warm:false) stream in
  let warm = List.map (run_query ~warm:true) stream in
  let percentile p ms =
    let a = Array.of_list ms in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))
  in
  let all_agree = ref true in
  Printf.printf "  %-16s %5s %-28s %9s %9s %5s\n" "family" "depth" "verdict"
    "cold" "warm" "hit";
  let rows =
    List.map2
      (fun (name, depth, vc, cold_ms, _) (name', depth', vw, warm_ms, attr) ->
        assert (name = name' && depth = depth');
        if vc <> vw then begin
          all_agree := false;
          Printf.printf
            "  %-16s %5d VERDICT MISMATCH: cold %S vs warm %S\n%!" name depth
            vc vw
        end
        else
          Printf.printf "  %-16s %5d %-28s %7.1fms %7.1fms %5s\n%!" name depth
            vc cold_ms warm_ms
            (if attr.Sessions.reused then "warm" else "cold");
        Json.Obj
          [
            ("family", Json.String name);
            ("depth", Json.Int depth);
            ("verdict", Json.String vc);
            ("cold_ms", Json.Float cold_ms);
            ("warm_ms", Json.Float warm_ms);
            ("reused", Json.Bool attr.Sessions.reused);
            ("warm_depth", Json.Int attr.Sessions.warm_depth);
          ])
      cold warm
  in
  let ms_of qs = List.map (fun (_, _, _, ms, _) -> ms) qs in
  let cold_p50 = percentile 50. (ms_of cold)
  and cold_p95 = percentile 95. (ms_of cold)
  and warm_p50 = percentile 50. (ms_of warm)
  and warm_p95 = percentile 95. (ms_of warm) in
  let reused =
    List.length (List.filter (fun (_, _, _, _, a) -> a.Sessions.reused) warm)
  in
  let speedup_p50 = cold_p50 /. warm_p50
  and speedup_p95 = cold_p95 /. warm_p95 in
  let s = Sessions.stats pool in
  Printf.printf
    "  p50: cold %.1fms, warm %.1fms (%.1fx)   p95: cold %.1fms, warm %.1fms \
     (%.1fx)\n"
    cold_p50 warm_p50 speedup_p50 cold_p95 warm_p95 speedup_p95;
  Printf.printf "  %d/%d warm-session reuses; pool: %d hits, %d misses\n%!"
    reused (List.length warm) s.Sessions.hits s.Sessions.misses;
  let j =
    Json.Obj
      [
        ("nodes", Json.Int snodes);
        ("engine", Json.String (Tta_model.Engine.id_to_string engine));
        ("queries", Json.Int (List.length stream));
        ("verdicts_agree", Json.Bool !all_agree);
        ("reused", Json.Int reused);
        ("cold_p50_ms", Json.Float cold_p50);
        ("cold_p95_ms", Json.Float cold_p95);
        ("warm_p50_ms", Json.Float warm_p50);
        ("warm_p95_ms", Json.Float warm_p95);
        ("speedup_p50", Json.Float speedup_p50);
        ("speedup_p95", Json.Float speedup_p95);
        ("rows", Json.List rows);
      ]
  in
  let oc = open_out_bin sessions_json_path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "machine-readable results written to %s\n%!" sessions_json_path;
  if not !all_agree then begin
    Printf.printf "FATAL: warm sessions changed a verdict\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Guardian design-space synthesis: the Section 6 sweep, once on the
   in-process pool and once as wire traffic against an in-process
   daemon whose session pool the sweep is meant to keep warm. *)

let synth_json_path = "BENCH_synth.json"

let section_synth () =
  (* 2-node lowerings: the sweep measures pipeline throughput and
     session reuse, not checking scale (the configurations themselves
     are the Section 5 matrix the other suites already scale up). *)
  let snodes = 2 in
  heading "Guardian design-space synthesis — Section 6 sweep (%d nodes)" snodes;
  let space = Synthesis.Space.default () in
  let seed = 42 in
  (* 236 sampled + 4 paper anchors = 240 swept candidates. *)
  let sample = 236 in
  let direct = Synthesis.run ~seed ~sample ~nodes:snodes space in
  Format.printf "%a" Synthesis.pp_report direct;
  (* The same sweep as daemon traffic: sessions on, verdict cache off,
     so every request is answered by an engine run and the measured
     reuse is the session pool's, not the cache's. *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tta_synth_bench_%d.sock" (Unix.getpid ()))
  in
  let sessions = Sessions.create () in
  let server =
    Service.Server.start ~workers:2 ~sessions (Service.Net.Unix_socket sock)
  in
  let service =
    Fun.protect
      ~finally:(fun () ->
        Service.Server.stop server;
        Service.Server.wait server;
        try Unix.unlink sock with Unix.Unix_error _ -> ())
    @@ fun () ->
    Synthesis.run ~seed ~sample ~nodes:snodes
      ~via:(Synthesis.Service (Service.Server.bound_addr server))
      space
  in
  let agree =
    Synthesis.verdict_summary direct = Synthesis.verdict_summary service
  in
  let requests = List.length service.Synthesis.outcomes in
  let reuse_rate =
    float_of_int service.Synthesis.session_reuses
    /. float_of_int (max 1 requests)
  in
  Printf.printf
    "  service path: %d requests in %.1fs, %d warm-session reuses (%.0f%%); \
     verdicts agree with direct path: %b\n%!"
    requests service.Synthesis.wall_s service.Synthesis.session_reuses
    (100. *. reuse_rate) agree;
  let j =
    Json.Obj
      [
        ("nodes", Json.Int snodes);
        ("seed", Json.Int seed);
        ("space_size", Json.Int direct.Synthesis.space_size);
        ("candidates", Json.Int direct.Synthesis.candidates);
        ("rejected", Json.Int direct.Synthesis.rejected);
        ( "rejections",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               direct.Synthesis.rejections) );
        ("survivors", Json.Int direct.Synthesis.survivors);
        ("upheld", Json.Int direct.Synthesis.upheld);
        ("breached", Json.Int direct.Synthesis.breached);
        ("undetermined", Json.Int direct.Synthesis.undetermined);
        ("envelope_agreement", Json.Bool direct.Synthesis.envelope_agreement);
        ("frontier_size", Json.Int (List.length direct.Synthesis.frontier));
        ( "frontier",
          Json.List
            (List.map Synthesis.Pareto.to_json direct.Synthesis.frontier) );
        ("paper_frontier", Json.Bool (Synthesis.paper_frontier_ok direct));
        ("candidates_per_s", Json.Float direct.Synthesis.candidates_per_s);
        ("wall_s", Json.Float direct.Synthesis.wall_s);
        ("verdicts_agree", Json.Bool agree);
        ("service_requests", Json.Int requests);
        ("session_reuses", Json.Int service.Synthesis.session_reuses);
        ("session_reuse_rate", Json.Float reuse_rate);
        ("service_wall_s", Json.Float service.Synthesis.wall_s);
      ]
  in
  let oc = open_out_bin synth_json_path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "machine-readable results written to %s\n%!" synth_json_path;
  let ok =
    agree && direct.Synthesis.rejected > 0
    && direct.Synthesis.envelope_agreement
    && service.Synthesis.envelope_agreement
    && Synthesis.paper_frontier_ok direct
    && reuse_rate > 0.5
  in
  if not ok then begin
    Printf.printf "FATAL: synthesis sweep violated an acceptance invariant\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks over the kernels. *)

let micro_tests () =
  let open Bechamel in
  let medl4 = Ttp.Medl.uniform ~nodes:4 () in
  let cs = Ttp.Cstate.initial ~nodes:4 in
  let x_frame =
    Ttp.Frame.make ~kind:Ttp.Frame.X ~sender:0 ~cstate:cs
      ~payload:(List.init 120 (fun i -> i))
      ()
  in
  let model2 =
    Tta_model.Build.model (Tta_model.Configs.full_shifting ~nodes:2 ())
  in
  let enc2 =
    let enc = Symkit.Enc.create (Bdd.create_manager ()) model2 in
    ignore (Symkit.Enc.trans_bdd enc);
    ignore (Symkit.Enc.schedule enc);
    enc
  in
  [
    Test.make ~name:"crc/x-frame-2076-bits"
      (Staged.stage (fun () -> Ttp.Frame.crc_of ~channel:0 x_frame));
    Test.make ~name:"frame/x-frame-serialize"
      (Staged.stage (fun () -> Ttp.Frame.to_bits ~channel:0 x_frame));
    Test.make ~name:"sim/cluster-boot-4-nodes"
      (Staged.stage (fun () ->
           let c = Sim.Cluster.create medl4 in
           ignore (Sim.Cluster.boot c)));
    Test.make ~name:"guardian/leaky-bucket-delta-1pc"
      (Staged.stage (fun () ->
           Guardian.Leaky_bucket.required_buffer ~node_rate:1.0
             ~guardian_rate:1.01 ~frame_bits:2076 ~le:4));
    Test.make ~name:"analysis/figure3-families"
      (Staged.stage (fun () -> Analysis.Figure3.default_families ()));
    Test.make ~name:"mc/compile-model-2-nodes"
      (Staged.stage (fun () ->
           let enc = Symkit.Enc.create (Bdd.create_manager ()) model2 in
           ignore (Symkit.Enc.trans_bdd enc)));
    Test.make ~name:"mc/bdd-image-partitioned-2-nodes"
      (Staged.stage (fun () ->
           ignore (Symkit.Reach.image enc2 (Symkit.Enc.init_bdd enc2))));
    Test.make ~name:"mc/bdd-image-monolithic-2-nodes"
      (Staged.stage (fun () ->
           ignore
             (Symkit.Reach.image ~tuning:Symkit.Reach.monolithic_tuning enc2
                (Symkit.Enc.init_bdd enc2))));
    Test.make ~name:"sat/pigeonhole-6-into-5"
      (Staged.stage (fun () ->
           let s = Sat.create () in
           let var i j = (i * 5) + j in
           for _ = 0 to 29 do
             ignore (Sat.new_var s)
           done;
           for i = 0 to 5 do
             Sat.add_clause s (List.init 5 (fun j -> Sat.pos (var i j)))
           done;
           for j = 0 to 4 do
             for i = 0 to 5 do
               for i' = i + 1 to 5 do
                 Sat.add_clause s [ Sat.neg (var i j); Sat.neg (var i' j) ]
               done
             done
           done;
           ignore (Sat.solve s)));
  ]

let run_micro () =
  let open Bechamel in
  heading "Micro-benchmarks (bechamel, OLS time per run)";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let nanos =
            match Analyze.OLS.estimates ols_result with
            | Some [ t ] -> t
            | _ -> nan
          in
          let pretty =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e9 then Printf.sprintf "%8.2f s " (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%8.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%8.2f us" (nanos /. 1e3)
            else Printf.sprintf "%8.0f ns" nanos
          in
          Printf.printf "  %-36s %s/run\n%!" name pretty)
        results)
    (micro_tests ())

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "Reproduction benches: Morris, Kroening, Koopman — \"Fault Tolerance \
     Tradeoffs in Moving from Decentralized to Centralized Embedded \
     Systems\" (DSN 2004)\n";
  if reach_only then section_reach ()
  else if sessions_only then section_sessions ()
  else if synth_only then section_synth ()
  else begin
    section5 ();
    section6 ();
    section_leaky ();
    section_sim ();
    section_extensions ();
    section_reach ();
    section_orders ();
    section_async ();
    section_walks ();
    section_sessions ();
    if not skip_micro then run_micro ()
  end;
  print_newline ()
