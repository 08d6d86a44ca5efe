(* The benchmark harness, one entry point for every measured artifact.

   With no subcommand it is the paper-tables run: every table/figure of
   the paper (one section per experiment id of DESIGN.md), then bechamel
   micro-benchmarks over the performance-critical kernels. The
   model-checking experiments are single-shot wall-clock rows (a 4-node
   SAT/BDD run is minutes, far outside bechamel's regime); the default
   uses 3-node clusters so a full run finishes in a few minutes — pass
   --paper-scale for the 4-node runs recorded in EXPERIMENTS.md.
   Numeric experiments re-verify the paper's constants on every run.
   It writes no committed file.

   Each subcommand produces exactly one committed artifact,
   BENCH_<subcommand>.json, stamped with its command, the host's core
   count and the checkout's commit, and exits 1 unless every acceptance
   check of that artifact holds:

     dune exec bench/main.exe -- bdd|bmc|sessions|synth|cluster|resilience|chaos *)

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
(* Provenance and gates *)

let nproc = Domain.recommended_domain_count ()

(* "+dirty" when tracked files differ from HEAD, so numbers measured on
   uncommitted changes are not credited to the commit; empty when they
   match or git cannot run. *)
let dirty () =
  if Sys.command "git diff --quiet HEAD >/dev/null 2>&1" = 1 then "+dirty"
  else ""

(* The commit HEAD names in the git checkout the bench runs from (its
   root, where the artifacts land), read from .git directly: a loose or
   packed ref, or a detached hash, suffixed by {!dirty}. "unknown"
   outside a git checkout. *)
let commit () =
  let read name =
    try
      Some
        (String.trim
           (In_channel.with_open_bin (Filename.concat ".git" name)
              In_channel.input_all))
    with Sys_error _ -> None
  in
  let head =
    match read "HEAD" with
    | Some h when String.starts_with ~prefix:"ref: " h -> (
        let r = String.sub h 5 (String.length h - 5) in
        match read r with
        | Some sha -> Some sha
        | None ->
            Option.bind (read "packed-refs") (fun packed ->
                List.find_map
                  (fun line ->
                    match String.split_on_char ' ' line with
                    | [ sha; r' ] when r' = r -> Some sha
                    | _ -> None)
                  (String.split_on_char '\n' packed)))
    | h -> h
  in
  match head with Some sha -> sha ^ dirty () | None -> "unknown"

let command args = String.concat " " ("dune exec bench/main.exe --" :: args)

(* The one writer of bench artifacts: provenance first, then the
   producer's own keys. *)
let write_artifact ~command path fields =
  Cli.write_json path
    (Json.Obj
       (("generated_by", Json.String command)
       :: ("nproc", Json.Int nproc)
       :: ("commit", Json.String (commit ()))
       :: fields));
  Printf.printf "machine-readable results written to %s\n%!" path

(* Named acceptance checks: report the failures, true iff none. *)
let gate checks =
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (name, _) -> Printf.printf "CHECK FAILED: %s\n" name) failed;
  Printf.printf "%d/%d checks pass\n%!"
    (List.length checks - List.length failed)
    (List.length checks);
  failed = []

(* A subcommand: run the producer, write BENCH_<stem>.json, and put its
   checks in the exit code. *)
let produce stem run =
  let fields, checks = run () in
  write_artifact ~command:(command [ stem ]) ("BENCH_" ^ stem ^ ".json") fields;
  exit (if gate checks then 0 else 1)

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

(* Section 5 through the portfolio pool; returns the machine-readable
   results (per-config outcome and wall time plus the full telemetry,
   whose records carry each run's counters) that CI uploads as
   BENCH_portfolio.json. *)
let section5 ~nodes ~paper_scale =
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
  [
    ("nodes", Json.Int nodes);
    ("paper_scale", Json.Bool paper_scale);
    ("matrix_wall_s", Json.Float dt);
    ("configs", Json.List (List.map row results));
    ("telemetry", Portfolio.Telemetry.to_json telemetry);
  ]

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
   per configuration (E1-E5). The committed BENCH_bdd.json is the 4-node
   run; test/test_bench.ml pins each of its rows' verdict, iteration
   count and trace length. Each row times the compile (Enc.create and
   Enc.schedule) apart from the fixpoint; at 4 nodes the run fails
   unless every row does exactly the pinned work below, so a compile
   or kernel speedup cannot pass by doing different work. Each row also
   records a peak resident set ([VmHWM], see [in_child]), since the
   kernel keeps every node it allocates for as long as the manager
   lives. E1-E3 are one transition system, so the run fails unless E2
   and E3 read within 5 % of E1. The reference is the
   seed's recorded 88-121 s per 4-node experiment, not a rerun: the
   monolithic relational product it used does not finish at paper
   scale in minutes. *)

let seed_reference_s = (88.0, 121.0)

(* (nodes_allocated, iterations, partitions, cache_hits, cache_misses)
   of E1-E5 at 4 nodes. *)
let paper_scale_work =
  [
    (1288952, 31, 14, 906870, 3829902);
    (1288952, 31, 14, 906870, 3829902);
    (1288952, 31, 14, 906870, 3829902);
    (491185, 14, 15, 362293, 1237393);
    (582963, 16, 15, 414020, 1553077);
  ]

(* The process's peak resident set so far in MB ([VmHWM]), 0 where
   /proc is not readable. *)
let vm_hwm_mb () =
  match In_channel.with_open_bin "/proc/self/status" In_channel.input_all with
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
                 float_of_int kb /. 1024.))
      |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* [f ()] run in a forked child, its result marshalled back through a
   pipe. [VmHWM] only ever grows within a process, and one fixpoint's
   peak depends on how much garbage the major GC has yet to sweep when
   it peaks: run back to back in one process with a [Gc.full_major]
   before each, the 4-node E1, E1 again, E2 and E3 (one transition
   system) read 84, 93, 94 and 107 MB on a 2-core host. In a child, a
   row's reading is its own peak plus the few MB the parent held at the
   fork. Where [Unix.fork] is refused (OCaml 5.1 refuses it in a
   process that has spawned a domain, as the paper run's portfolio
   has), [f ()] runs here after a full major collection, and the
   reading is a running maximum over the rows so far. *)
let in_child f =
  Gc.full_major ();
  flush stdout;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | exception Failure _ ->
      Unix.close r;
      Unix.close w;
      f ()
  | 0 ->
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result = Marshal.from_channel ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with Ok v -> v | Error e -> failwith e)

(* E1-E5: E1-E3 safe, E4/E5 violated. *)
let section5_configs ~nodes =
  [
    ("E1 passive", Tta_model.Configs.passive ~nodes ());
    ("E2 time-windows", Tta_model.Configs.time_windows ~nodes ());
    ("E3 small-shifting", Tta_model.Configs.small_shifting ~nodes ());
    ("E4 full-shifting", Tta_model.Configs.full_shifting ~nodes ());
    (* The C-state-duplication instance needs three participants. *)
    ( "E5 full-shifting-nodup",
      Tta_model.Configs.full_shifting ~nodes:(max 3 nodes)
        ~forbid_cold_start_duplication:true () );
  ]

let bad_of (cfg : Tta_model.Configs.t) =
  Tta_model.Props.integrated_node_frozen ~nodes:cfg.Tta_model.Configs.nodes

let section_reach ~nodes =
  heading
    "BDD reachability — Section 5 configurations, default tuning (%d nodes)"
    nodes;
  Printf.printf "  %-24s %-9s %4s %6s %9s %4s %8s %8s\n" "config" "verdict"
    "len" "iters" "peak" "gc" "compile" "time";
  let run_one (cfg_name, cfg) =
    let mgr = Bdd.create_manager () in
    let model = Tta_model.Build.model cfg in
    let enc, compile =
      timed (fun () ->
          let enc = Symkit.Enc.create mgr model in
          ignore (Symkit.Enc.schedule enc);
          enc)
    in
    let bad = bad_of cfg in
    let result, fixpoint =
      timed (fun () -> Symkit.Reach.check ~max_iterations:100 enc ~bad)
    in
    let wall = compile +. fixpoint in
    let verdict, trace_len, stats =
      match result with
      | Symkit.Reach.Safe s -> ("safe", 0, s)
      | Symkit.Reach.Unsafe (t, s) -> ("violated", Array.length t, s)
      | Symkit.Reach.Depth_exhausted s -> ("exhausted", 0, s)
    in
    let counter k = List.assoc k (Bdd.counters mgr) in
    let allocated = counter "bdd.nodes_allocated"
    and hits = counter "bdd.cache_hits"
    and misses = counter "bdd.cache_misses" in
    let partitions = Symkit.Enc.n_partitions enc in
    let hwm = vm_hwm_mb () in
    Printf.printf "  %-24s %-9s %4d %6d %9d %4d %7.3fs %7.2fs\n%!" cfg_name
      verdict trace_len stats.Symkit.Reach.iterations
      stats.Symkit.Reach.peak_nodes (Bdd.gc_count mgr) compile wall;
    ( Json.Obj
        [
          ("config", Json.String cfg_name);
          ("verdict", Json.String verdict);
          ("trace_len", Json.Int trace_len);
          ("iterations", Json.Int stats.Symkit.Reach.iterations);
          ("peak_nodes", Json.Int stats.Symkit.Reach.peak_nodes);
          ("partitions", Json.Int partitions);
          ("gc_count", Json.Int (Bdd.gc_count mgr));
          ("nodes_allocated", Json.Int allocated);
          ("bdd_peak_nodes", Json.Int (Bdd.peak_nodes mgr));
          ("cache_hits", Json.Int hits);
          ("cache_misses", Json.Int misses);
          ("vm_hwm_mb", Json.Float hwm);
          ("compile_s", Json.Float compile);
          ("wall_s", Json.Float wall);
        ],
      ( verdict,
        wall,
        (allocated, stats.Symkit.Reach.iterations, partitions, hits, misses),
        hwm ) )
  in
  let rows, outcomes =
    section5_configs ~nodes
    |> List.map (fun c -> in_child (fun () -> run_one c))
    |> List.split
  in
  let verdicts = List.map (fun (v, _, _, _) -> v) outcomes in
  let same_system_hwm =
    match List.map (fun (_, _, _, hwm) -> hwm) outcomes with
    | e1 :: e2 :: e3 :: _ ->
        List.for_all (fun h -> Float.abs (h -. e1) <= 0.05 *. e1) [ e2; e3 ]
    | _ -> false
  in
  let ref_lo, ref_hi = seed_reference_s in
  Printf.printf "  seed reference: %.0f-%.0fs per 4-node experiment\n%!" ref_lo
    ref_hi;
  ( [
      ("nodes", Json.Int nodes);
      ("paper_scale", Json.Bool (nodes = 4));
      ( "seed_reference_s",
        Json.Obj [ ("min", Json.Float ref_lo); ("max", Json.Float ref_hi) ] );
      ("rows", Json.List rows);
    ],
    [
      ( "E1-E3 safe, E4-E5 violated",
        verdicts = [ "safe"; "safe"; "safe"; "violated"; "violated" ] );
      ( "every row under 30 s",
        List.for_all (fun (_, w, _, _) -> w < 30.0) outcomes );
      ( "4 nodes: allocations, iterations, partitions and cache traffic \
         as pinned",
        nodes <> 4
        || List.map (fun (_, _, work, _) -> work) outcomes = paper_scale_work
      );
      ("E2 and E3 peak RSS within 5 % of E1's", same_system_hwm);
    ] )

(* ------------------------------------------------------------------ *)
(* E9: the SAT solver checks the BDD fixpoint as an inductive invariant
   (Symkit.Induction: initiation, safety, consecution). On the safe
   configurations the property alone is not 1-inductive, while the
   fixpoint is an inductive strengthening of it; on the unsafe ones the
   fixpoint holds a bad state. Always 3 nodes, also under
   --paper-scale: at 4 nodes the E1 check ran over 25 min. *)

let e9_nodes = 3

(* Total seconds of the spans named [name] on a collector; [None] when
   there is none. *)
let span_s col name =
  match Json.member "traceEvents" (Obs.Collector.chrome_trace col) with
  | Some (Json.List events) ->
      List.fold_left
        (fun acc e ->
          match (Json.member "ph" e, Json.member "name" e, Json.member "dur" e) with
          | Some (Json.String "X"), Some (Json.String n), Some (Json.Float us)
            when n = name ->
              Some (Option.value ~default:0. acc +. (us /. 1e6))
          | _ -> acc)
        None events
  | _ -> None

let section_e9 () =
  heading "E9 invariant check (%d nodes)" e9_nodes;
  Printf.printf "  %-24s %-9s %-18s %7s %11s %8s %12s\n" "config" "invariant"
    "result" "total" "initiation" "safety" "consecution";
  let run_one (name, cfg) =
    let enc =
      Symkit.Enc.create (Bdd.create_manager ()) (Tta_model.Build.model cfg)
    in
    let bad = bad_of cfg in
    let check label inv =
      let col = Obs.Collector.create () in
      let obs = Obs.Collector.track col label in
      let result, total =
        timed (fun () -> Symkit.Induction.check ~obs enc ~inv ~bad)
      in
      (* "-": the check stopped before this obligation. *)
      let cell o =
        match span_s col ("induction." ^ o) with
        | Some t -> Printf.sprintf "%.2fs" t
        | None -> "-"
      in
      Printf.printf "  %-24s %-9s %-18s %6.2fs %11s %8s %12s\n%!" name label
        (Symkit.Induction.result_to_string result)
        total (cell "initiation") (cell "safety") (cell "consecution");
      result
    in
    let fixpoint = check "fixpoint" (Symkit.Reach.reachable_set enc) in
    let not_bad =
      check "not-bad" (Bdd.dnot (Symkit.Enc.mgr enc) (Symkit.Enc.pred enc bad))
    in
    (fixpoint, not_bad)
  in
  let outcomes = List.map run_one (section5_configs ~nodes:e9_nodes) in
  let safe = List.filteri (fun i _ -> i < 3) outcomes in
  let unsafe = List.filteri (fun i _ -> i >= 3) outcomes in
  let open Symkit.Induction in
  [
    ( "E9: E1-E3 fixpoint inductive, not-bad fails consecution",
      List.for_all (( = ) (Inductive, Fails Consecution)) safe );
    ( "E9: E4/E5 fixpoint fails safety",
      List.for_all (fun (fixpoint, _) -> fixpoint = Fails Safety) unsafe );
  ]

(* ------------------------------------------------------------------ *)
(* E9's counterexample at paper scale through SAT-BMC: 4-node full
   shifting to depth 15, the paper's slowest artifact. Its search
   counters are pinned, so a solver change that is meant as a pure
   speed change must reproduce them exactly and can only move the
   times. *)

let bmc_nodes = 4
let bmc_depth = 15
let bmc_trace_len = 15

(* sat.conflicts, sat.decisions, sat.propagations *)
let bmc_search_pin = [ 53235; 255858; 98468918 ]

let section_bmc () =
  heading "E9 counterexample through SAT-BMC (%d nodes, depth %d)" bmc_nodes
    bmc_depth;
  let cfg = Tta_model.Configs.full_shifting ~nodes:bmc_nodes () in
  let col = Obs.Collector.create () in
  let obs = Obs.Collector.track col "bmc" in
  let engine = Tta_model.Engine.get Tta_model.Engine.Sat_bmc in
  let r, wall =
    timed (fun () -> engine.Tta_model.Engine.run ~obs ~max_depth:bmc_depth cfg)
  in
  let trace_len, valid =
    match r.Tta_model.Engine.verdict with
    | Tta_model.Engine.Violated { trace; model } ->
        (Array.length trace, Result.is_ok (Symkit.Trace.validate model trace))
    | _ -> (0, false)
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name r.Tta_model.Engine.counters)
  in
  let conflicts = counter "sat.conflicts"
  and decisions = counter "sat.decisions"
  and propagations = counter "sat.propagations" in
  let verdict = if trace_len > 0 then "violated" else "not violated" in
  let seconds name = Option.value ~default:0. (span_s col name) in
  let solve_s = seconds "bmc.solve_depth" and unroll_s = seconds "bmc.unroll" in
  let props_per_s = float_of_int propagations /. solve_s in
  Printf.printf
    "  verdict: %s, %d-state trace (%s)\n\
    \  conflicts %d, decisions %d, propagations %d\n\
    \  solve %.2fs, unroll %.2fs, wall %.2fs, %.2fM propagations/s\n%!"
    verdict trace_len
    (if valid then "validated" else "INVALID")
    conflicts decisions propagations solve_s unroll_s wall (props_per_s /. 1e6);
  let row =
    Json.Obj
      [
        ("config", Json.String "E9 full-shifting");
        ("verdict", Json.String verdict);
        ("trace_len", Json.Int trace_len);
        ("trace_valid", Json.Bool valid);
        ("conflicts", Json.Int conflicts);
        ("decisions", Json.Int decisions);
        ("propagations", Json.Int propagations);
        ("solve_s", Json.Float solve_s);
        ("unroll_s", Json.Float unroll_s);
        ("wall_s", Json.Float wall);
        ("propagations_per_s", Json.Float props_per_s);
      ]
  in
  ( [
      ("nodes", Json.Int bmc_nodes);
      ("max_depth", Json.Int bmc_depth);
      ("rows", Json.List [ row ]);
    ],
    [
      ( Printf.sprintf "violated by a valid %d-state trace" bmc_trace_len,
        trace_len = bmc_trace_len && valid );
      ( "conflicts, decisions and propagations as pinned",
        [ conflicts; decisions; propagations ] = bmc_search_pin );
    ] )

(* ------------------------------------------------------------------ *)
(* E15: sensitivity of the BDD engine to the variable order, measured
   as peak BDD size and proof time of the passive-configuration
   fixpoint. All orders must agree on the verdict. *)

let section_orders ~nodes =
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

let section_walks ~paper_scale =
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
   Its checks: warm answers equal cold ones, the pool is actually hit,
   and the warm p50 clears 1.5x. *)

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
  ( [
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
    ],
    [
      ("cold and warm verdicts agree", !all_agree);
      ("reused > 0", reused > 0);
      ("speedup_p50 >= 1.5", speedup_p50 >= 1.5);
    ] )

(* ------------------------------------------------------------------ *)
(* In-process daemons and routers over real worker processes *)

let temp_dir label = Filename.temp_dir "tta_bench_" ("_" ^ label)

(* A two-domain tta_served on a scratch socket, drained after [f]. *)
let with_server ?cache ?sessions ?faults ~label f =
  let sock = Filename.concat (temp_dir label) "served.sock" in
  let server =
    Service.Server.start ~workers:2 ?cache ?sessions ?faults
      (Service.Net.Unix_socket sock)
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Service.Server.wait server)
    (fun () -> f (Service.Server.bound_addr server))

(* _build/default/bench/main.exe -> _build/default/bin/tta_served.exe;
   bench/dune makes the daemon a link dependency of this executable, so
   building one builds both. *)
let served_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "tta_served.exe")

(* A router over [workers] fresh tta_served processes sharing a scratch
   verdict cache. [f] runs only once the whole fleet is up: a row
   measures steady-state capacity, not daemon boot. 1200 vnodes pins a
   key->worker assignment that stays balanced at every fleet size (at
   most 4/3/2 of the 8 routing keys on one worker at 2/4/8 workers);
   the serve-mode default is coarser. Returns [f]'s result with the
   router's own counters. *)
let with_router ?faults ?hedge_ms ?breaker_window ?health_interval
    ?health_timeout ?(worker_args = []) ~label ~workers f =
  let dir = temp_dir label in
  let ready = Atomic.make 0 in
  let router =
    Cluster.Router.start ~vnodes:1200 ?faults ?hedge_ms ?breaker_window
      ?health_interval ?health_timeout
      ~on_event:(function
        | Cluster.Router.Worker_ready _ -> Atomic.incr ready
        | _ -> ())
      ~exe:served_exe
      ~worker_args:
        ([ "--cache-dir"; Filename.concat dir "cache"; "--workers"; "1";
           "--queue-cap"; "256" ]
        @ worker_args)
      ~workers
      (Service.Net.Unix_socket (Filename.concat dir "router.sock"))
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.stop router;
      Cluster.Router.wait router)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get ready < workers && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if Atomic.get ready < workers then
    failwith (label ^ ": workers failed to become ready");
  let r = f (Cluster.Router.bound_addr router) in
  (r, Cluster.Router.stats router)

(* A load-generator report's keys, for a row to prepend its own to. *)
let report_fields ~mode r =
  match Service.Loadgen.report_to_json ~mode r with
  | Json.Obj kvs -> kvs
  | _ -> assert false

let verdicts (r : Service.Loadgen.report) = (r.holds, r.violated, r.unknown)

let stream_configs =
  [ "passive"; "time-windows"; "small-shifting"; "full-shifting" ]

let stream_nodes = [ 2; 3 ]

let strings l = Json.List (List.map (fun s -> Json.String s) l)
let ints l = Json.List (List.map (fun n -> Json.Int n) l)

(* ------------------------------------------------------------------ *)
(* Guardian design-space synthesis: the Section 6 sweep, once on the
   in-process pool and once as wire traffic against an in-process
   daemon whose session pool the sweep is meant to keep warm. Both
   paths must reject, agree on every verdict and reach the same
   non-empty frontier, the paper's. *)

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
  let service =
    with_server ~sessions:(Sessions.create ()) ~label:"synth" (fun addr ->
        Synthesis.run ~seed ~sample ~nodes:snodes
          ~via:(Synthesis.Service addr) space)
  in
  let agree =
    Synthesis.verdict_summary direct = Synthesis.verdict_summary service
  in
  let frontier_keys r =
    List.map
      (fun p -> Synthesis.Space.candidate_key p.Synthesis.Pareto.candidate)
      r.Synthesis.frontier
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
  ( [
      ("nodes", Json.Int snodes);
      ("seed", Json.Int seed);
      ("space_size", Json.Int direct.Synthesis.space_size);
      ("candidates", Json.Int direct.Synthesis.candidates);
      ("rejected", Json.Int direct.Synthesis.rejected);
      ( "rejections",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) direct.Synthesis.rejections)
      );
      ("survivors", Json.Int direct.Synthesis.survivors);
      ("upheld", Json.Int direct.Synthesis.upheld);
      ("breached", Json.Int direct.Synthesis.breached);
      ("undetermined", Json.Int direct.Synthesis.undetermined);
      ("envelope_agreement", Json.Bool direct.Synthesis.envelope_agreement);
      ("frontier_size", Json.Int (List.length direct.Synthesis.frontier));
      ( "frontier",
        Json.List (List.map Synthesis.Pareto.to_json direct.Synthesis.frontier)
      );
      ("paper_frontier", Json.Bool (Synthesis.paper_frontier_ok direct));
      ("candidates_per_s", Json.Float direct.Synthesis.candidates_per_s);
      ("wall_s", Json.Float direct.Synthesis.wall_s);
      ("verdicts_agree", Json.Bool agree);
      ("service_requests", Json.Int requests);
      ("session_reuses", Json.Int service.Synthesis.session_reuses);
      ("session_reuse_rate", Json.Float reuse_rate);
      ("service_wall_s", Json.Float service.Synthesis.wall_s);
    ],
    [
      ("candidates >= 200", direct.Synthesis.candidates >= 200);
      ("rejected > 0", direct.Synthesis.rejected > 0);
      ("service rejected > 0", service.Synthesis.rejected > 0);
      ("direct envelope agreement", direct.Synthesis.envelope_agreement);
      ("service envelope agreement", service.Synthesis.envelope_agreement);
      ("paper frontier", Synthesis.paper_frontier_ok direct);
      ("service paper frontier", Synthesis.paper_frontier_ok service);
      ("direct and service verdicts agree", agree);
      ( "direct and service frontiers equal and non-empty",
        frontier_keys direct = frontier_keys service
        && frontier_keys direct <> [] );
      ("session reuse rate > 0.5", reuse_rate > 0.5);
    ] )

(* ------------------------------------------------------------------ *)
(* Cluster scaling: 1 -> 2 -> 4 -> 8 workers.

   Every request carries an injected [engine_start=stall] fault in the
   worker, a deterministic per-attempt service-time floor. That floor,
   not engine CPU, dominates the workload — deliberately: it makes the
   scaling curve measure the cluster fabric (routing, sharding,
   supervision overhead) identically on a single-core container and a
   many-core CI runner, where honest CPU-bound scaling would measure
   the host instead. The engine runs are real but depth-capped short
   of conclusiveness (that keeps CPU under the floor); every row must
   report identical verdict counts, and verdict fidelity under
   failover is the CI cluster smoke's job (conclusive depths). *)

let cluster_requests = 64
let cluster_concurrency = 16
let cluster_stall = "1:engine_start=stall900"
let cluster_fleets = [ 1; 2; 4; 8 ]

(* Shallow depths keep the honest per-request CPU well under the
   injected stall; the spread still defeats coalescing. *)
let cluster_depths = List.init 8 (fun i -> 2 + i)

(* Eight distinct transition systems, so eight routing keys: passive
   stands for the three non-buffering couplers, which build one
   system and so share a key, and full shifting is the other system,
   each at 2 to 5 nodes. A 5-node run at these depths stays under half
   the stall. *)
let cluster_configs = [ "passive"; "full-shifting" ]
let cluster_nodes = [ 2; 3; 4; 5 ]

let section_cluster () =
  heading "Cluster scaling — %s workers"
    (String.concat "/" (List.map string_of_int cluster_fleets));
  let mode = Service.Loadgen.Closed_loop cluster_concurrency in
  let rows =
    List.map
      (fun n ->
        let r, _ =
          with_router ~label:(Printf.sprintf "w%d" n) ~workers:n
            ~worker_args:[ "--chaos"; cluster_stall ]
            (Service.Loadgen.run ~seed:20 ~exhaustive:true
               ~nodes_choices:cluster_nodes ~depths:cluster_depths
               ~configs:cluster_configs ~engines:[ "bdd" ] ~retry_budget:2 ~mode
               ~requests:cluster_requests)
        in
        Printf.printf
          "  %d workers: %.1f req/s (%d ok, %d errors, imbalance %.2f)\n%!" n
          r.Service.Loadgen.throughput_rps r.Service.Loadgen.ok
          r.Service.Loadgen.protocol_errors r.Service.Loadgen.imbalance;
        (n, r))
      cluster_fleets
  in
  let first = snd (List.hd rows) in
  let speedup (r : Service.Loadgen.report) =
    r.throughput_rps /. Float.max 1e-9 first.throughput_rps
  in
  let at_max = speedup (snd (List.hd (List.rev rows))) in
  ( [
      ("bench", Json.String "cluster_scaling");
      ( "workload",
        Json.Obj
          [
            ("requests", Json.Int cluster_requests);
            ("concurrency", Json.Int cluster_concurrency);
            ("seed", Json.Int 20);
            ("exhaustive", Json.Bool true);
            ("vnodes", Json.Int 1200);
            ("engine", Json.String "bdd");
            ("configs", strings cluster_configs);
            ("nodes_choices", ints cluster_nodes);
            ("depths", ints cluster_depths);
            ("chaos", Json.String cluster_stall);
            ( "note",
              Json.String
                "Each engine attempt carries a deterministic injected stall \
                 as a service-time floor, so the curve measures \
                 cluster-fabric scaling (consistent-hash sharding, routing, \
                 supervision) rather than raw engine CPU — host-independent, \
                 honest on a single-core container. Shards are model \
                 fingerprints, which hash content and not names: 2 \
                 transition systems (passive standing for the three \
                 non-buffering couplers, and full shifting) x 4 node \
                 counts = 8 routing keys over the worker ring. The \
                 shallow depth bound keeps CPU \
                 under the stall floor at the cost of mostly inconclusive \
                 verdicts; rows must agree on verdict counts, and verdict \
                 fidelity under failover is pinned by the CI cluster smoke \
                 at conclusive depths." );
          ] );
      ( "rows",
        Json.List
          (List.map
             (fun (n, r) ->
               Json.Obj
                 (("workers", Json.Int n)
                 :: ("speedup", Json.Float (speedup r))
                 :: report_fields ~mode r))
             rows) );
      ("speedup_at_max_workers", Json.Float at_max);
    ],
    List.map
      (fun (n, (r : Service.Loadgen.report)) ->
        ( Printf.sprintf "%d workers: no protocol errors" n,
          r.protocol_errors = 0 ))
      rows
    @ [
        (* The same seeded stream must yield the same verdict counts no
           matter how many workers served it — sharding must not change
           answers. *)
        ( "rows agree on verdict counts",
          List.for_all
            (fun (_, (r : Service.Loadgen.report)) ->
              (r.ok, verdicts r) = (first.ok, verdicts first))
            rows );
        ("speedup_at_max_workers >= 3.0", at_max >= 3.0);
      ] )

(* ------------------------------------------------------------------ *)
(* Resilience: availability and tail latency under seeded link chaos,
   hedging on vs off.

   One closed-loop (concurrency 1) seeded stream per row, so the
   router<->worker line sequence — and therefore which line a capped
   link fault hits — is deterministic: the health interval is pushed
   past the row's duration (no heartbeat lines compete for the fault
   caps) and the fault caps are x1. The delay rows inject one 2 s
   tail-latency event on the first worker response; with hedging off
   it lands in p99 whole, with hedging on the duplicate leg answers at
   about the hedge delay. The drop row loses the first forwarded
   request line outright; the hedge leg is the only recovery inside
   the bench's horizon (the retransmit net sits at 3x the stretched
   health timeout), so zero lost requests demonstrates it working.
   Verdict fidelity is enforced against a direct in-process
   Service.Server run of the same stream — chaos and hedging may move
   latency, never answers. *)

let res_requests = 24
let res_hedge_ms = 150
let res_breaker_window = 8
let res_delay_spec = "9:link_recv=delay2000x1"
let res_drop_spec = "9:link_send=dropx1"
let res_depths = [ 32; 36; 40 ]
let res_mode = Service.Loadgen.Closed_loop 1

let res_loadgen =
  Service.Loadgen.run ~seed:20 ~exhaustive:true ~nodes_choices:stream_nodes
    ~depths:res_depths ~configs:stream_configs ~engines:[ "bdd" ]
    ~retry_budget:3 ~mode:res_mode ~requests:res_requests

let section_resilience () =
  heading "Resilience — hedging under seeded link chaos (%d requests)"
    res_requests;
  let direct = with_server ~label:"direct" res_loadgen in
  let row (label, chaos, hedge_ms) =
    let faults = Cli.faults_of_chaos chaos in
    let r, s =
      with_router ~label ~workers:2 ~faults ~hedge_ms
        ~breaker_window:res_breaker_window ~health_interval:60.
        ~health_timeout:120. res_loadgen
    in
    (* The router's own counters are authoritative: hedges whose
       duplicate leg lost the race are invisible in response
       annotations, and breaker trips never reach the wire at all. *)
    let r =
      {
        r with
        Service.Loadgen.hedged = s.Cluster.Router.hedged;
        breaker_opens = s.Cluster.Router.breaker_opens;
      }
    in
    Printf.printf
      "  %s: %d ok, %d degraded, %.1fms p99, %d hedged, %d retries\n%!" label
      r.ok r.degraded r.p99_ms r.hedged r.retries;
    (label, chaos, hedge_ms, r, Resilience.Faults.injections faults)
  in
  let rows =
    List.map row
      [
        ("baseline", None, 0);
        ("delay_hedge_off", Some res_delay_spec, 0);
        ("delay_hedge_on", Some res_delay_spec, res_hedge_ms);
        ("drop_hedge_on", Some res_drop_spec, res_hedge_ms);
      ]
  in
  let find label =
    let _, _, _, r, _ = List.find (fun (l, _, _, _, _) -> l = label) rows in
    r
  in
  let off = find "delay_hedge_off" and on_ = find "delay_hedge_on" in
  ( [
      ("bench", Json.String "cluster_resilience");
      ( "workload",
        Json.Obj
          [
            ("requests", Json.Int res_requests);
            ("concurrency", Json.Int 1);
            ("seed", Json.Int 20);
            ("exhaustive", Json.Bool true);
            ("workers", Json.Int 2);
            ("engine", Json.String "bdd");
            ("configs", strings stream_configs);
            ("nodes_choices", ints stream_nodes);
            ("depths", ints res_depths);
            ("hedge_ms", Json.Int res_hedge_ms);
            ("breaker_window", Json.Int res_breaker_window);
            ( "note",
              Json.String
                "Closed-loop concurrency 1 with the heartbeat interval pushed \
                 past the row duration makes the router<->worker line \
                 sequence deterministic, so the x1-capped link faults hit \
                 the same line on every run: the delay rows inject one 2 s \
                 tail-latency event on the first worker response (whole in \
                 p99 with hedging off, absorbed at about the hedge delay \
                 with hedging on), and the drop row loses the first \
                 forwarded request, recovered by the hedge leg. Verdict \
                 counts must equal the direct in-process single-daemon run \
                 of the same stream — chaos and hedging move latency, never \
                 answers." );
          ] );
      ("direct_reference", Json.Obj (report_fields ~mode:res_mode direct));
      ( "rows",
        Json.List
          (List.map
             (fun (label, chaos, hedge, (r : Service.Loadgen.report), fired) ->
               Json.Obj
                 ([
                    ("row", Json.String label);
                    ( "chaos",
                      Option.fold ~none:Json.Null
                        ~some:(fun s -> Json.String s)
                        chaos );
                    ("hedge_ms", Json.Int hedge);
                    ( "availability",
                      Json.Float
                        (float_of_int (r.ok + r.degraded)
                        /. float_of_int (max 1 r.requests)) );
                    ( "injections",
                      Json.Obj
                        (List.map (fun (rule, n) -> (rule, Json.Int n)) fired)
                    );
                  ]
                 @ report_fields ~mode:res_mode r))
             rows) );
      ( "hedge_p99_speedup",
        Json.Float (off.p99_ms /. Float.max 1e-9 on_.p99_ms) );
    ],
    List.concat_map
      (fun (label, _, _, (r : Service.Loadgen.report), _) ->
        [
          (label ^ ": no protocol errors", r.protocol_errors = 0);
          (label ^ ": no lost requests", r.ok + r.degraded = r.requests);
          ( label ^ ": verdicts equal the direct reference",
            verdicts r = verdicts direct );
        ])
      rows
    @ [
        ("four rows", List.length rows = 4);
        ("hedging improves p99 under delay chaos", on_.p99_ms < off.p99_ms);
        ("delay_hedge_on hedged", on_.hedged > 0);
        ("drop_hedge_on hedged", (find "drop_hedge_on").hedged > 0);
      ] )

(* ------------------------------------------------------------------ *)
(* Chaos: a seeded 50-request stream against a daemon with
   deterministic fault injection armed — engine-start crashes,
   safepoint stalls, cache-read corruption and socket aborts. The
   supervisor and the load generator's retry budget must get every
   request answered with the verdict counts of the same stream without
   the spec, while the retries and cache quarantines show the faults
   actually fired. That fault-free reference run must itself answer
   every request cleanly and dedup some of them (cache hits or
   coalesced runs). *)

let chaos_spec =
  "7:engine_start=crash@0.2x8,engine_step=stall30@0.1x8,\
   cache_read=corrupt@0.3x6,sock_send=crashx2"

let chaos_requests = 50

let section_chaos () =
  heading "Chaos — %d requests under %s" chaos_requests chaos_spec;
  let mode = Service.Loadgen.Closed_loop 4 in
  let run label chaos =
    let faults = Cli.faults_of_chaos chaos in
    let cache =
      Portfolio.Cache.create
        ~dir:(Filename.concat (temp_dir "chaos") "cache")
        ~faults ()
    in
    let r =
      with_server ~cache ~faults ~label:"chaos"
        (Service.Loadgen.run ~seed:7 ~nodes:2 ~depth:20 ~retry_budget:3 ~mode
           ~requests:chaos_requests)
    in
    Format.printf "  %s:@.%a" label Service.Loadgen.pp_report r;
    (r, Portfolio.Cache.quarantined cache, Resilience.Faults.injections faults)
  in
  let reference, _, _ = run "fault-free reference" None in
  let r, quarantined, fired = run "under chaos" (Some chaos_spec) in
  ( report_fields ~mode r
    @ [
        ("chaos", Json.String chaos_spec);
        ("reference", Json.Obj (report_fields ~mode reference));
        ("quarantined", Json.Int quarantined);
        ( "injections",
          Json.Obj (List.map (fun (rule, n) -> (rule, Json.Int n)) fired) );
      ],
    [
      ( "reference: ok = requests = 50",
        reference.ok = reference.requests
        && reference.requests = chaos_requests );
      ("reference: no protocol errors", reference.protocol_errors = 0);
      ( "reference: cache hits + coalesced > 0",
        reference.cache_hits + reference.coalesced > 0 );
      ("ok = requests = 50", r.ok = r.requests && r.requests = chaos_requests);
      ("no protocol errors", r.protocol_errors = 0);
      ( "verdict counts equal the fault-free reference",
        verdicts r = verdicts reference );
      ("retries > 0", r.retries > 0);
      ("cache quarantined > 0", quarantined > 0);
    ] )

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

(* The paper-tables run. Its checks are those of the reach, E9 and
   sessions sections, whose tables it prints, and that the BENCH_portfolio.json
   it writes parses; the artifacts those sections feed are their
   subcommands' to write. *)
let paper_run paper_scale no_micro =
  let nodes = if paper_scale then 4 else 3 in
  let command =
    command
      ((if paper_scale then [ "--paper-scale" ] else [])
      @ if no_micro then [ "--no-micro" ] else [])
  in
  Printf.printf "%s (nproc %d, commit %s)\n" command nproc (commit ());
  Printf.printf
    "Reproduction benches: Morris, Kroening, Koopman — \"Fault Tolerance \
     Tradeoffs in Moving from Decentralized to Centralized Embedded \
     Systems\" (DSN 2004)\n";
  write_artifact ~command "BENCH_portfolio.json"
    (section5 ~nodes ~paper_scale);
  let portfolio_parses =
    Result.is_ok
      (Json.of_string
         (In_channel.with_open_bin "BENCH_portfolio.json" In_channel.input_all))
  in
  section6 ();
  section_leaky ();
  section_sim ();
  section_extensions ();
  let _, reach_checks = section_reach ~nodes in
  let e9_checks = section_e9 () in
  section_orders ~nodes;
  section_async ();
  section_walks ~paper_scale;
  let _, sessions_checks = section_sessions () in
  if not no_micro then run_micro ();
  print_newline ();
  let checks =
    (("BENCH_portfolio.json parses", portfolio_parses) :: reach_checks)
    @ e9_checks @ sessions_checks
  in
  exit (if gate checks then 0 else 1)

let () =
  let open Cmdliner in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let paper =
    Term.(
      const paper_run
      $ flag "paper-scale" "Run the model-checking rows at the paper's 4 nodes."
      $ flag "no-micro" "Skip the bechamel micro-benchmarks.")
  in
  let artifact stem run doc =
    Cmd.v
      (Cmd.info stem ~doc:(Printf.sprintf "Write BENCH_%s.json: %s" stem doc))
      Term.(const (fun () -> produce stem run) $ const ())
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:paper
          (Cmd.info "main"
             ~doc:
               "Reproduction benches: the paper's tables, or one committed \
                artifact per subcommand")
          [
            artifact "bdd"
              (fun () -> section_reach ~nodes:4)
              "the 4-node E1-E5 BDD fixpoints.";
            artifact "bmc" section_bmc
              "E9's 4-node counterexample through SAT-BMC, search pinned.";
            artifact "sessions" section_sessions
              "warm vs cold solver sessions on a near-miss stream.";
            artifact "synth" section_synth
              "the guardian synthesis sweep, direct and through a daemon.";
            artifact "cluster" section_cluster
              "router throughput at 1, 2, 4 and 8 workers.";
            artifact "resilience" section_resilience
              "availability and p99 under link chaos, hedging off and on.";
            artifact "chaos" section_chaos
              "a daemon under engine, cache and socket fault injection.";
          ]))
