(* Cluster router: one Protocol socket in front of N supervised
   tta_served worker processes, sharded by consistent hashing.

   Examples:
     tta_cluster --socket /tmp/tta.sock --workers 4
     tta_cluster --socket 127.0.0.1:7171 --workers 4 \
                 --cache-dir _cache --chaos '7:engine_start=crash@0.2x3'
     tta_cluster --bench --json BENCH_cluster.json

   Architecture, failover and benchmark methodology: doc/cluster.md.
   Send SIGTERM (or SIGINT) for a graceful drain. *)

let default_served_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "tta_served.exe"

let rec mkdir_p d =
  if d <> "" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* One stable line per supervision event — CI and the tests grep
   these, so the shapes are part of the tool's interface. *)
let print_event ev =
  (match (ev : Cluster.Router.event) with
  | Cluster.Router.Worker_spawned { name; pid } ->
      Printf.printf "tta_cluster: event spawn %s pid=%d\n" name pid
  | Cluster.Router.Worker_ready { name; addr } ->
      Printf.printf "tta_cluster: event ready %s addr=%s\n" name addr
  | Cluster.Router.Worker_exited { name; reason } ->
      Printf.printf "tta_cluster: event exit %s reason=%s\n" name reason
  | Cluster.Router.Worker_backoff { name; delay_s } ->
      Printf.printf "tta_cluster: event backoff %s delay=%.3f\n" name delay_s
  | Cluster.Router.Worker_gave_up { name } ->
      Printf.printf "tta_cluster: event gave-up %s\n" name
  | Cluster.Router.Rerouted { id; worker } ->
      Printf.printf "tta_cluster: event reroute id=%s worker=%s\n" id worker
  | Cluster.Router.Killed_by_request { name; nth } ->
      Printf.printf "tta_cluster: event kill %s nth=%d\n" name nth
  | Cluster.Router.Breaker_opened { name } ->
      Printf.printf "tta_cluster: event breaker-open %s\n" name
  | Cluster.Router.Breaker_closed { name } ->
      Printf.printf "tta_cluster: event breaker-close %s\n" name
  | Cluster.Router.Hedged { id; worker } ->
      Printf.printf "tta_cluster: event hedge id=%s worker=%s\n" id worker);
  flush stdout

let worker_args ~cache_dir ~cache_max ~sched_workers ~queue_cap ~sessions
    ~chaos =
  [ "--cache-dir"; cache_dir; "--workers"; string_of_int sched_workers;
    "--queue-cap"; string_of_int queue_cap ]
  @ (match cache_max with
    | Some n -> [ "--cache-max-entries"; string_of_int n ]
    | None -> [])
  @ (if sessions then [ "--sessions" ] else [])
  @ match chaos with Some spec -> [ "--chaos"; spec ] | None -> []

let print_stats router =
  let s = Cluster.Router.stats router in
  Printf.printf "tta_cluster: forwarded %s\n"
    (if s.Cluster.Router.forwarded = [] then "(nothing)"
     else
       String.concat ", "
         (List.map
            (fun (w, n) -> Printf.sprintf "%s:%d" w n)
            s.Cluster.Router.forwarded));
  Printf.printf
    "tta_cluster: %d rerouted, %d worker restarts, %d hedged, %d breaker \
     opens\n\
     %!"
    s.Cluster.Router.rerouted s.Cluster.Router.restarts
    s.Cluster.Router.hedged s.Cluster.Router.breaker_opens

(* ------------------------------------------------------------------ *)
(* Serve mode *)

let serve socket workers served_exe cache_dir cache_max sched_workers
    queue_cap sessions chaos hedge_ms breaker_window vnodes max_restarts
    restart_window kill_after grace =
  let addr = Cli.socket_addr ~exe:"tta_cluster" socket in
  mkdir_p cache_dir;
  (* The same spec arms two registries: each worker daemon's (where the
     engine_*/cache_*/sock_* points live) via --chaos pass-through, and
     the router's own (where the link_* points fire, per router<->worker
     line). Each registry draws its own deterministic decision stream
     from the seed. *)
  let faults = Cli.faults_of_chaos chaos in
  let router =
    match
      Cluster.Router.start ~vnodes ~max_restarts
        ~restart_window_s:restart_window ?kill_after ~grace ~faults ~hedge_ms
        ~breaker_window ~on_event:print_event ~exe:served_exe
        ~worker_args:
          (worker_args ~cache_dir ~cache_max ~sched_workers ~queue_cap
             ~sessions ~chaos)
        ~workers addr
    with
    | r -> r
    | exception Unix.Unix_error (e, _, _) ->
        Cli.cannot_listen ~exe:"tta_cluster" addr e
  in
  let bound = Cluster.Router.bound_addr router in
  print_endline (Service.Net.ready_line bound);
  Printf.printf "tta_cluster: routing %s across %d workers (cache %s)\n%!"
    (Service.Net.addr_to_string bound)
    workers cache_dir;
  Service.Net.stop_on_signals (fun () -> Cluster.Router.stop router);
  Cluster.Router.wait router;
  print_stats router;
  if Resilience.Faults.enabled faults then begin
    Printf.printf "chaos: router spec %s\n" (Resilience.Faults.to_spec faults);
    List.iter
      (fun (rule, n) -> Printf.printf "  %-28s fired %d\n" rule n)
      (Resilience.Faults.injections faults)
  end;
  Printf.printf "tta_cluster: drained, bye\n%!"

(* ------------------------------------------------------------------ *)
(* Benchmark mode: 1 -> 2 -> 4 -> 8 worker scaling

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

let bench_configs =
  [ "passive"; "time-windows"; "small-shifting"; "full-shifting" ]

let bench_one ~served_exe ~requests ~concurrency ~stall_ms ~nodes_choices
    ~depths ~n =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tta_cluster_bench_%d_w%d" (Unix.getpid ()) n)
  in
  mkdir_p dir;
  let cache_dir = Filename.concat dir "cache" in
  mkdir_p cache_dir;
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let ready = Atomic.make 0 in
  (* 1200 vnodes pins a key->worker assignment that stays balanced at
     every bench fleet size (max 4/3/2 of the 8 routing keys on one
     worker at 2/4/8 workers); the serve-mode default is coarser. *)
  let router =
    Cluster.Router.start ~vnodes:1200
      ~on_event:(function
        | Cluster.Router.Worker_ready _ -> Atomic.incr ready
        | _ -> ())
      ~exe:served_exe
      ~worker_args:
        (worker_args ~cache_dir ~cache_max:None ~sched_workers:1
           ~queue_cap:256 ~sessions:false
           ~chaos:(Some (Printf.sprintf "1:engine_start=stall%d" stall_ms)))
      ~workers:n addr
  in
  (* Start the clock only once the whole fleet is up: the row should
     measure steady-state capacity, not daemon boot time. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get ready < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if Atomic.get ready < n then begin
    prerr_endline "tta_cluster: bench workers failed to become ready";
    exit 1
  end;
  let report =
    Service.Loadgen.run ~seed:20 ~exhaustive:true ~nodes_choices ~depths
      ~configs:bench_configs ~engines:[ "bdd" ] ~retry_budget:2
      ~mode:(Service.Loadgen.Closed_loop concurrency)
      ~requests addr
  in
  Cluster.Router.stop router;
  Cluster.Router.wait router;
  report

let bench served_exe requests concurrency stall_ms json_path =
  (* Shallow depths keep the honest per-request CPU well under the
     injected stall (the floor must dominate for the curve to measure
     the fabric); the spread still defeats coalescing. *)
  let nodes_choices = [ 2; 3 ] and depths = List.init 8 (fun i -> 2 + i) in
  let fleet_sizes = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun n ->
        Printf.printf "tta_cluster: bench %d worker%s...\n%!" n
          (if n = 1 then "" else "s");
        let r =
          bench_one ~served_exe ~requests ~concurrency ~stall_ms
            ~nodes_choices ~depths ~n
        in
        Printf.printf
          "  %d workers: %.1f req/s (%d ok, %d errors, imbalance %.2f)\n%!" n
          r.Service.Loadgen.throughput_rps r.Service.Loadgen.ok
          r.Service.Loadgen.protocol_errors r.Service.Loadgen.imbalance;
        (n, r))
      fleet_sizes
  in
  let base =
    match rows with
    | (1, r) :: _ -> r.Service.Loadgen.throughput_rps
    | _ -> assert false
  in
  let speedup r = r.Service.Loadgen.throughput_rps /. Float.max 1e-9 base in
  let row_json (n, r) =
    Json.Obj
      [
        ("workers", Json.Int n);
        ("throughput_rps", Json.Float r.Service.Loadgen.throughput_rps);
        ("speedup", Json.Float (speedup r));
        ("ok", Json.Int r.Service.Loadgen.ok);
        ("holds", Json.Int r.Service.Loadgen.holds);
        ("violated", Json.Int r.Service.Loadgen.violated);
        ("unknown", Json.Int r.Service.Loadgen.unknown);
        ("protocol_errors", Json.Int r.Service.Loadgen.protocol_errors);
        ("retries", Json.Int r.Service.Loadgen.retries);
        ("p50_ms", Json.Float r.Service.Loadgen.p50_ms);
        ("p99_ms", Json.Float r.Service.Loadgen.p99_ms);
        ("imbalance", Json.Float r.Service.Loadgen.imbalance);
        ( "per_worker",
          Json.Obj
            (List.map
               (fun (w, c) -> (w, Json.Int c))
               r.Service.Loadgen.per_worker) );
      ]
  in
  let final_speedup =
    match List.rev rows with row :: _ -> speedup (snd row) | [] -> 0.
  in
  let j =
    Json.Obj
      [
        ("bench", Json.String "cluster_scaling");
        ("generated_by", Json.String "tta_cluster --bench");
        ( "workload",
          Json.Obj
            [
              ("requests", Json.Int requests);
              ("concurrency", Json.Int concurrency);
              ("seed", Json.Int 20);
              ("exhaustive", Json.Bool true);
              ("vnodes", Json.Int 1200);
              ("engine", Json.String "bdd");
              ( "configs",
                Json.List
                  (List.map (fun c -> Json.String c) bench_configs) );
              ( "nodes_choices",
                Json.List (List.map (fun n -> Json.Int n) nodes_choices) );
              ( "depths",
                Json.String
                  (Printf.sprintf "%d..%d"
                     (List.hd depths)
                     (List.hd (List.rev depths))) );
              ( "chaos",
                Json.String
                  (Printf.sprintf "1:engine_start=stall%d" stall_ms) );
              ( "note",
                Json.String
                  "Each engine attempt carries a deterministic injected \
                   stall as a service-time floor, so the curve measures \
                   cluster-fabric scaling (consistent-hash sharding, \
                   routing, supervision) rather than raw engine CPU — \
                   host-independent, honest on a single-core container. \
                   Shards are model fingerprints: 4 configs x 2 node \
                   counts = 8 routing keys over the worker ring. The \
                   shallow depth bound keeps CPU under the stall floor \
                   at the cost of mostly inconclusive verdicts; rows \
                   must agree on verdict counts (asserted, exit 1), and \
                   verdict fidelity under failover is pinned by the CI \
                   cluster smoke at conclusive depths." );
            ] );
        ("rows", Json.List (List.map row_json rows));
        ("speedup_at_max_workers", Json.Float final_speedup);
      ]
  in
  (match json_path with
  | Some path ->
      Cli.write_json path j;
      Printf.printf "tta_cluster: bench written to %s\n%!" path
  | None -> print_string (Json.to_string ~pretty:true j ^ "\n"));
  let all_clean =
    List.for_all (fun (_, r) -> r.Service.Loadgen.protocol_errors = 0) rows
  in
  (* The same seeded stream must yield the same verdict counts no
     matter how many workers served it — sharding must not change
     answers. *)
  let verdicts (_, r) =
    Service.Loadgen.
      (r.ok, r.holds, r.violated, r.unknown)
  in
  let verdicts_agree =
    match rows with
    | first :: rest ->
        List.for_all (fun row -> verdicts row = verdicts first) rest
    | [] -> true
  in
  if not verdicts_agree then
    prerr_endline "tta_cluster: bench rows disagree on verdict counts";
  exit (if all_clean && verdicts_agree then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Resilience benchmark: availability and tail latency under seeded
   link chaos, hedging on vs off.

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

let res_delay_spec = "9:link_recv=delay2000x1"
let res_drop_spec = "9:link_send=dropx1"
let res_depths = [ 32; 36; 40 ]
let res_nodes = [ 2; 3 ]

let res_loadgen ~requests addr =
  Service.Loadgen.run ~seed:20 ~exhaustive:true ~nodes_choices:res_nodes
    ~depths:res_depths ~configs:bench_configs ~engines:[ "bdd" ]
    ~retry_budget:3
    ~mode:(Service.Loadgen.Closed_loop 1)
    ~requests addr

let res_row ~served_exe ~requests ~breaker_window ~label ~chaos ~hedge_ms =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tta_cluster_res_%d_%s" (Unix.getpid ()) label)
  in
  mkdir_p dir;
  let cache_dir = Filename.concat dir "cache" in
  mkdir_p cache_dir;
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let ready = Atomic.make 0 in
  let faults = Cli.faults_of_chaos chaos in
  let router =
    Cluster.Router.start ~vnodes:1200 ~health_interval:60.
      ~health_timeout:120. ~faults ~hedge_ms ~breaker_window
      ~on_event:(function
        | Cluster.Router.Worker_ready _ -> Atomic.incr ready
        | _ -> ())
      ~exe:served_exe
      ~worker_args:
        (worker_args ~cache_dir ~cache_max:None ~sched_workers:1
           ~queue_cap:256 ~sessions:false ~chaos:None)
      ~workers:2 addr
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get ready < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if Atomic.get ready < 2 then begin
    prerr_endline "tta_cluster: resilience bench workers failed to start";
    exit 1
  end;
  let report = res_loadgen ~requests addr in
  let s = Cluster.Router.stats router in
  Cluster.Router.stop router;
  Cluster.Router.wait router;
  (* The router's own counters are authoritative: hedges whose
     duplicate leg lost the race are invisible in response
     annotations, and breaker trips never reach the wire at all. *)
  let report =
    {
      report with
      Service.Loadgen.hedged = s.Cluster.Router.hedged;
      breaker_opens = s.Cluster.Router.breaker_opens;
    }
  in
  (report, Resilience.Faults.injections faults)

let bench_resilience served_exe requests hedge_ms breaker_window json_path =
  (* Direct in-process reference: same seeded stream, no router, no
     chaos — the verdicts every row must reproduce. *)
  let direct_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tta_cluster_res_%d_direct" (Unix.getpid ()))
  in
  mkdir_p direct_dir;
  let direct_addr =
    Service.Net.Unix_socket (Filename.concat direct_dir "direct.sock")
  in
  Printf.printf "tta_cluster: resilience bench, direct reference...\n%!";
  let server = Service.Server.start ~workers:2 direct_addr in
  let direct = res_loadgen ~requests (Service.Server.bound_addr server) in
  Service.Server.stop server;
  Service.Server.wait server;
  let rows =
    List.map
      (fun (label, chaos, hedge_ms) ->
        Printf.printf "tta_cluster: resilience bench, row %s...\n%!" label;
        let r, fired = res_row ~served_exe ~requests ~breaker_window ~label
            ~chaos ~hedge_ms in
        Printf.printf
          "  %s: %d ok, %d degraded, %.1fms p99, %d hedged, %d retries\n%!"
          label r.Service.Loadgen.ok r.Service.Loadgen.degraded
          r.Service.Loadgen.p99_ms r.Service.Loadgen.hedged
          r.Service.Loadgen.retries;
        (label, chaos, hedge_ms, r, fired))
      [
        ("baseline", None, 0);
        ("delay_hedge_off", Some res_delay_spec, 0);
        ("delay_hedge_on", Some res_delay_spec, hedge_ms);
        ("drop_hedge_on", Some res_drop_spec, hedge_ms);
      ]
  in
  let availability (r : Service.Loadgen.report) =
    float_of_int (r.Service.Loadgen.ok + r.Service.Loadgen.degraded)
    /. float_of_int (max 1 r.Service.Loadgen.requests)
  in
  let row_json (label, chaos, hedge, r, fired) =
    Json.Obj
      [
        ("row", Json.String label);
        ( "chaos",
          match chaos with
          | Some s -> Json.String s
          | None -> Json.Null );
        ("hedge_ms", Json.Int hedge);
        ("ok", Json.Int r.Service.Loadgen.ok);
        ("degraded", Json.Int r.Service.Loadgen.degraded);
        ("availability", Json.Float (availability r));
        ("holds", Json.Int r.Service.Loadgen.holds);
        ("violated", Json.Int r.Service.Loadgen.violated);
        ("unknown", Json.Int r.Service.Loadgen.unknown);
        ("protocol_errors", Json.Int r.Service.Loadgen.protocol_errors);
        ("conn_retries", Json.Int r.Service.Loadgen.conn_retries);
        ("engine_retries", Json.Int r.Service.Loadgen.engine_retries);
        ("hedged", Json.Int r.Service.Loadgen.hedged);
        ("breaker_opens", Json.Int r.Service.Loadgen.breaker_opens);
        ("p50_ms", Json.Float r.Service.Loadgen.p50_ms);
        ("p99_ms", Json.Float r.Service.Loadgen.p99_ms);
        ("max_ms", Json.Float r.Service.Loadgen.max_ms);
        ( "injections",
          Json.Obj (List.map (fun (rule, n) -> (rule, Json.Int n)) fired) );
      ]
  in
  let find label =
    let _, _, _, r, _ =
      List.find (fun (l, _, _, _, _) -> l = label) rows
    in
    r
  in
  let off = find "delay_hedge_off" and on_ = find "delay_hedge_on" in
  let j =
    Json.Obj
      [
        ("bench", Json.String "cluster_resilience");
        ("generated_by", Json.String "tta_cluster --bench-resilience");
        ( "workload",
          Json.Obj
            [
              ("requests", Json.Int requests);
              ("concurrency", Json.Int 1);
              ("seed", Json.Int 20);
              ("exhaustive", Json.Bool true);
              ("workers", Json.Int 2);
              ("engine", Json.String "bdd");
              ( "configs",
                Json.List (List.map (fun c -> Json.String c) bench_configs) );
              ( "nodes_choices",
                Json.List (List.map (fun n -> Json.Int n) res_nodes) );
              ( "depths",
                Json.List (List.map (fun d -> Json.Int d) res_depths) );
              ("hedge_ms", Json.Int hedge_ms);
              ("breaker_window", Json.Int breaker_window);
              ( "note",
                Json.String
                  "Closed-loop concurrency 1 with the heartbeat interval \
                   pushed past the row duration makes the router<->worker \
                   line sequence deterministic, so the x1-capped link \
                   faults hit the same line on every run: the delay rows \
                   inject one 2 s tail-latency event on the first worker \
                   response (whole in p99 with hedging off, absorbed at \
                   about the hedge delay with hedging on), and the drop \
                   row loses the first forwarded request, recovered by \
                   the hedge leg. Verdict counts must equal the direct \
                   in-process single-daemon run of the same stream \
                   (asserted, exit 1) — chaos and hedging move latency, \
                   never answers." );
            ] );
        ( "direct_reference",
          Json.Obj
            [
              ("ok", Json.Int direct.Service.Loadgen.ok);
              ("holds", Json.Int direct.Service.Loadgen.holds);
              ("violated", Json.Int direct.Service.Loadgen.violated);
              ("unknown", Json.Int direct.Service.Loadgen.unknown);
              ("p99_ms", Json.Float direct.Service.Loadgen.p99_ms);
            ] );
        ("rows", Json.List (List.map row_json rows));
        ( "hedge_p99_speedup",
          Json.Float
            (off.Service.Loadgen.p99_ms
            /. Float.max 1e-9 on_.Service.Loadgen.p99_ms) );
      ]
  in
  (match json_path with
  | Some path ->
      Cli.write_json path j;
      Printf.printf "tta_cluster: resilience bench written to %s\n%!" path
  | None -> print_string (Json.to_string ~pretty:true j ^ "\n"));
  (* The acceptance gates, in the exit code so CI cannot drift from
     the committed numbers' meaning. *)
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  List.iter
    (fun (label, _, _, r, _) ->
      check
        (r.Service.Loadgen.protocol_errors = 0)
        (label ^ ": protocol errors");
      check
        (r.Service.Loadgen.ok + r.Service.Loadgen.degraded
        = r.Service.Loadgen.requests)
        (label ^ ": lost requests");
      check
        (Service.Loadgen.
           (r.holds, r.violated, r.unknown)
        = Service.Loadgen.
            (direct.holds, direct.violated, direct.unknown))
        (label ^ ": verdicts differ from the direct reference"))
    rows;
  check
    (on_.Service.Loadgen.p99_ms < off.Service.Loadgen.p99_ms)
    "hedging did not improve p99 under delay chaos";
  check (on_.Service.Loadgen.hedged > 0) "delay_hedge_on never hedged";
  check
    ((find "drop_hedge_on").Service.Loadgen.hedged > 0)
    "drop_hedge_on never hedged";
  List.iter (fun m -> prerr_endline ("tta_cluster: resilience bench: " ^ m))
    !problems;
  exit (if !problems = [] then 0 else 1)

(* ------------------------------------------------------------------ *)

let main socket workers served_exe cache_dir cache_max sched_workers
    queue_cap sessions chaos hedge_ms breaker_window vnodes max_restarts
    restart_window kill_after grace run_bench run_bench_resilience
    bench_requests bench_concurrency bench_stall_ms json_path =
  let served_exe =
    match served_exe with Some p -> p | None -> default_served_exe ()
  in
  if run_bench then
    bench served_exe bench_requests bench_concurrency bench_stall_ms
      json_path
  else if run_bench_resilience then
    bench_resilience served_exe bench_requests
      (if hedge_ms > 0 then hedge_ms else 150)
      (if breaker_window > 0 then breaker_window else 8)
      json_path
  else
    match socket with
    | None ->
        prerr_endline
          "tta_cluster: --socket is required (unless --bench or \
           --bench-resilience)";
        exit 2
    | Some socket ->
        serve socket workers served_exe cache_dir cache_max sched_workers
          queue_cap sessions chaos hedge_ms breaker_window vnodes
          max_restarts restart_window kill_after grace

let () =
  let open Cmdliner in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "socket" ] ~docv:"ADDR"
          ~doc:
            "Client-facing listen address: a Unix-domain socket path, or \
             HOST:PORT for TCP (port 0 = kernel-assigned).")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "w"; "workers" ] ~docv:"N" ~doc:"Worker daemons to run.")
  in
  let served_exe =
    Arg.(
      value
      & opt (some string) None
      & info [ "served-exe" ] ~docv:"PATH"
          ~doc:
            "The tta_served executable (default: next to this binary).")
  in
  let cache_dir =
    Arg.(
      value & opt string "_cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Verdict cache directory, shared by every worker (cross-process \
             LRU via the cache's advisory lock).")
  in
  let sched_workers =
    Arg.(
      value & opt int 1
      & info [ "sched-workers" ] ~docv:"N"
          ~doc:"Scheduler domains inside each worker daemon.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N" ~doc:"Per-worker admission bound.")
  in
  let sessions =
    Arg.(
      value & flag
      & info [ "sessions" ]
          ~doc:
            "Pass --sessions to every worker daemon: each keeps a pool of \
             warm incremental solver sessions for single-SAT-engine \
             requests. Consistent hashing already sends a family to the \
             same worker, so warm hits survive sharding.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SEED[:SPEC]"
          ~doc:
            "Fault-injection spec, armed twice: passed through to every \
             worker daemon (engine/cache/socket points) and armed on the \
             router's own registry, where the link_send/link_recv points \
             fire per router<->worker line (drop loses the line, delayMS \
             defers it, crash kills the connection).")
  in
  let hedge_ms =
    Arg.(
      value & opt int 0
      & info [ "hedge-ms" ] ~docv:"MS"
          ~doc:
            "Hedged requests: duplicate a request onto the next live ring \
             worker when its first answer has not arrived within MS \
             milliseconds; first conclusive answer wins (0 = off).")
  in
  let breaker_window =
    Arg.(
      value & opt int 0
      & info [ "breaker-window" ] ~docv:"N"
          ~doc:
            "Per-worker circuit breaker over the last N request outcomes: \
             a worker failing half the window is routed around until a \
             heartbeat pong and a successful probe close the circuit \
             (0 = off).")
  in
  let vnodes =
    Arg.(
      value & opt int 512
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Virtual points per worker on the consistent-hash ring.")
  in
  let max_restarts =
    Arg.(
      value & opt int 5
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:"Give up on a worker after N deaths within the window.")
  in
  let restart_window =
    Arg.(
      value & opt float 30.0
      & info [ "restart-window" ] ~docv:"SECONDS"
          ~doc:"Sliding window for the restart-intensity gate.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Testing hook: SIGKILL the worker that receives the Nth \
             forwarded request (exercises mid-stream failover).")
  in
  let grace =
    Arg.(
      value & opt float 10.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:"Drain bound: cancel whatever is still unanswered this long \
                after SIGTERM.")
  in
  let run_bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Run the 1/2/4/8-worker scaling benchmark instead of serving \
             (see doc/cluster.md for the methodology).")
  in
  let run_bench_resilience =
    Arg.(
      value & flag
      & info [ "bench-resilience" ]
          ~doc:
            "Run the partition-tolerance benchmark instead of serving: \
             availability and tail latency under seeded link chaos, \
             hedging on vs off, with verdict fidelity enforced against a \
             direct in-process run (see doc/cluster.md).")
  in
  let bench_requests =
    Arg.(
      value & opt int 64
      & info [ "bench-requests" ] ~docv:"N"
          ~doc:"Requests per benchmark row.")
  in
  let bench_concurrency =
    Arg.(
      value & opt int 16
      & info [ "bench-concurrency" ] ~docv:"N"
          ~doc:"Closed-loop client connections during the benchmark.")
  in
  let bench_stall_ms =
    Arg.(
      value & opt int 900
      & info [ "bench-stall-ms" ] ~docv:"MS"
          ~doc:
            "Injected per-attempt service-time floor in the workers (must \
             dominate the honest per-request CPU for the scaling curve to \
             be host-independent).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_cluster"
         ~doc:
           "Sharded multi-worker TTA verification cluster (consistent-hash \
            router over supervised tta_served daemons)")
      Term.(
        const main $ socket $ workers $ served_exe $ cache_dir
        $ Cli.cache_max_entries () $ sched_workers $ queue_cap $ sessions
        $ chaos $ hedge_ms $ breaker_window $ vnodes $ max_restarts
        $ restart_window $ kill_after $ grace $ run_bench
        $ run_bench_resilience $ bench_requests $ bench_concurrency
        $ bench_stall_ms $ Cli.json ())
  in
  exit (Cmd.eval cmd)
