(* Cluster router: one Protocol socket in front of N supervised
   tta_served worker processes, sharded by consistent hashing.

   Examples:
     tta_cluster --socket /tmp/tta.sock --workers 4
     tta_cluster --socket 127.0.0.1:7171 --workers 4 \
                 --cache-dir _cache --chaos '7:engine_start=crash@0.2x3'

   Architecture and failover: doc/cluster.md. The cluster benchmarks
   live in bench/main.exe (subcommands cluster and resilience).
   Send SIGTERM (or SIGINT) for a graceful drain. *)

let default_served_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "tta_served.exe"

let rec mkdir_p d =
  if d <> "" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* One stable line per supervision event — CI and the benchmark grep
   these, so the shapes are part of the tool's interface. Forwarded
   legs are traffic, not supervision: the exit summary counts them. *)
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
  | Cluster.Router.Breaker_opened { name } ->
      Printf.printf "tta_cluster: event breaker-open %s\n" name
  | Cluster.Router.Breaker_closed { name } ->
      Printf.printf "tta_cluster: event breaker-close %s\n" name
  | Cluster.Router.Hedged { id; worker } ->
      Printf.printf "tta_cluster: event hedge id=%s worker=%s\n" id worker
  | Cluster.Router.Forwarded _ -> ());
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

let serve socket workers served_exe cache_dir cache_max sched_workers
    queue_cap sessions chaos hedge_ms breaker_window vnodes max_restarts
    restart_window grace =
  let addr = Cli.socket_addr ~exe:"tta_cluster" socket in
  let served_exe =
    match served_exe with Some p -> p | None -> default_served_exe ()
  in
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
        ~restart_window_s:restart_window ~grace ~faults ~hedge_ms
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

let () =
  let open Cmdliner in
  let socket =
    Arg.(
      required
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
  let grace =
    Arg.(
      value & opt float 10.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:"Drain bound: cancel whatever is still unanswered this long \
                after SIGTERM.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_cluster"
         ~doc:
           "Sharded multi-worker TTA verification cluster (consistent-hash \
            router over supervised tta_served daemons)")
      Term.(
        const serve $ socket $ workers $ served_exe $ cache_dir
        $ Cli.cache_max_entries () $ sched_workers $ queue_cap $ sessions
        $ chaos $ hedge_ms $ breaker_window $ vnodes $ max_restarts
        $ restart_window $ grace)
  in
  exit (Cmd.eval cmd)
