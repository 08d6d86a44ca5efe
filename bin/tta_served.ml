(* The verification daemon: a long-running server answering JSON-lines
   verification requests over a Unix-domain or TCP socket.

   Examples:
     tta_served --socket /tmp/tta.sock
     tta_served --socket 127.0.0.1:7171 --workers 2 --queue-cap 16
     tta_served --socket /tmp/tta.sock --cache-dir _cache \
                --cache-max-entries 256 --trace served_trace.json

   Protocol, scheduling and shutdown semantics: doc/service.md.
   Send SIGTERM (or SIGINT) for a graceful drain. *)

let main socket workers queue_cap cache_dir no_cache cache_max sessions
    session_cap grace chaos obs =
  let addr = Cli.socket_addr ~exe:"tta_served" socket in
  let faults = Cli.faults_of_chaos chaos in
  let cache =
    if no_cache then None
    else
      Some
        (Portfolio.Cache.create ~dir:cache_dir ?max_entries:cache_max ~faults
           ())
  in
  let session_pool =
    if sessions then Some (Sessions.create ~capacity:session_cap ())
    else None
  in
  let listening = ref false in
  (match
     Service.Server.serve ?cache ?sessions:session_pool ~workers ~queue_cap
       ?obs:(Cli.obs_collector obs) ~faults ~grace
       ~on_ready:(fun srv ->
         listening := true;
         (* Machine-readable readiness first — supervisors (the cluster
            router, CI scripts) parse this one line to learn the bound
            address, including a kernel-assigned port for --socket
            HOST:0. The human-oriented banner follows. *)
         let bound = Service.Server.bound_addr srv in
         print_endline (Service.Net.ready_line bound);
         Printf.printf
           "tta_served: listening on %s (%d workers, queue cap %d)%s\n%!"
           (Service.Net.addr_to_string bound)
           workers queue_cap
           (if Resilience.Faults.enabled faults then
              " [chaos " ^ Resilience.Faults.to_spec faults ^ "]"
            else ""))
       addr
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) when not !listening ->
      Cli.cannot_listen ~exe:"tta_served" addr e);
  (* serve returned: a signal triggered the drain. *)
  (match session_pool with
  | Some p ->
      let s = Sessions.stats p in
      Printf.printf
        "sessions: %d hits, %d misses (%d family mismatches), %d evicted, %d \
         discarded, %d warm\n"
        s.Sessions.hits s.Sessions.misses s.Sessions.mismatches
        s.Sessions.evictions s.Sessions.discards s.Sessions.idle
  | None -> ());
  (match cache with
  | Some c ->
      Printf.printf "cache: %d hits, %d misses, %d entries, %d evicted, %d \
                     quarantined\n"
        (Portfolio.Cache.hits c) (Portfolio.Cache.misses c)
        (Portfolio.Cache.entries c)
        (Portfolio.Cache.evictions c)
        (Portfolio.Cache.quarantined c)
  | None -> ());
  if Resilience.Faults.enabled faults then begin
    Printf.printf "chaos: spec %s\n" (Resilience.Faults.to_spec faults);
    List.iter
      (fun (rule, n) -> Printf.printf "  %-28s fired %d\n" rule n)
      (Resilience.Faults.injections faults)
  end;
  Cli.obs_finish obs;
  Printf.printf "tta_served: drained, bye\n%!"

let () =
  let open Cmdliner in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "socket" ] ~docv:"ADDR"
          ~doc:
            "Listen address: a Unix-domain socket path, or HOST:PORT for \
             TCP.")
  in
  let workers =
    Arg.(
      value
      & opt int (Portfolio.Pool.default_domains ())
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:"Verification worker domains (default: all cores).")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission bound: queued computations beyond N are shed with an \
             overloaded response.")
  in
  let cache_dir =
    Arg.(
      value & opt string "_cache"
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Verdict cache directory.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the verdict cache.")
  in
  let sessions =
    Arg.(
      value & flag
      & info [ "sessions" ]
          ~doc:
            "Keep a pool of warm incremental solver sessions: \
             single-SAT-engine requests of a family they have seen reuse \
             unrolling and learned clauses instead of starting cold.")
  in
  let session_cap =
    Arg.(
      value & opt int 32
      & info [ "session-cap" ] ~docv:"N"
          ~doc:"Idle warm sessions kept before LRU eviction (with --sessions).")
  in
  let grace =
    Arg.(
      value & opt float 5.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Drain grace period: on SIGTERM, in-flight runs are \
             force-cancelled after this long.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_served"
         ~doc:"Long-running TTA verification daemon (JSON lines over a socket)")
      Term.(
        const main $ socket $ workers $ queue_cap $ cache_dir $ no_cache
        $ Cli.cache_max_entries ()
        $ sessions $ session_cap $ grace $ Cli.chaos () $ Cli.obs ())
  in
  exit (Cmd.eval cmd)
