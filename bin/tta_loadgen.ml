(* Load generator for tta_served: replays a seeded synthetic request
   stream from the Section 5 configuration matrix and reports
   throughput, latency percentiles and the dedup/shedding breakdown.

   Examples:
     tta_loadgen --socket /tmp/tta.sock --requests 200 --concurrency 4
     tta_loadgen --socket /tmp/tta.sock --requests 100 --rate 50 \
                 --deadline-ms 2000 --json BENCH_service.json

   --rate selects the open-loop shape (target requests/second over one
   connection); --concurrency (the default, 4) the closed-loop shape
   (N connections, one outstanding request each). *)

let main socket requests rate concurrency seed nodes depth nodes_choices_s
    depths_s deadline_ms configs_s engines_s retry_budget json_path =
  let addr = Cli.socket_addr ~exe:"tta_loadgen" socket in
  let split s =
    match
      List.filter
        (fun p -> p <> "")
        (List.map String.trim (String.split_on_char ',' s))
    with
    | [] -> None
    | l -> Some l
  in
  let split_ints flag s =
    Option.map
      (List.map (fun p ->
           match int_of_string_opt p with
           | Some n -> n
           | None ->
               Printf.eprintf "tta_loadgen: %s: %S is not an integer\n" flag p;
               exit 2))
      (split s)
  in
  let mode =
    match rate with
    | Some r when r > 0. -> Service.Loadgen.Open_loop r
    | _ -> Service.Loadgen.Closed_loop concurrency
  in
  let report =
    Service.Loadgen.run ~seed ~nodes ~depth
      ?nodes_choices:(split_ints "--nodes-choices" nodes_choices_s)
      ?depths:(split_ints "--depths" depths_s)
      ?deadline_ms ?configs:(split configs_s) ?engines:(split engines_s)
      ~retry_budget ~mode ~requests addr
  in
  Format.printf "%a" Service.Loadgen.pp_report report;
  (match json_path with
  | Some path ->
      Cli.write_json path (Service.Loadgen.report_to_json ~mode report);
      Printf.printf "report written to %s\n" path
  | None -> ());
  (* Protocol errors are a failure of the daemon or of this tool;
     overload shedding and deadline misses are expected behaviors. *)
  exit (if report.Service.Loadgen.protocol_errors = 0 then 0 else 1)

let () =
  let open Cmdliner in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "socket" ] ~docv:"ADDR"
          ~doc:"Daemon address: a Unix-domain socket path or HOST:PORT.")
  in
  let requests =
    Arg.(
      value & opt int 100
      & info [ "r"; "requests" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Open-loop mode: send at this target rate (req/s).")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"Closed-loop mode (default): concurrent connections.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Stream sampling seed.")
  in
  let nodes_choices =
    Arg.(
      value & opt string ""
      & info [ "nodes-choices" ] ~docv:"LIST"
          ~doc:
            "Comma-separated node counts to sample per request (overrides \
             --nodes). Distinct counts shard to distinct cluster workers.")
  in
  let depths =
    Arg.(
      value & opt string ""
      & info [ "depths" ] ~docv:"LIST"
          ~doc:
            "Comma-separated depths to sample per request (overrides \
             --depth); distinct depths defeat request coalescing.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Attach this deadline to every request.")
  in
  let configs =
    Arg.(
      value & opt string ""
      & info [ "configs" ] ~docv:"LIST"
          ~doc:
            "Comma-separated feature sets to sample from (default: all \
             four).")
  in
  let retry_budget =
    Arg.(
      value & opt int 2
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:
            "Resend a request up to N times after a dropped connection or \
             an engine_failed response (0 disables retries).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_loadgen"
         ~doc:"Synthetic load for the TTA verification daemon")
      Term.(
        const main $ socket $ requests $ rate $ concurrency $ seed
        $ Cli.nodes ~default:2 ()
        $ Cli.depth ~default:24 ()
        $ nodes_choices $ depths $ deadline_ms $ configs
        $ Cli.engines ~default:"bdd" ()
        $ retry_budget $ Cli.json ())
  in
  exit (Cmd.eval cmd)
