(* Portfolio-verify the paper's configuration matrix on multiple cores.

   Examples:
     tta_portfolio                          # Section 5 matrix, all cores
     tta_portfolio --nodes 3 --domains 2    # reduced scale, two workers
     tta_portfolio --race -c full-shifting  # BDD, then BMC if inconclusive
     tta_portfolio --json telemetry.json    # dump the run telemetry
     tta_portfolio --trace trace.json       # Chrome trace of every run

   Verdicts are cached under _cache/ (keyed by a content hash of the
   compiled model plus engine parameters), so a re-run only re-checks
   what changed; --no-cache forces cold runs. *)

let pp_verdict ~nodes verdict =
  match verdict with
  | Tta_model.Engine.Holds { detail } ->
      Printf.printf "PROPERTY HOLDS: %s\n" detail
  | Tta_model.Engine.Unknown { detail } -> Printf.printf "UNDECIDED: %s\n" detail
  | Tta_model.Engine.Violated { trace; model } ->
      Printf.printf
        "PROPERTY VIOLATED: a single coupler fault froze an integrated \
         node.\nCounterexample (%d steps):\n%s"
        (Array.length trace)
        (Tta_model.Engine.describe_trace model trace ~nodes);
      (match Symkit.Trace.validate model trace with
      | Ok () -> Printf.printf "(trace replays cleanly against the model)\n"
      | Error e -> Printf.printf "WARNING: trace validation failed: %s\n" e)

let run_race ~config_name ~nodes ~depth ~engines ~cache ~telemetry ~obs
    ~faults =
  let cfg =
    (* The named constructors, not [Configs.make], so the checked
       instance is exactly the Section 5 one (full-shifting carries the
       paper's one-error out-of-slot budget). *)
    match Cli.feature_set_of_config config_name with
    | Guardian.Feature_set.Passive -> Tta_model.Configs.passive ~nodes ()
    | Guardian.Feature_set.Time_windows ->
        Tta_model.Configs.time_windows ~nodes ()
    | Guardian.Feature_set.Small_shifting ->
        Tta_model.Configs.small_shifting ~nodes ()
    | Guardian.Feature_set.Full_shifting ->
        Tta_model.Configs.full_shifting ~nodes ()
  in
  Printf.printf "trying %s on %s (%d nodes), depth bound %d\n%!"
    (String.concat ", then "
       (List.map Tta_model.Engine.id_to_string engines))
    (Tta_model.Configs.name cfg)
    nodes depth;
  let r =
    Portfolio.race ?cache ~telemetry ?obs:(Cli.obs_collector obs) ~faults
      ~engines ~max_depth:depth cfg
  in
  List.iter
    (fun (e, msg) ->
      Printf.printf "  %-16s FAILED     %s\n"
        (Tta_model.Engine.id_to_string e)
        msg)
    r.Portfolio.failures;
  List.iter
    (fun (e, v, wall) ->
      Printf.printf "  %-16s %-9s %.2fs%s\n"
        (Tta_model.Engine.id_to_string e)
        (Portfolio.Telemetry.outcome_to_string
           (Portfolio.Telemetry.outcome_of_verdict v))
        wall
        (if e = r.Portfolio.engine then "  <- selected"
         else ""))
    r.Portfolio.runs;
  if r.Portfolio.cache_hit then
    Printf.printf "  (cache hit: verdict served from %s)\n"
      (Tta_model.Engine.id_to_string r.Portfolio.engine);
  Printf.printf "winner: %s in %.2fs\n"
    (Tta_model.Engine.id_to_string r.Portfolio.engine)
    r.Portfolio.wall_s;
  pp_verdict ~nodes r.Portfolio.verdict;
  match r.Portfolio.verdict with
  | Tta_model.Engine.Unknown _ -> 1
  | _ -> 0

let run_matrix ~nodes ~domains ~safe_depth ~unsafe_depth ~cache ~telemetry
    ~obs ~faults =
  let jobs =
    Portfolio.section5_jobs ~nodes ?safe_depth ?unsafe_depth ()
  in
  Printf.printf
    "Section 5 matrix at %d nodes: %d jobs across %d domain(s)%s\n%!" nodes
    (List.length jobs) domains
    (match cache with
    | Some c -> Printf.sprintf ", cache at %s/" (Portfolio.Cache.dir c)
    | None -> ", cache disabled");
  let t0 = Unix.gettimeofday () in
  let results =
    Portfolio.run_matrix ~domains ?cache ~telemetry
      ?obs:(Cli.obs_collector obs) ~faults jobs
  in
  let dt = Unix.gettimeofday () -. t0 in
  let failures = ref 0 in
  List.iter
    (fun (j, r) ->
      let ok =
        match r.Portfolio.verdict with
        | Tta_model.Engine.Unknown _ ->
            incr failures;
            false
        | _ -> true
      in
      Printf.printf "  %-36s %-9s %7.2fs %s%s\n" j.Portfolio.label
        (Portfolio.Telemetry.outcome_to_string
           (Portfolio.Telemetry.outcome_of_verdict r.Portfolio.verdict))
        r.Portfolio.wall_s
        (if r.Portfolio.cache_hit then "[cache]" else "")
        (if ok then "" else "  <- no verdict"))
    results;
  Printf.printf "matrix wall clock: %.2fs\n" dt;
  !failures

let main config_name race nodes depth safe_depth unsafe_depth domains
    engines_s cache_dir no_cache cache_max json_path chaos obs =
  let engines = Cli.engine_ids_of_names engines_s in
  let faults = Cli.faults_of_chaos chaos in
  let cache =
    if no_cache then None
    else
      Some
        (Portfolio.Cache.create ~dir:cache_dir ?max_entries:cache_max ~faults
           ())
  in
  let telemetry = Portfolio.Telemetry.create () in
  let failures =
    if race || config_name <> "" then
      let config_name = if config_name = "" then "full-shifting" else config_name in
      run_race ~config_name ~nodes ~depth ~engines ~cache ~telemetry ~obs
        ~faults
    else
      run_matrix ~nodes ~domains ~safe_depth ~unsafe_depth ~cache ~telemetry
        ~obs ~faults
  in
  print_newline ();
  Format.printf "%a" Portfolio.Telemetry.pp_table telemetry;
  (match cache with
  | Some c ->
      Printf.printf "cache: %d hits, %d misses, %d entries%s%s under %s/\n"
        (Portfolio.Cache.hits c) (Portfolio.Cache.misses c)
        (Portfolio.Cache.entries c)
        (match Portfolio.Cache.max_entries c with
        | Some cap ->
            Printf.sprintf " (cap %d, %d evicted)" cap
              (Portfolio.Cache.evictions c)
        | None -> "")
        (match Portfolio.Cache.quarantined c with
        | 0 -> ""
        | n -> Printf.sprintf ", %d quarantined" n)
        (Portfolio.Cache.dir c)
  | None -> ());
  if Resilience.Faults.enabled faults then begin
    Printf.printf "chaos: spec %s\n" (Resilience.Faults.to_spec faults);
    List.iter
      (fun (rule, n) -> Printf.printf "  %-28s fired %d\n" rule n)
      (Resilience.Faults.injections faults)
  end;
  (match json_path with
  | Some path ->
      Portfolio.Telemetry.dump_json telemetry path;
      Printf.printf "telemetry written to %s\n" path
  | None -> ());
  Cli.obs_finish obs;
  exit (if failures = 0 then 0 else 1)

let () =
  let open Cmdliner in
  let config =
    Arg.(
      value & opt string ""
      & info
          [ "c"; "config"; "f"; "feature-set" ]
          ~docv:"CONFIG"
          ~doc:
            "Check one feature set (passive, time-windows, small-shifting, \
             full-shifting) with the $(b,--engines) chain instead of running \
             the matrix.")
  in
  let race =
    Arg.(
      value & flag
      & info [ "race" ]
          ~doc:
            "One-configuration mode (implied by $(b,--config)): try the \
             $(b,--engines) in order until one concludes; defaults to \
             full-shifting.")
  in
  let safe_depth =
    Arg.(
      value & opt (some int) None
      & info [ "safe-depth" ] ~docv:"K"
          ~doc:"Matrix mode: iteration bound for the safe rows (default 100).")
  in
  let unsafe_depth =
    Arg.(
      value & opt (some int) None
      & info [ "unsafe-depth" ] ~docv:"K"
          ~doc:"Matrix mode: bound for the violated rows (default 100).")
  in
  let domains =
    Arg.(
      value & opt int (Portfolio.Pool.default_domains ())
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:"Worker domains for the matrix (default: all cores).")
  in
  let cache_dir =
    Arg.(
      value & opt string "_cache"
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Verdict cache directory.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the verdict cache.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_portfolio"
         ~doc:
           "Multicore portfolio verification of the TTA star-coupler matrix")
      Term.(
        const main $ config $ race $ Cli.nodes ()
        $ Cli.depth ~default:100 ()
        $ safe_depth $ unsafe_depth $ domains $ Cli.engines () $ cache_dir
        $ no_cache
        $ Cli.cache_max_entries ()
        $ Cli.json () $ Cli.chaos () $ Cli.obs ())
  in
  exit (Cmd.eval cmd)
