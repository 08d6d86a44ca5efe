(* Shared command-line vocabulary — see the interface. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common flag terms *)

let config ?(default = "full-shifting") () =
  Arg.(
    value & opt string default
    & info
        [ "c"; "config"; "f"; "feature-set" ]
        ~docv:"CONFIG"
        ~doc:
          "Star-coupler feature set: passive, time-windows, small-shifting, \
           or full-shifting.")

let engine ?(default = "bmc") () =
  Arg.(
    value & opt string default
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Verification engine: bdd (reachability), bmc (SAT), induction \
           (SAT k-induction), or explicit (BFS).")

let engines ?default () =
  let default =
    match default with
    | Some d -> d
    | None ->
        String.concat ","
          (List.map Tta_model.Engine.id_to_string Portfolio.default_engines)
  in
  Arg.(
    value & opt string default
    & info [ "engines" ] ~docv:"LIST"
        ~doc:
          "Comma-separated engines to try in order until one concludes: \
           bdd, bmc, induction, explicit.")

let nodes ?(default = 4) () =
  Arg.(
    value & opt int default
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size (paper: 4).")

let depth ?(default = 24) () =
  Arg.(
    value & opt int default
    & info [ "d"; "depth" ] ~docv:"K"
        ~doc:"Unrolling/iteration bound for the engines.")

let cache_max_entries () =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-entries" ] ~docv:"N"
        ~doc:
          "Cap the persistent verdict cache at N entries; the \
           least-recently-used entries are evicted first. Unbounded when \
           omitted.")

let json () =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the machine-readable results to FILE as JSON.")

let partitioned () =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "partitioned" ]
              ~doc:
                "Compute BDD images over the partitioned transition relation \
                 with early quantification (the default)." );
          ( false,
            info [ "monolithic" ]
              ~doc:
                "Compute BDD images against the monolithic transition \
                 relation (the pre-optimization baseline)." );
        ])

let gc_watermark () =
  Arg.(
    value
    & opt (some int) None
    & info [ "gc-watermark" ] ~docv:"N"
        ~doc:
          "Reclaim dead BDD nodes at fixpoint-iteration boundaries once N \
           nodes were allocated since the last sweep; 0 disables the sweeps. \
           Default: the engine's built-in watermark.")

let no_restrict () =
  Arg.(
    value & flag
    & info [ "no-restrict" ]
        ~doc:
          "Disable Coudert-Madre frontier minimization against the reached \
           set before each BDD image step.")

let reach_tuning_of ~partitioned ~gc_watermark ~no_restrict =
  let base =
    if partitioned then Symkit.Reach.default_tuning
    else Symkit.Reach.monolithic_tuning
  in
  (match gc_watermark with
  | Some n when n < 0 ->
      prerr_endline "--gc-watermark: expected a non-negative node count";
      exit 2
  | _ -> ());
  {
    base with
    Symkit.Reach.use_restrict = base.Symkit.Reach.use_restrict && not no_restrict;
    gc_watermark =
      Option.value gc_watermark ~default:base.Symkit.Reach.gc_watermark;
  }

let chaos () =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED[:SPEC]"
        ~doc:
          "Arm deterministic fault injection. SEED is an integer; the \
           optional SPEC is a comma-separated rule list such as \
           'engine_start=crash\\@0.2x4,cache_read=corrupt\\@0.25x4' \
           (points: engine_start, engine_step, cache_read, cache_write, \
           sock_send, sock_recv, link_send, link_recv; actions: crash, \
           corrupt, drop, stallMILLIS, delayMILLIS; \\@P caps the firing \
           probability, xN the total firings). A bare SEED uses a \
           built-in mixed-fault spec. The link_* points fire on the \
           cluster router's per-worker lines (drop loses a line, delay \
           defers it); elsewhere drop behaves as crash and delay as \
           stall.")

(* ------------------------------------------------------------------ *)
(* Uniform parsers *)

let feature_set_of_config s =
  match Guardian.Feature_set.of_string s with
  | Some fs -> fs
  | None ->
      prerr_endline
        ("unknown --config '" ^ s
       ^ "' (expected passive | time-windows | small-shifting | \
          full-shifting)");
      exit 2

let engine_of_name s =
  match Tta_model.Engine.of_string s with
  | Some e -> e
  | None ->
      prerr_endline
        ("unknown --engine '" ^ s
       ^ "' (expected bdd | bmc | induction | explicit)");
      exit 2

let engine_ids_of_names s =
  let parts =
    List.filter
      (fun p -> p <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let ids = List.map (fun p -> (engine_of_name p).Tta_model.Engine.id) parts in
  if ids = [] then begin
    prerr_endline "--engines: empty engine list";
    exit 2
  end;
  ids

let faults_of_chaos = function
  | None -> Resilience.Faults.disabled
  | Some spec -> (
      match Resilience.Faults.of_spec spec with
      | Ok f -> f
      | Error msg ->
          prerr_endline ("--chaos: " ^ msg);
          exit 2)

let socket_addr ~exe s =
  match Service.Net.addr_of_string s with
  | Ok a -> a
  | Error e ->
      prerr_endline (exe ^ ": " ^ e);
      exit 2

let cannot_listen ~exe addr err =
  Printf.eprintf "%s: cannot listen on %s: %s\n%!" exe
    (Service.Net.addr_to_string addr)
    (Unix.error_message err);
  exit 2

(* ------------------------------------------------------------------ *)
(* Observability *)

type obs = {
  trace : string option;
  metrics : bool;
  collector : Obs.Collector.t option;
}

let obs () =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans and metrics and write a Chrome trace_event file \
             on exit (load it in chrome://tracing or Perfetto).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the collected metrics table on exit.")
  in
  let make trace metrics =
    let collector =
      if trace <> None || metrics then Some (Obs.Collector.create ())
      else None
    in
    { trace; metrics; collector }
  in
  Term.(const make $ trace $ metrics)

let obs_collector o = o.collector

let obs_track o name =
  match o.collector with
  | None -> Obs.disabled
  | Some col -> Obs.Collector.track col name

let obs_finish o =
  match o.collector with
  | None -> ()
  | Some col ->
      (match o.trace with
      | Some path ->
          Obs.Collector.write_chrome_trace col path;
          Printf.printf "trace written to %s (chrome://tracing)\n" path
      | None -> ());
      if o.metrics then Format.printf "%a" Obs.Collector.pp_table col

(* ------------------------------------------------------------------ *)
(* JSON output *)

let write_json path j =
  let oc = open_out_bin path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc
