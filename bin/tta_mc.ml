(* Model-check the TTA star-coupler configurations of the paper.

   Examples:
     tta_mc --config full-shifting            # expect a counterexample
     tta_mc --config passive --engine bdd     # expect a safety proof
     tta_mc --config full-shifting --no-cold-start-duplication
     tta_mc --engine bdd --trace run.json     # Chrome trace of the run
*)

let run config_name engine_name nodes max_depth no_cs_dup oos_budget
    export_smv json_path obs =
  let feature_set = Cli.feature_set_of_config config_name in
  let engine = Cli.engine_of_name engine_name in
  let cfg =
    Tta_model.Configs.make ~nodes
      ?oos_budget:
        (match (feature_set, oos_budget) with
        | Guardian.Feature_set.Full_shifting, b -> b
        | _, _ -> None)
      ~forbid_cold_start_duplication:no_cs_dup feature_set
  in
  Printf.printf "configuration: %s (%d nodes)\n" (Tta_model.Configs.name cfg)
    nodes;
  (match export_smv with
  | Some path ->
      Tta_model.Engine.export_smv cfg path;
      Printf.printf "model exported to %s (SMV input language)\n" path
  | None -> ());
  Printf.printf "engine: %s, depth bound %d\n%!" engine.Tta_model.Engine.name
    max_depth;
  let t0 = Unix.gettimeofday () in
  let r =
    engine.Tta_model.Engine.run
      ~obs:(Cli.obs_track obs ("mc/" ^ engine.Tta_model.Engine.name))
      ~max_depth cfg
  in
  let dt = Unix.gettimeofday () -. t0 in
  (match r.Tta_model.Engine.verdict with
  | Tta_model.Engine.Holds { detail } ->
      Printf.printf "PROPERTY HOLDS: %s\n" detail
  | Tta_model.Engine.Unknown { detail } ->
      Printf.printf "UNDECIDED: %s\n" detail
  | Tta_model.Engine.Violated { trace; model } ->
      Printf.printf
        "PROPERTY VIOLATED: a single coupler fault froze an integrated \
         node.\nCounterexample (%d steps):\n%s"
        (Array.length trace)
        (Tta_model.Engine.describe_trace model trace ~nodes);
      (match Symkit.Trace.validate model trace with
      | Ok () -> Printf.printf "(trace replays cleanly against the model)\n"
      | Error e -> Printf.printf "WARNING: trace validation failed: %s\n" e));
  Printf.printf "elapsed: %.2fs\n" dt;
  (match json_path with
  | Some path ->
      let outcome =
        match r.Tta_model.Engine.verdict with
        | Tta_model.Engine.Holds { detail } -> [ ("verdict", Json.String "holds"); ("detail", Json.String detail) ]
        | Tta_model.Engine.Unknown { detail } -> [ ("verdict", Json.String "unknown"); ("detail", Json.String detail) ]
        | Tta_model.Engine.Violated { trace; _ } ->
            [
              ("verdict", Json.String "violated");
              ( "detail",
                Json.String
                  (Printf.sprintf "counterexample of %d steps"
                     (Array.length trace)) );
            ]
      in
      Cli.write_json path
        (Json.Obj
           ([
              ("config", Json.String (Tta_model.Configs.name cfg));
              ("engine", Json.String engine.Tta_model.Engine.name);
              ("nodes", Json.Int nodes);
              ("max_depth", Json.Int max_depth);
              ("wall_s", Json.Float dt);
            ]
           @ outcome
           @ [
               ( "counters",
                 Json.Obj
                   (List.map
                      (fun (n, v) -> (n, Json.Int v))
                      r.Tta_model.Engine.counters) );
             ]));
      Printf.printf "results written to %s\n" path
  | None -> ());
  Cli.obs_finish obs

let () =
  let open Cmdliner in
  let export_smv =
    Arg.(
      value
      & opt (some string) None
      & info [ "export-smv" ] ~docv:"FILE"
          ~doc:
            "Also write the model to FILE in the SMV input language \
             (NuSMV dialect), with the property as an INVARSPEC.")
  in
  let no_cs_dup =
    Arg.(
      value & flag
      & info
          [ "no-cold-start-duplication" ]
          ~doc:
            "Prohibit replaying buffered cold-start frames (forces the \
             paper's second counterexample).")
  in
  let oos_budget =
    Arg.(
      value
      & opt (some int) (Some 1)
      & info [ "oos-budget" ] ~docv:"K"
          ~doc:
            "Limit on out-of-slot errors for full-shifting couplers \
             (paper: 1).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_mc"
         ~doc:"Model-check TTA star-coupler fault-tolerance configurations")
      Term.(
        const run $ Cli.config () $ Cli.engine () $ Cli.nodes ()
        $ Cli.depth () $ no_cs_dup $ oos_budget $ export_smv $ Cli.json ()
        $ Cli.obs ())
  in
  exit (Cmd.eval cmd)
