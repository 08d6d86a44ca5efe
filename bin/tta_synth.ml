(* Guardian design-space synthesis: sweep the Section 6 space, reject
   candidates analytically, model-check the survivors, print the
   containment/cost Pareto frontier.

   Examples:
     tta_synth --sample 120 --seed 7        # seeded sample + paper anchors
     tta_synth --sweep                      # the full 4800-point grid
     tta_synth --via-service /tmp/tta.sock  # survivors as daemon traffic
     tta_synth --via-service 127.0.0.1:7171 --json synth.json
     tta_synth --chaos 42:engine            # chaos on the direct pool path

   Exits 0 when the run kept the acceptance invariants: the analytic
   pre-filter rejected something, every model-checked candidate is
   inside the Section 6 envelope, the frontier is non-empty — and, when
   the paper anchors are swept (always, unless --no-anchors), the
   frontier reproduces the paper's shape. *)

open Cmdliner

let main sweep sample seed nodes depth via_service no_anchors chaos json_path
    obs =
  let space = Synthesis.Space.default () in
  let sample = if sweep then None else Some sample in
  let via =
    match via_service with
    | None -> Synthesis.Direct
    | Some s -> (
        match Service.Net.addr_of_string s with
        | Ok addr -> Synthesis.Service addr
        | Error e ->
            Printf.eprintf "tta_synth: bad --via-service address %S: %s\n" s e;
            exit 2)
  in
  let faults = Cli.faults_of_chaos chaos in
  (match via with
  | Synthesis.Direct -> ()
  | Synthesis.Service _ ->
      if chaos <> None then
        prerr_endline
          "tta_synth: note: --chaos applies to the direct pool path; the \
           service path inherits the daemon's own --chaos");
  let anchors = not no_anchors in
  Printf.printf "synthesizing over %d-point space (%s, %d nodes)%s\n%!"
    (Synthesis.Space.size space)
    (match sample with
    | None -> "full sweep"
    | Some n -> Printf.sprintf "sample %d, seed %d" n seed)
    nodes
    (match via with
    | Synthesis.Direct -> ""
    | Synthesis.Service addr ->
        Printf.sprintf ", via daemon at %s" (Service.Net.addr_to_string addr));
  let r =
    Synthesis.run ~seed ?sample ~anchors ~nodes ?depth ~faults ~via space
  in
  Format.printf "%a" Synthesis.pp_report r;
  Option.iter (fun path -> Cli.write_json path (Synthesis.report_to_json r))
    json_path;
  Cli.obs_finish obs;
  let ok =
    r.Synthesis.rejected > 0 && r.Synthesis.envelope_agreement
    && r.Synthesis.frontier <> []
    && ((not anchors) || Synthesis.paper_frontier_ok r)
  in
  if ok then 0 else 1

let () =
  let sweep =
    Arg.(value & flag & info [ "sweep" ] ~doc:"Enumerate the full grid.")
  in
  let sample =
    Arg.(
      value & opt int 120
      & info [ "sample" ] ~docv:"N"
          ~doc:"Sample $(docv) candidates (ignored under $(b,--sweep)).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Sampling seed.")
  in
  let depth =
    Arg.(
      value & opt (some int) None
      & info [ "d"; "depth" ] ~docv:"BOUND"
          ~doc:
            "Verification bound (default: 100 for the direct BDD jobs, a \
             20/22/24 BMC ratchet via the service).")
  in
  let via_service =
    Arg.(
      value & opt (some string) None
      & info [ "via-service" ] ~docv:"ADDR"
          ~doc:
            "Check survivors against a running verification daemon \
             (HOST:PORT or a Unix socket path) instead of the in-process \
             pool — the sweep becomes warm-session traffic.")
  in
  let no_anchors =
    Arg.(
      value & flag
      & info [ "no-anchors" ]
          ~doc:
            "Do not force the four Section 5 designs into the candidate \
             list.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tta_synth"
         ~doc:
           "Guardian design-space synthesis over the Section 6 envelope \
            with a model-checked Pareto frontier")
      Term.(
        const main $ sweep $ sample $ seed $ Cli.nodes ~default:2 () $ depth
        $ via_service $ no_anchors $ Cli.chaos () $ Cli.json () $ Cli.obs ())
  in
  exit (Cmd.eval' cmd)
