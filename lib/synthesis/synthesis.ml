(* The synthesis pipeline: sweep, analytic pre-filter, model checking
   (pool or daemon), Pareto frontier. *)

module Space = Space
module Prefilter = Prefilter
module Check = Check
module Pareto = Pareto

type via = Direct | Service of Service.Net.addr

type report = {
  space_size : int;
  candidates : int;
  rejected : int;
  rejections : (string * int) list;
  survivors : int;
  checked : int;
  upheld : int;
  breached : int;
  undetermined : int;
  envelope_agreement : bool;
  session_reuses : int;
  outcomes : Check.outcome list;
  frontier : Pareto.point list;
  wall_s : float;
  candidates_per_s : float;
}

let dedup_candidates cands =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let k = Space.candidate_key c in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    cands

let run ?(seed = 1) ?sample ?(anchors = true) ?(nodes = 2) ?depth ?domains
    ?faults ?(via = Direct) (space : Space.t) =
  let t0 = Unix.gettimeofday () in
  let swept =
    match sample with
    | None -> Space.enumerate space
    | Some n -> Space.sample ~seed ~count:n space
  in
  let cands =
    dedup_candidates
      ((if anchors then Space.paper_candidates space else []) @ swept)
  in
  let survivors, _rejects, rejections = Prefilter.split space cands in
  let outcomes =
    match via with
    | Direct -> Check.direct ?domains ?faults ?depth ~nodes survivors
    | Service addr -> Check.via_service ?depth ~nodes addr survivors
  in
  let count p = List.length (List.filter p outcomes) in
  let upheld = count (fun o -> o.Check.verdict = Check.Upheld) in
  let breached =
    count (fun o ->
        match o.Check.verdict with Check.Breached _ -> true | _ -> false)
  in
  let undetermined = List.length outcomes - upheld - breached in
  let checked =
    match via with
    | Direct ->
        List.map
          (fun o ->
            Symkit.Model.fingerprint (Tta_model.Build.model o.Check.config))
          outcomes
        |> List.sort_uniq String.compare |> List.length
    | Service _ -> List.length outcomes
  in
  (* The acceptance invariant, re-verified rather than assumed: nothing
     the model checker saw is outside the Section 6 envelope. *)
  let envelope_agreement =
    List.for_all (fun o -> Prefilter.check space o.Check.candidate = []) outcomes
  in
  let session_reuses = count (fun o -> o.Check.reused_session) in
  let frontier = Pareto.frontier (List.map Pareto.point_of_outcome outcomes) in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    space_size = Space.size space;
    candidates = List.length cands;
    rejected = List.length cands - List.length survivors;
    rejections;
    survivors = List.length survivors;
    checked;
    upheld;
    breached;
    undetermined;
    envelope_agreement;
    session_reuses;
    outcomes;
    frontier;
    wall_s;
    candidates_per_s = float_of_int (List.length cands) /. Float.max 1e-9 wall_s;
  }

let frontier_feature_sets r =
  List.map (fun p -> p.Pareto.candidate.Space.feature_set) r.frontier
  |> List.sort_uniq Guardian.Feature_set.compare

let paper_frontier_ok r =
  match r.frontier with
  | [] -> false
  | first :: rest ->
      let cost (p : Pareto.point) =
        (p.Pareto.costs.Pareto.buffer_bits, p.Pareto.costs.Pareto.authority)
      in
      let cheapest =
        List.fold_left
          (fun acc p -> if cost p < cost acc then p else acc)
          first rest
      in
      let most_capable =
        List.fold_left
          (fun acc p ->
            if
              p.Pareto.objectives.Pareto.threats
              > acc.Pareto.objectives.Pareto.threats
            then p
            else acc)
          first rest
      in
      List.length (frontier_feature_sets r) = 4
      && cheapest.Pareto.candidate.Space.feature_set
         = Guardian.Feature_set.Passive
      && most_capable.Pareto.candidate.Space.feature_set
         = Guardian.Feature_set.Full_shifting

let verdict_summary r =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let key = Tta_model.Configs.name o.Check.config in
      let label = Check.verdict_label o.Check.verdict in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      if not (List.mem label prev) then Hashtbl.replace tbl key (label :: prev))
    r.outcomes;
  Hashtbl.fold
    (fun key labels acc ->
      (key, String.concat "/" (List.sort String.compare labels)) :: acc)
    tbl []
  |> List.sort compare

let report_to_json r =
  Json.Obj
    [
      ("space_size", Json.Int r.space_size);
      ("candidates", Json.Int r.candidates);
      ("rejected", Json.Int r.rejected);
      ( "rejections",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.rejections) );
      ("survivors", Json.Int r.survivors);
      ("checked", Json.Int r.checked);
      ("upheld", Json.Int r.upheld);
      ("breached", Json.Int r.breached);
      ("undetermined", Json.Int r.undetermined);
      ("envelope_agreement", Json.Bool r.envelope_agreement);
      ("session_reuses", Json.Int r.session_reuses);
      ( "session_reuse_rate",
        Json.Float
          (float_of_int r.session_reuses
          /. float_of_int (max 1 (List.length r.outcomes))) );
      ("frontier_size", Json.Int (List.length r.frontier));
      ("frontier", Json.List (List.map Pareto.to_json r.frontier));
      ("paper_frontier", Json.Bool (paper_frontier_ok r));
      ( "verdicts",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.String v)) (verdict_summary r)) );
      ("wall_s", Json.Float r.wall_s);
      ("candidates_per_s", Json.Float r.candidates_per_s);
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "space %d points; swept %d candidates: %d rejected analytically, %d \
     survivors, %d checker runs (%.1f candidates/s, %.2f s)@."
    r.space_size r.candidates r.rejected r.survivors r.checked
    r.candidates_per_s r.wall_s;
  List.iter
    (fun (k, n) -> if n > 0 then Format.fprintf ppf "  rejected %4d  %s@." n k)
    r.rejections;
  Format.fprintf ppf
    "verdicts: %d upheld, %d breached, %d undetermined; envelope agreement %b@."
    r.upheld r.breached r.undetermined r.envelope_agreement;
  if r.session_reuses > 0 then
    Format.fprintf ppf "warm-session reuses: %d of %d requests@."
      r.session_reuses (List.length r.outcomes);
  Format.fprintf ppf "Pareto frontier (%d designs, paper shape %b):@."
    (List.length r.frontier) (paper_frontier_ok r);
  Pareto.pp_table ppf r.frontier
