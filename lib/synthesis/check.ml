(* Lower surviving candidates to Section 5 configurations and verify
   them — on the in-process pool, or as wire traffic so a sweep
   exercises the daemon's warm session families. *)

type verdict = Upheld | Breached of int | Undetermined of string

let verdict_label = function
  | Upheld -> "upheld"
  | Breached _ -> "breached"
  | Undetermined _ -> "undetermined"

type outcome = {
  candidate : Space.candidate;
  config : Tta_model.Configs.t;
  verdict : verdict;
  reused_session : bool;
  warm_depth : int;
}

let lower ~nodes (c : Space.candidate) =
  match c.Space.feature_set with
  | Guardian.Feature_set.Passive -> Tta_model.Configs.passive ~nodes ()
  | Guardian.Feature_set.Time_windows -> Tta_model.Configs.time_windows ~nodes ()
  | Guardian.Feature_set.Small_shifting ->
      Tta_model.Configs.small_shifting ~nodes ()
  | Guardian.Feature_set.Full_shifting ->
      Tta_model.Configs.full_shifting ~nodes ()

let of_engine_verdict = function
  | Tta_model.Engine.Holds _ -> Upheld
  | Tta_model.Engine.Violated { trace; _ } -> Breached (Array.length trace)
  | Tta_model.Engine.Unknown { detail } -> Undetermined detail

(* ------------------------------------------------------------------ *)
(* Direct path: one pool job per distinct transition system *)

(* Candidates are deduplicated by model fingerprint, the key the
   verdict cache, the daemon's coalescing, its session families and the
   router all use: configurations that build one transition system
   share one job, and each candidate keeps its own configuration. *)
let direct ?domains ?obs ?faults ?(depth = 100) ~nodes cands =
  let keyed =
    List.map
      (fun c ->
        let cfg = lower ~nodes c in
        (c, cfg, Symkit.Model.fingerprint (Tta_model.Build.model cfg)))
      cands
  in
  let uniq =
    List.fold_left
      (fun acc (_, cfg, fp) ->
        if List.mem_assoc fp acc then acc else (fp, cfg) :: acc)
      [] keyed
    |> List.rev
  in
  let jobs =
    List.map
      (fun (_, cfg) ->
        Portfolio.job
          ~label:("synth/" ^ Tta_model.Configs.name cfg)
          ~engine:Tta_model.Engine.Bdd_reach ~max_depth:depth cfg)
      uniq
  in
  let results = Portfolio.run_matrix ?domains ?obs ?faults jobs in
  let verdicts =
    List.map2
      (fun (fp, _) (_, (r : Portfolio.result)) ->
        (fp, of_engine_verdict r.Portfolio.verdict))
      uniq results
  in
  List.map
    (fun (c, cfg, fp) ->
      {
        candidate = c;
        config = cfg;
        verdict = List.assoc fp verdicts;
        reused_session = false;
        warm_depth = 0;
      })
    keyed

(* ------------------------------------------------------------------ *)
(* Service path: sequential JSON-lines requests over one connection *)

let verdict_of_response = function
  | Service.Protocol.Answer { verdict; _ } -> (
      match verdict with
      | Service.Protocol.Holds _ -> Upheld
      | Service.Protocol.Violated { steps; _ } -> Breached steps
      | Service.Protocol.Unknown { detail; _ } -> Undetermined detail)
  | Service.Protocol.Degraded { code; clean_depth; _ } ->
      Undetermined
        (Printf.sprintf "degraded (%s): no counterexample up to depth %d" code
           clean_depth)
  | Service.Protocol.Overloaded _ -> Undetermined "overloaded"
  | Service.Protocol.Cancelled { reason; _ } ->
      Undetermined ("cancelled: " ^ reason)
  | Service.Protocol.Error { reason; _ } -> Undetermined ("error: " ^ reason)
  | Service.Protocol.Pong _ -> Undetermined "unexpected pong"

let via_service ?(depth = 20) ?(depth_spread = 3) ~nodes addr cands =
  let fd = Service.Net.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let reader = Service.Net.reader fd in
  List.mapi
    (fun i c ->
      let cfg = lower ~nodes c in
      let d = depth + (2 * (i mod max 1 depth_spread)) in
      let req =
        Service.Protocol.request
          ~id:(Printf.sprintf "synth-%d" i)
          ~config:(Guardian.Feature_set.to_string c.Space.feature_set)
          ~nodes ~engine:"bmc" ~depth:d ()
      in
      Service.Net.write_all fd (Json.to_string req ^ "\n");
      let verdict, reused_session, warm_depth =
        match Service.Net.read_line reader with
        | None -> (Undetermined "connection closed", false, 0)
        | Some l -> (
            match Service.Protocol.decode_response_line l with
            | Error e -> (Undetermined ("garbled response: " ^ e), false, 0)
            | Ok
                (Service.Protocol.Answer { reused_session; warm_depth; _ } as
                 resp) ->
                (verdict_of_response resp, reused_session, warm_depth)
            | Ok resp -> (verdict_of_response resp, false, 0))
      in
      { candidate = c; config = cfg; verdict; reused_session; warm_depth })
    cands
