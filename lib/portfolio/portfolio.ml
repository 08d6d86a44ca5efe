(* Multicore portfolio verification — see the interface for the
   design overview. *)

(* portfolio.ml shadows the library wrapper, so the sibling modules
   must be re-exported to be reachable from outside the library. *)
module Json = Json
module Pool = Pool
module Cache = Cache
module Telemetry = Telemetry

open Tta_model

type engine = Engine.id
type verdict = Engine.verdict

let default_engines = [ Engine.Bdd_reach; Engine.Sat_bmc ]

let conclusive = function
  | Engine.Holds _ | Engine.Violated _ -> true
  | Engine.Unknown _ -> false

type result = {
  config : Configs.t;
  engine : engine;
  verdict : verdict;
  wall_s : float;
  cache_hit : bool;
  runs : (engine * verdict * float) list;
  failures : (engine * string) list;
}

let now () = Unix.gettimeofday ()

let add_telemetry telemetry ~label ~engine ~verdict ~detail ~wall_s ~cache_hit
    ~winner ~counters =
  match telemetry with
  | None -> ()
  | Some t ->
      Telemetry.add t
        {
          Telemetry.config = label;
          engine = Engine.id_to_string engine;
          outcome = Telemetry.outcome_of_verdict verdict;
          detail;
          wall_s;
          cache_hit;
          winner;
          counters;
        }

let detail_of = function
  | Engine.Holds { detail } -> detail
  | Engine.Unknown { detail } -> detail
  | Engine.Violated { trace; _ } ->
      Printf.sprintf "counterexample of %d steps" (Array.length trace)

(* One observability track per engine run, named after the job and the
   engine. *)
let run_track obs ~label engine =
  match obs with
  | None -> Obs.disabled
  | Some col ->
      Obs.Collector.track col (label ^ "/" ^ Engine.id_to_string engine)

(* Conclusive cached verdict for any of [engines], in their order. *)
let cache_probe cache ~model ~engines ~max_depth =
  match cache with
  | None -> None
  | Some c ->
      List.find_map
        (fun e ->
          match Cache.lookup c ~model ~engine:e ~max_depth with
          | Some v when conclusive v -> Some (e, v)
          | _ -> None)
        engines

let cache_store cache ~model ~engine ~max_depth verdict =
  match cache with
  | None -> ()
  | Some c ->
      if conclusive verdict then
        Cache.store c ~model ~engine ~max_depth verdict

let note_cache_hit obs ~label engine =
  match obs with
  | None -> ()
  | Some col ->
      let tr = Obs.Collector.track col (label ^ "/cache") in
      Obs.instant tr
        ~args:[ ("engine", Engine.id_to_string engine) ]
        "cache.hit";
      Obs.incr_by tr "cache.hits" 1

(* ------------------------------------------------------------------ *)
(* The engine chain *)

(* Engine-track counters already include the supervisor's live ticks
   when the track is enabled; merging by name keeps the supervisor's
   totals present without double counting either way. *)
let merge_counters engine_counters supervisor_counters =
  engine_counters
  @ List.filter
      (fun (n, _) -> not (List.mem_assoc n engine_counters))
      supervisor_counters

let all_failed r = r.failures <> [] && r.runs = []

let all_failed_detail failures =
  "all engines failed — "
  ^ String.concat "; "
      (List.map
         (fun (e, msg) -> Engine.id_to_string e ^ ": " ^ msg)
         failures)

let race ?cancel ?cache ?telemetry ?obs ?label ?(engines = default_engines)
    ?(max_depth = 24) ?(supervisor = Resilience.Supervisor.default)
    ?(faults = Resilience.Faults.disabled) cfg =
  if engines = [] then invalid_arg "Portfolio.race: no engines";
  let ext_cancel = match cancel with Some c -> c | None -> fun () -> false in
  let label =
    match label with Some l -> l | None -> Configs.name cfg
  in
  let model = Build.model cfg in
  let t0 = now () in
  match cache_probe cache ~model ~engines ~max_depth with
  | Some (e, v) ->
      let wall_s = now () -. t0 in
      note_cache_hit obs ~label e;
      add_telemetry telemetry ~label ~engine:e ~verdict:v
        ~detail:(detail_of v) ~wall_s ~cache_hit:true ~winner:true
        ~counters:[];
      { config = cfg; engine = e; verdict = v; wall_s; cache_hit = true;
        runs = []; failures = [] }
  | None ->
      let run_engine e =
        let track = run_track obs ~label e in
        let fired = ref false in
        let cancel () =
          let c = ext_cancel () in
          if c then fired := true;
          c
        in
        let t0 = now () in
        let o =
          Resilience.Supervisor.run ~policy:supervisor ~faults ~obs:track
            ~cancel ~max_depth (Engine.get e) cfg
        in
        let wall = now () -. t0 in
        match o.Resilience.Supervisor.result with
        | Error f ->
            let msg = Resilience.Supervisor.failure_to_string f in
            Obs.instant track ~args:[ ("failure", msg) ] "engine.failed";
            (e, Error msg, o.Resilience.Supervisor.counters, wall)
        | Ok r ->
            (* A cancelled BMC run reports the bounded no-counterexample
               claim of its last completed depth, which must not pass
               for the full-bound verdict. Proofs and counterexamples
               stay sound whenever the cancel fired. *)
            let v =
              match r.Engine.verdict with
              | Engine.Holds _ when !fired && e = Engine.Sat_bmc ->
                  Engine.Unknown
                    { detail = "cancelled before completing the bound" }
              | v -> v
            in
            ( e,
              Ok v,
              merge_counters r.Engine.counters
                o.Resilience.Supervisor.counters,
              wall )
      in
      (* Try the engines in order: the first conclusive verdict or the
         caller's cancel ends the chain; a recorded failure moves on. *)
      let rec chain acc = function
        | [] -> List.rev acc
        | e :: rest ->
            let ((_, outcome, _, _) as r) = run_engine e in
            let concluded =
              match outcome with Ok v -> conclusive v | Error _ -> false
            in
            if concluded || ext_cancel () then List.rev (r :: acc)
            else chain (r :: acc) rest
      in
      let results = chain [] engines in
      let wall_s = now () -. t0 in
      let runs =
        List.filter_map
          (function e, Ok v, _, w -> Some (e, v, w) | _, Error _, _, _ -> None)
          results
      in
      let failures =
        List.filter_map
          (function e, Error msg, _, _ -> Some (e, msg) | _, Ok _, _, _ -> None)
          results
      in
      (* The chain stopped at its conclusive verdict, if any; otherwise
         the first inconclusive one stands, and when every engine
         failed, an Unknown that names each failure. *)
      let winner_e, winner_v =
        match (List.find_opt (fun (_, v, _) -> conclusive v) runs, runs) with
        | Some (e, v, _), _ | None, (e, v, _) :: _ -> (e, v)
        | None, [] ->
            ( List.hd engines,
              Engine.Unknown { detail = all_failed_detail failures } )
      in
      cache_store cache ~model ~engine:winner_e ~max_depth winner_v;
      List.iter
        (fun (e, outcome, counters, wall) ->
          let v =
            match outcome with
            | Ok v -> v
            | Error msg -> Engine.Unknown { detail = "engine failed: " ^ msg }
          in
          add_telemetry telemetry ~label ~engine:e ~verdict:v
            ~detail:(detail_of v) ~wall_s:wall ~cache_hit:false
            ~winner:(e = winner_e && runs <> []) ~counters)
        results;
      {
        config = cfg;
        engine = winner_e;
        verdict = winner_v;
        wall_s;
        cache_hit = false;
        runs;
        failures;
      }

(* ------------------------------------------------------------------ *)
(* Matrix fan-out *)

type job = {
  label : string;
  cfg : Configs.t;
  engine : engine option;
  max_depth : int;
}

let job ?label ?engine ?(max_depth = 100) cfg =
  let label = match label with Some l -> l | None -> Configs.name cfg in
  { label; cfg; engine; max_depth }

let run_matrix ?domains ?cache ?telemetry ?obs ?faults jobs =
  let run j =
    ( j,
      race ?cache ?telemetry ?obs ?faults ~label:j.label
        ?engines:(Option.map (fun e -> [ e ]) j.engine)
        ~max_depth:j.max_depth j.cfg )
  in
  let pool_obs =
    match obs with
    | None -> Obs.disabled
    | Some col -> Obs.Collector.track col "pool"
  in
  (* Supervision makes [run] total in practice; a residual pool-level
     exception (infrastructure, not an engine) still must not strand
     the batch, so it degrades to a failed result for its own job. *)
  List.map2
    (fun j -> function
      | Ok jr -> jr
      | Error exn ->
          let msg = "task failed: " ^ Printexc.to_string exn in
          let engine =
            match j.engine with Some e -> e | None -> List.hd default_engines
          in
          ( j,
            {
              config = j.cfg;
              engine;
              verdict = Engine.Unknown { detail = msg };
              wall_s = 0.0;
              cache_hit = false;
              runs = [];
              failures = [ (engine, msg) ];
            } ))
    jobs
    (Pool.map ?domains ~obs:pool_obs run jobs)

(* ------------------------------------------------------------------ *)
(* The Section 5 matrix *)

let section5_jobs ?(nodes = Configs.default_nodes) ?(safe_depth = 100)
    ?(unsafe_depth = 100) ?bmc_depth () =
  let bmc_depth =
    match bmc_depth with
    | Some d -> d
    | None -> if nodes >= 4 then 16 else 14
  in
  let bdd = Engine.Bdd_reach in
  [
    job ~label:"E1 passive" ~engine:bdd ~max_depth:safe_depth
      (Configs.passive ~nodes ());
    job ~label:"E2 time-windows" ~engine:bdd ~max_depth:safe_depth
      (Configs.time_windows ~nodes ());
    job ~label:"E3 small-shifting" ~engine:bdd ~max_depth:safe_depth
      (Configs.small_shifting ~nodes ());
    job ~label:"E4 full-shifting (dup cold start)" ~engine:bdd
      ~max_depth:unsafe_depth
      (Configs.full_shifting ~nodes ());
    (* The C-state-duplication failure needs at least three
       participants (see EXPERIMENTS.md), hence the clamp. *)
    job ~label:"E5 full-shifting (dup C-state)" ~engine:bdd
      ~max_depth:unsafe_depth
      (Configs.full_shifting ~nodes:(max 3 nodes)
         ~forbid_cold_start_duplication:true ());
    job ~label:"E9 full-shifting via SAT BMC" ~engine:Engine.Sat_bmc
      ~max_depth:bmc_depth
      (Configs.full_shifting ~nodes ());
  ]
