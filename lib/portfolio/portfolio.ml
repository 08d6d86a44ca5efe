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

let priority =
  [ Engine.Bdd_reach; Engine.Explicit_bfs; Engine.Sat_induction;
    Engine.Sat_bmc ]

let conclusive = function
  | Engine.Holds _ | Engine.Violated _ -> true
  | Engine.Unknown _ -> false

(* Deterministic selection: scan the fixed priority list, never the
   arrival order. Engines outside [priority] (impossible today) would
   be considered last, in their arrival order, rather than dropped. *)
let select results =
  let by_engine e =
    List.find_opt (fun (e', _, _) -> e' = e) results
  in
  let in_priority (e, _, _) = List.mem e priority in
  let ordered =
    List.filter_map by_engine priority
    @ List.filter (fun r -> not (in_priority r)) results
  in
  match List.find_opt (fun (_, v, _) -> conclusive v) ordered with
  | Some r -> Some r
  | None -> ( match ordered with [] -> None | r :: _ -> Some r)

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
   engine so the Chrome trace shows the race as parallel timelines. *)
let run_track obs ~label engine =
  match obs with
  | None -> Obs.disabled
  | Some col ->
      Obs.Collector.track col (label ^ "/" ^ Engine.id_to_string engine)

(* Conclusive cached verdict for any of [engines], in priority-filtered
   order. *)
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
(* Engine racing *)

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

let race ?cancel ?cache ?telemetry ?obs ?label ?(engines = priority)
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
      let flag = Atomic.make false in
      (* Wall time at which the first conclusive verdict raised the
         flag — written once, read by the cancelled losers to report
         how long cancellation took to take effect. *)
      let flag_at = Atomic.make 0.0 in
      let run_engine e =
        let track = run_track obs ~label e in
        let observed = ref false in
        (* [observed] records the race's own flag; [externally] the
           caller's [?cancel] hook (a service deadline, a drain). Both
           stop the engine; only the former feeds the latency metric,
           whose reference point is the winner raising the flag. *)
        let externally = ref false in
        let cancel () =
          let c = Atomic.get flag in
          if c then observed := true;
          let e = ext_cancel () in
          if e then externally := true;
          c || e
        in
        let t0 = now () in
        let o =
          Resilience.Supervisor.run ~policy:supervisor ~faults ~obs:track
            ~cancel ~max_depth (Engine.get e) cfg
        in
        let wall = now () -. t0 in
        match o.Resilience.Supervisor.result with
        | Error f ->
            (* A crashed or hung engine is a recorded failure, not a
               race abort: the surviving racers keep running. *)
            let msg = Resilience.Supervisor.failure_to_string f in
            Obs.instant track ~args:[ ("failure", msg) ] "engine.failed";
            (e, Error msg, o.Resilience.Supervisor.counters, wall)
        | Ok r ->
            (* A cancelled BMC run reports the bounded no-counterexample
               claim of its last completed depth; inside the race that
               must not pass for the full-bound verdict. Proofs (BDD
               fixpoint, k-induction, exhausted BFS) and counterexamples
               remain sound whether or not the flag fired mid-run. *)
            let v =
              match r.Engine.verdict with
              | Engine.Holds _
                when (!observed || !externally) && e = Engine.Sat_bmc ->
                  Engine.Unknown
                    { detail = "cancelled before completing the bound" }
              | v -> v
            in
            if conclusive v then begin
              let first = not (Atomic.exchange flag true) in
              if first then Atomic.set flag_at (now ())
            end;
            if !observed then begin
              let latency_us =
                int_of_float ((now () -. Atomic.get flag_at) *. 1e6)
              in
              Obs.set_max track "race.cancel_latency_us" (max 0 latency_us);
              Obs.instant track "race.cancelled"
            end;
            ( e,
              Ok v,
              merge_counters r.Engine.counters
                o.Resilience.Supervisor.counters,
              wall )
      in
      let spawned =
        List.map
          (fun e -> Domain.spawn (fun () -> run_engine e))
          (List.tl engines)
      in
      (* The head engine runs on the calling domain. Bind it before the
         joins: [hd :: List.map Domain.join spawned] would evaluate the
         joins first (right-to-left), so the inline engine would only
         start after every spawned one finished — with the cancel flag
         already raised. *)
      let head_result = run_engine (List.hd engines) in
      let results = head_result :: List.map Domain.join spawned in
      let failures =
        List.filter_map
          (fun e ->
            List.find_map
              (function
                | e', Error msg, _, _ when e' = e -> Some (e', msg)
                | _ -> None)
              results)
          priority
      in
      (* Reorder the arrivals into priority order once; selection and
         reporting are then independent of the finishing schedule. *)
      let keyed =
        List.filter_map
          (function e, Ok v, _, w -> Some (e, v, w) | _, Error _, _, _ -> None)
          results
      in
      let winner_e, winner_v, winner_wall =
        match select keyed with
        | Some r -> r
        | None ->
            (* Every engine failed: degrade to an explicit Unknown that
               names each failure, attributed to the highest-priority
               engine that was asked. *)
            let e =
              match List.find_opt (fun e -> List.mem e engines) priority with
              | Some e -> e
              | None -> List.hd engines
            in
            (e, Engine.Unknown { detail = all_failed_detail failures },
             now () -. t0)
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
            ~winner:(e = winner_e && keyed <> []) ~counters)
        results;
      let runs =
        List.filter_map
          (fun e ->
            List.find_map
              (function
                | e', Ok v, _, w when e' = e -> Some (e', v, w)
                | _ -> None)
              results)
          priority
      in
      {
        config = cfg;
        engine = winner_e;
        verdict = winner_v;
        wall_s = winner_wall;
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

let run_single ?cache ?telemetry ?obs ?(faults = Resilience.Faults.disabled)
    ~label ~engine ~max_depth cfg =
  let model = Build.model cfg in
  let t0 = now () in
  match cache_probe cache ~model ~engines:[ engine ] ~max_depth with
  | Some (e, v) ->
      let wall_s = now () -. t0 in
      note_cache_hit obs ~label e;
      add_telemetry telemetry ~label ~engine:e ~verdict:v
        ~detail:(detail_of v) ~wall_s ~cache_hit:true ~winner:true
        ~counters:[];
      { config = cfg; engine = e; verdict = v; wall_s; cache_hit = true;
        runs = []; failures = [] }
  | None ->
      let track = run_track obs ~label engine in
      let o =
        Resilience.Supervisor.run ~faults ~obs:track ~max_depth
          (Engine.get engine) cfg
      in
      let wall_s = now () -. t0 in
      let v, counters, failures =
        match o.Resilience.Supervisor.result with
        | Ok r ->
            ( r.Engine.verdict,
              merge_counters r.Engine.counters o.Resilience.Supervisor.counters,
              [] )
        | Error f ->
            let msg = Resilience.Supervisor.failure_to_string f in
            Obs.instant track ~args:[ ("failure", msg) ] "engine.failed";
            ( Engine.Unknown { detail = "engine failed: " ^ msg },
              o.Resilience.Supervisor.counters,
              [ (engine, msg) ] )
      in
      cache_store cache ~model ~engine ~max_depth v;
      add_telemetry telemetry ~label ~engine ~verdict:v ~detail:(detail_of v)
        ~wall_s ~cache_hit:false ~winner:(failures = []) ~counters;
      { config = cfg; engine; verdict = v; wall_s; cache_hit = false;
        runs = (if failures = [] then [ (engine, v, wall_s) ] else []);
        failures }

let run_matrix ?domains ?cache ?telemetry ?obs ?faults jobs =
  let run j =
    match j.engine with
    | Some engine ->
        ( j,
          run_single ?cache ?telemetry ?obs ?faults ~label:j.label
            ~engine ~max_depth:j.max_depth j.cfg )
    | None ->
        ( j,
          race ?cache ?telemetry ?obs ?faults ~label:j.label
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
            match j.engine with Some e -> e | None -> List.hd priority
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
