(* The unified verification-engine interface: one [run] signature over
   the three engines, returning a verdict plus an open counter set. *)

open Symkit

type id = Bdd_reach | Sat_bmc | Explicit_bfs

let id_to_string = function
  | Bdd_reach -> "bdd-reachability"
  | Sat_bmc -> "sat-bmc"
  | Explicit_bfs -> "explicit-bfs"

let short_name = function
  | Bdd_reach -> "bdd"
  | Sat_bmc -> "bmc"
  | Explicit_bfs -> "explicit"

type verdict =
  | Holds of { detail : string }
  | Violated of { trace : Model.state array; model : Model.t }
  | Unknown of { detail : string }

type result = { verdict : verdict; counters : (string * int) list }

type t = {
  id : id;
  name : string;
  doc : string;
  run :
    ?cancel:(unit -> bool) ->
    ?obs:Obs.t ->
    ?max_depth:int ->
    Configs.t ->
    result;
}

(* Explicit-state BFS keeps a hash table entry per visited state, so it
   needs a memory bound the symbolic engines don't; past it the verdict
   degrades to Unknown rather than claiming exhaustion. *)
let explicit_max_states = 2_000_000

let flush obs pairs = List.iter (fun (n, v) -> Obs.incr_by obs n v) pairs

(* Shared run wrapper: guarantee a live track (counters must flow into
   the telemetry even when nobody asked for a trace — a private
   collector serves as the counter store and is dropped once the totals
   are read), wrap the run in a root span, and account the GC. *)
let instrumented ~name impl ?(cancel = fun () -> false) ?obs ?(max_depth = 24)
    cfg =
  let obs =
    match obs with
    | Some o when Obs.enabled o -> o
    | _ -> Obs.Collector.track (Obs.Collector.create ()) name
  in
  let gc0 = Gc.quick_stat () in
  let sp = Obs.start obs ~args:[ ("engine", name) ] "engine.run" in
  (* Close the span even when the engine raises: a supervised retry
     reuses the track, and an unbalanced span would swallow the whole
     next attempt in the trace. *)
  let verdict =
    Fun.protect ~finally:(fun () -> Obs.stop sp) (fun () ->
        impl ~cancel ~obs ~max_depth cfg)
  in
  let gc1 = Gc.quick_stat () in
  Obs.incr_by obs "gc.minor_collections"
    (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  Obs.incr_by obs "gc.major_collections"
    (gc1.Gc.major_collections - gc0.Gc.major_collections);
  { verdict; counters = Obs.counters obs }

let bad_prop (cfg : Configs.t) =
  Props.integrated_node_frozen ~nodes:cfg.Configs.nodes

(* BDD memory-pressure gauges: flushed after every BDD-backed run so
   the portfolio/service telemetry (and [tta_served]'s metrics) expose
   the live and peak unique-table populations next to the GC counters.
   The names are pinned by a golden test in [test/test_obs.ml]. *)
let flush_bdd_gauges obs mgr =
  Obs.set_max obs "bdd.live_nodes" (Bdd.live_nodes mgr);
  Obs.set_max obs "bdd.peak_nodes" (Bdd.peak_nodes mgr)

let run_bdd ~cancel ~obs ~max_depth cfg =
  let model = Build.model cfg in
  let mgr = Bdd.create_manager () in
  let enc = Enc.create mgr model in
  let verdict =
    match
      Reach.check ~max_iterations:max_depth ~cancel ~obs enc
        ~bad:(bad_prop cfg)
    with
    | Reach.Safe stats ->
        Holds
          {
            detail =
              Printf.sprintf "proved safe: %d iterations, %.0f reachable states"
                stats.Reach.iterations stats.Reach.reachable_states;
          }
    | Reach.Unsafe (trace, _) -> Violated { trace; model }
    | Reach.Depth_exhausted stats ->
        Unknown
          {
            detail =
              Printf.sprintf "no fixpoint after %d iterations"
                stats.Reach.iterations;
          }
  in
  flush obs (Bdd.counters mgr);
  flush_bdd_gauges obs mgr;
  verdict

let run_bmc ~cancel ~obs ~max_depth cfg =
  let model = Build.model cfg in
  let mgr = Bdd.create_manager () in
  let enc = Enc.create mgr model in
  let verdict =
    match Bmc.check ~max_depth ~cancel ~obs enc ~bad:(bad_prop cfg) with
    | Bmc.Counterexample trace -> Violated { trace; model }
    | Bmc.No_counterexample (Some d) ->
        Holds { detail = Printf.sprintf "no counterexample up to depth %d" d }
    | Bmc.No_counterexample None ->
        Unknown { detail = "cancelled before depth 0 completed" }
  in
  flush obs (Bdd.counters mgr);
  verdict

let run_explicit ~cancel ~obs ~max_depth cfg =
  let ctx = Exec.make_ctx cfg in
  (* The executable twin's own model instance: structurally equal to
     [Build.model cfg], and the one its states index into. *)
  let model = Exec.model ctx in
  let bad = bad_prop cfg in
  let bad_state s = Model.eval_pred model bad s in
  match
    Explicit.search ~max_states:explicit_max_states ~max_depth ~cancel ~obs
      ~initial:[ Exec.initial ctx ]
      ~next:(Exec.successors ctx) ~bad:bad_state ()
  with
  | Explicit.Violation trace -> Violated { trace = Array.of_list trace; model }
  | Explicit.Exhausted { states; depth } ->
      Holds
        {
          detail =
            Printf.sprintf
              "explicit BFS exhausted the reachable space: %d states, depth %d"
              states depth;
        }
  | Explicit.Bounded { states; depth } ->
      Unknown
        {
          detail =
            Printf.sprintf "explicit BFS stopped at a bound: %d states, depth %d"
              states depth;
        }

let make id doc impl =
  let name = id_to_string id in
  { id; name; doc; run = instrumented ~name impl }

let all =
  [
    make Bdd_reach "symbolic fixpoint reachability over BDDs" run_bdd;
    make Sat_bmc "SAT bounded model checking (incremental unrolling)" run_bmc;
    make Explicit_bfs "explicit-state BFS over the executable twin"
      run_explicit;
  ]

let get id = List.find (fun e -> e.id = id) all
let short_names = List.map (fun e -> short_name e.id) all

let of_string s =
  List.find_opt (fun e -> s = e.name || s = short_name e.id) all

let id_of_string s = Option.map (fun e -> e.id) (of_string s)

(* ------------------------------------------------------------------ *)
(* Engine-independent helpers *)

(* Export the configuration's model in the SMV input language, with the
   safety property as an INVARSPEC. *)
let export_smv (cfg : Configs.t) path =
  let model = Build.model cfg in
  Smv_export.to_file
    ~invarspec:(Props.integrated_node_frozen ~nodes:cfg.Configs.nodes)
    model path

(* Reachability of a probe condition (sanity experiments): returns the
   witness trace if the condition is reachable. *)
let witness ?(max_depth = 24) (cfg : Configs.t) probe =
  let model = Build.model cfg in
  let enc = Enc.create (Bdd.create_manager ()) model in
  match Bmc.check ~max_depth enc ~bad:probe with
  | Bmc.Counterexample trace -> Some (trace, model)
  | Bmc.No_counterexample _ -> None

(* A compact, human-oriented rendering of a counterexample: per step,
   each node's protocol state and slot, plus the coupler fault
   activity. Used by the CLIs and EXPERIMENTS.md. *)
let describe_trace (model : Model.t) (trace : Model.state array) ~nodes =
  let buf = Buffer.create 1024 in
  let get s name = Model.state_get model s name in
  let node_letter i = String.make 1 (Char.chr (Char.code 'A' + i - 1)) in
  Array.iteri
    (fun step s ->
      Buffer.add_string buf (Printf.sprintf "step %2d:" (step + 1));
      for i = 1 to nodes do
        let state =
          match get s (Build.node_var i "state") with
          | Symkit.Expr.Sym st -> st
          | v -> Symkit.Expr.value_to_string v
        in
        let slot =
          match get s (Build.node_var i "slot") with
          | Symkit.Expr.Int k -> k
          | _ -> -1
        in
        Buffer.add_string buf
          (Printf.sprintf " %s=%s/s%d" (node_letter i) state slot)
      done;
      (match (get s "c0_fault", get s "c1_fault") with
      | Symkit.Expr.Sym "none", Symkit.Expr.Sym "none" -> ()
      | f0, f1 ->
          Buffer.add_string buf
            (Printf.sprintf "  [faults: c0=%s c1=%s]"
               (Symkit.Expr.value_to_string f0)
               (Symkit.Expr.value_to_string f1)));
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf
