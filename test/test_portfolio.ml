(* Tests for the portfolio engine: the JSON codec, the work-stealing
   pool, the persistent verdict cache (hit/miss/invalidation), engine
   cancellation, the engine chain's order and stopping rule, and an
   end-to-end matrix run checked verdict-for-verdict against the
   sequential runner. 2-node clusters throughout, as in test_tta_model. *)

module Engine = Tta_model.Engine
module Configs = Tta_model.Configs

(* The historical [check] signature the assertions were written
   against, shimmed over the unified [Engine] interface. *)
let local_check ?cancel ~engine ~max_depth cfg =
  ((Engine.get engine).Engine.run ?cancel ~max_depth cfg).Engine.verdict

let nodes = 2

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "portfolio_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (* Cache.create mkdir-s it. *)
    d

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let v =
    Portfolio.Json.(
      Obj
        [
          ("null", Null);
          ("bools", List [ Bool true; Bool false ]);
          ("int", Int (-42));
          ("float", Float 1.5);
          ("string", String "line\nbreak \"quoted\" \t tab");
          ("empty_obj", Obj []);
          ("empty_list", List []);
          ("nested", Obj [ ("xs", List [ Int 1; Int 2; Int 3 ]) ]);
        ])
  in
  List.iter
    (fun pretty ->
      match Portfolio.Json.(of_string (to_string ~pretty v)) with
      | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip (pretty=%b)" pretty)
            true (v = v')
      | Error e -> Alcotest.failf "reparse failed: %s" e)
    [ false; true ]

let test_json_errors () =
  List.iter
    (fun s ->
      match Portfolio.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] trailing" ]

let test_json_accessors () =
  let v =
    match Portfolio.Json.of_string {|{"a": [1, 2], "b": "x", "c": true}|} with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let open Portfolio.Json in
  Alcotest.(check (option string))
    "member b" (Some "x")
    (Option.bind (member "b" v) string_value);
  Alcotest.(check int) "list length" 2
    (List.length (to_list (Option.get (member "a" v))));
  Alcotest.(check (option bool))
    "member c" (Some true)
    (Option.bind (member "c" v) bool_value);
  Alcotest.(check bool) "missing member" true (member "zzz" v = None)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order () =
  let items = List.init 50 Fun.id in
  List.iter
    (fun domains ->
      let got = Portfolio.Pool.map_exn ~domains (fun i -> i * i) items in
      Alcotest.(check (list int))
        (Printf.sprintf "squares in order (%d domains)" domains)
        (List.map (fun i -> i * i) items)
        got)
    [ 1; 2; 3; 64 ]

let test_pool_exception () =
  (* [map] captures per-item failures instead of tearing down the
     pool: the healthy items still deliver their results. *)
  let f i =
    if i = 5 then failwith "item 5"
    else if i = 7 then failwith "item 7"
    else i
  in
  let got = Portfolio.Pool.map ~domains:3 f (List.init 10 Fun.id) in
  Alcotest.(check int) "every item has a slot" 10 (List.length got);
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
          Alcotest.(check bool)
            (Printf.sprintf "item %d ok" i)
            true
            (v = i && i <> 5 && i <> 7)
      | Error (Failure msg) ->
          Alcotest.(check string)
            (Printf.sprintf "item %d failure recorded" i)
            (Printf.sprintf "item %d" i)
            msg
      | Error e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e))
    got;
  (* [map_exn] keeps the old contract: the first failure re-raises. *)
  Alcotest.check_raises "map_exn re-raises the first failure"
    (Failure "item 5") (fun () ->
      ignore (Portfolio.Pool.map_exn ~domains:3 f (List.init 10 Fun.id)))

let test_pool_stealing () =
  (* One deliberately slow task on worker 0's deque; with two workers
     the other 19 tasks must still all complete (stolen or local). *)
  let got =
    Portfolio.Pool.map_exn ~domains:2
      (fun i ->
        if i = 0 then Unix.sleepf 0.2;
        i + 1)
      (List.init 20 Fun.id)
  in
  Alcotest.(check (list int)) "all tasks ran" (List.init 20 (fun i -> i + 1)) got

(* ------------------------------------------------------------------ *)
(* Cache *)

let verdict_kind = function
  | Engine.Holds _ -> "holds"
  | Engine.Violated _ -> "violated"
  | Engine.Unknown _ -> "unknown"

let test_cache_hit_miss () =
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach and max_depth = 50 in
  Alcotest.(check bool) "cold lookup misses" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth = None);
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved safe: test entry" });
  (match Portfolio.Cache.lookup c ~model ~engine ~max_depth with
  | Some (Engine.Holds { detail }) ->
      Alcotest.(check string) "detail survives" "proved safe: test entry"
        detail
  | other ->
      Alcotest.failf "expected Holds, got %s"
        (match other with None -> "miss" | Some v -> verdict_kind v));
  Alcotest.(check int) "one hit" 1 (Portfolio.Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Portfolio.Cache.misses c);
  Alcotest.(check int) "one entry on disk" 1 (Portfolio.Cache.entries c);
  (* Unknown verdicts are never persisted. *)
  Portfolio.Cache.store c ~model ~engine ~max_depth:99
    (Engine.Unknown { detail = "gave up" });
  Alcotest.(check bool) "Unknown not stored" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:99 = None)

let test_cache_keying () =
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach and max_depth = 50 in
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved" });
  (* A different model (another feature set) must miss: the key is the
     model's content hash, so any change to the compiled transition
     system invalidates the entry. *)
  let model' = Tta_model.Build.model (Configs.time_windows ~nodes ()) in
  Alcotest.(check bool) "different model misses" true
    (Portfolio.Cache.lookup c ~model:model' ~engine ~max_depth = None);
  (* Same model, different engine or bound: also a miss. *)
  Alcotest.(check bool) "different engine misses" true
    (Portfolio.Cache.lookup c ~model ~engine:Engine.Sat_bmc ~max_depth = None);
  Alcotest.(check bool) "different depth misses" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:51 = None);
  Alcotest.(check bool) "original still hits" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth <> None)

let test_cache_corrupt_entry () =
  let dir = temp_dir () in
  let c = Portfolio.Cache.create ~dir () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach and max_depth = 50 in
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved" });
  (* Truncate the single entry file in place. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then begin
        let oc = open_out (Filename.concat dir f) in
        output_string oc "{\"spilled";
        close_out oc
      end)
    (Sys.readdir dir);
  Alcotest.(check bool) "corrupt entry degrades to a miss" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth = None);
  (* The unreadable file is quarantined, not left to fail every
     lookup: it is renamed aside and no longer counts as an entry. *)
  Alcotest.(check int) "quarantine counted" 1 (Portfolio.Cache.quarantined c);
  Alcotest.(check int) "no live entries left" 0 (Portfolio.Cache.entries c);
  let files = Sys.readdir dir in
  Alcotest.(check bool) "entry renamed aside" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".json.quarantined")
       files
    && not (Array.exists (fun f -> Filename.check_suffix f ".json") files))

let test_cache_violated_trace_roundtrip () =
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) () in
  let cfg = Configs.full_shifting ~nodes () in
  let model = Tta_model.Build.model cfg in
  let verdict = local_check ~engine:Engine.Bdd_reach ~max_depth:60 cfg in
  let trace =
    match verdict with
    | Engine.Violated { trace; _ } -> trace
    | v -> Alcotest.failf "setup: expected Violated, got %s" (verdict_kind v)
  in
  Portfolio.Cache.store c ~model ~engine:Engine.Bdd_reach ~max_depth:60
    verdict;
  match Portfolio.Cache.lookup c ~model ~engine:Engine.Bdd_reach ~max_depth:60 with
  | Some (Engine.Violated { trace = trace'; model = model' }) ->
      Alcotest.(check int) "trace length survives" (Array.length trace)
        (Array.length trace');
      (match Symkit.Trace.validate model' trace' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "decoded trace does not replay: %s" e);
      Alcotest.(check bool) "states decode identically" true
        (Array.for_all2 (fun a b -> a = b) trace trace')
  | other ->
      Alcotest.failf "expected cached Violated, got %s"
        (match other with None -> "miss" | Some v -> verdict_kind v)

(* Distinct conclusive entries: one per depth bound. *)
let store_depths c ~model ~engine depths =
  List.iter
    (fun d ->
      Portfolio.Cache.store c ~model ~engine ~max_depth:d
        (Engine.Holds { detail = Printf.sprintf "entry %d" d });
      (* Space the mtimes out so the LRU order is unambiguous even on
         a coarse-grained filesystem clock. *)
      Unix.sleepf 0.02)
    depths

let test_cache_prune_to_cap () =
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) ~max_entries:3 () in
  Alcotest.(check bool) "cap recorded" true
    (Portfolio.Cache.max_entries c = Some 3);
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach in
  store_depths c ~model ~engine [ 10; 11; 12; 13; 14 ];
  Alcotest.(check int) "pruned back to the cap" 3
    (Portfolio.Cache.entries c);
  Alcotest.(check int) "evictions counted" 2 (Portfolio.Cache.evictions c);
  (* Oldest-first: the survivors are the three newest stores. *)
  Alcotest.(check bool) "oldest entries evicted" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:10 = None
    && Portfolio.Cache.lookup c ~model ~engine ~max_depth:11 = None);
  Alcotest.(check bool) "newest entries survive" true
    (List.for_all
       (fun d -> Portfolio.Cache.lookup c ~model ~engine ~max_depth:d <> None)
       [ 12; 13; 14 ])

let test_cache_lru_touch () =
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) ~max_entries:3 () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach in
  store_depths c ~model ~engine [ 10; 11; 12 ];
  (* Serve the oldest entry: the hit refreshes its mtime, so the next
     eviction victim must be depth 11, not 10. *)
  Alcotest.(check bool) "warm hit" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:10 <> None);
  Unix.sleepf 0.02;
  store_depths c ~model ~engine [ 13 ];
  Alcotest.(check int) "still at the cap" 3 (Portfolio.Cache.entries c);
  Alcotest.(check bool) "recently served entry kept" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:10 <> None);
  Alcotest.(check bool) "least recently used entry evicted" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:11 = None)

let test_cache_sidecar_recency () =
  (* Rapid-fire accesses land in the same mtime second on coarse
     filesystems; the access-sequence sidecar must order them anyway.
     Note: no sleeps in this test — that is the point. *)
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) ~max_entries:2 () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach in
  let store d =
    Portfolio.Cache.store c ~model ~engine ~max_depth:d
      (Engine.Holds { detail = "x" })
  in
  store 10;
  store 11;
  (* Serving depth 10 makes it the most recently used of the two. *)
  Alcotest.(check bool) "warm hit" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:10 <> None);
  store 12;
  Alcotest.(check int) "still at the cap" 2 (Portfolio.Cache.entries c);
  Alcotest.(check bool) "served entry survives rapid-fire eviction" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:10 <> None);
  Alcotest.(check bool) "victim chosen by access ticket, not mtime" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth:11 = None)

let test_cache_shared_dir () =
  (* Two Cache values over one directory — the cluster's worker view of
     the shared cache. The access counter lives in the directory, so
     recency recorded through one instance steers the other's prune. *)
  let dir = temp_dir () in
  let a = Portfolio.Cache.create ~dir ~max_entries:2 () in
  let b = Portfolio.Cache.create ~dir ~max_entries:2 () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach in
  let store c d =
    Portfolio.Cache.store c ~model ~engine ~max_depth:d
      (Engine.Holds { detail = "x" })
  in
  store a 10;
  store b 11;
  Alcotest.(check bool) "hit through the other instance" true
    (Portfolio.Cache.lookup b ~model ~engine ~max_depth:10 <> None);
  (* b served 10 most recently; a's store must therefore evict 11 even
     though a never touched either entry itself. *)
  store a 12;
  Alcotest.(check int) "shared dir at the cap" 2 (Portfolio.Cache.entries a);
  Alcotest.(check bool) "cross-instance recency honored" true
    (Portfolio.Cache.lookup a ~model ~engine ~max_depth:10 <> None
    && Portfolio.Cache.lookup a ~model ~engine ~max_depth:11 = None)

let test_cache_unbounded_never_prunes () =
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  List.iter
    (fun d ->
      Portfolio.Cache.store c ~model ~engine:Engine.Bdd_reach ~max_depth:d
        (Engine.Holds { detail = "x" }))
    [ 10; 11; 12; 13; 14 ];
  Portfolio.Cache.prune c;
  Alcotest.(check int) "all entries kept" 5 (Portfolio.Cache.entries c);
  Alcotest.(check int) "no evictions" 0 (Portfolio.Cache.evictions c)

(* ------------------------------------------------------------------ *)
(* Cancellation *)

let test_cancel_stops_engines () =
  (* With the flag permanently raised every engine must return its
     inconclusive verdict almost immediately — a full run of any of
     these instances takes seconds. *)
  let cfg = Configs.full_shifting ~nodes () in
  let always = fun () -> true in
  List.iter
    (fun engine ->
      let t0 = Unix.gettimeofday () in
      let v = local_check ~cancel:always ~engine ~max_depth:100 cfg in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Engine.id_to_string engine ^ " stops promptly")
        true (dt < 2.0);
      match (engine, v) with
      | Engine.Sat_bmc, Engine.Holds { detail } ->
          (* BMC's cancelled claim is the vacuous depth -1 bound; the
             race demotes it, the raw runner reports it as-is. *)
          Alcotest.(check string)
            "bmc cancelled detail" "no counterexample up to depth -1" detail
      | _, Engine.Unknown _ -> ()
      | _, v ->
          Alcotest.failf "%s: expected Unknown after cancel, got %s"
            (Engine.id_to_string engine)
            (verdict_kind v))
    [ Engine.Bdd_reach; Engine.Explicit_bfs; Engine.Sat_induction;
      Engine.Sat_bmc ]

let test_race_external_cancel () =
  (* The serving layer's hook: with [?cancel] permanently raised, the
     default chain must come back inconclusive quickly, after its first
     engine only, and report that engine's verdict. *)
  let t0 = Unix.gettimeofday () in
  let r =
    Portfolio.race
      ~cancel:(fun () -> true)
      ~max_depth:100
      (Configs.full_shifting ~nodes ())
  in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "externally cancelled race returns promptly" true
    (dt < 10.0);
  Alcotest.(check string) "no verdict claimed" "unknown"
    (verdict_kind r.Portfolio.verdict);
  Alcotest.(check (list string)) "the cancel ends the chain after one run"
    [ "bdd-reachability:unknown" ]
    (List.map
       (fun (e, v, _) -> Engine.id_to_string e ^ ":" ^ verdict_kind v)
       r.Portfolio.runs);
  Alcotest.(check string) "the first engine's verdict is reported"
    "bdd-reachability"
    (Engine.id_to_string r.Portfolio.engine)

(* A cancelled BMC bound is demoted: started alone under a raised
   cancel, BMC's vacuous depth -1 claim must not come back as Holds. *)
let test_race_demotes_cancelled_bmc () =
  let r =
    Portfolio.race
      ~cancel:(fun () -> true)
      ~engines:[ Engine.Sat_bmc ] ~max_depth:100
      (Configs.full_shifting ~nodes ())
  in
  Alcotest.(check string) "demoted to unknown" "unknown"
    (verdict_kind r.Portfolio.verdict)

(* ------------------------------------------------------------------ *)
(* The engine chain *)

let run_kinds (r : Portfolio.result) =
  List.map
    (fun (e, v, _) -> Engine.id_to_string e ^ ":" ^ verdict_kind v)
    r.Portfolio.runs

let test_chain_falls_through () =
  (* 2-node passive needs 17 BDD iterations to reach its fixpoint, so
     at bound 8 BDD is inconclusive and BMC answers with its bounded
     proof. *)
  let r =
    Portfolio.race
      ~engines:[ Engine.Bdd_reach; Engine.Sat_bmc ]
      ~max_depth:8 (Configs.passive ~nodes ())
  in
  Alcotest.(check (list string)) "both tried, in order"
    [ "bdd-reachability:unknown"; "sat-bmc:holds" ]
    (run_kinds r);
  Alcotest.(check string) "bmc answers" "sat-bmc"
    (Engine.id_to_string r.Portfolio.engine);
  match r.Portfolio.verdict with
  | Engine.Holds { detail } ->
      Alcotest.(check string) "a bounded proof"
        "no counterexample up to depth 8" detail
  | v -> Alcotest.failf "expected a bounded Holds, got %s" (verdict_kind v)

let test_chain_stops_at_first_conclusive () =
  let r =
    Portfolio.race
      ~engines:[ Engine.Bdd_reach; Engine.Sat_bmc ]
      ~max_depth:40
      (Configs.full_shifting ~nodes ())
  in
  Alcotest.(check (list string)) "bmc never runs"
    [ "bdd-reachability:violated" ] (run_kinds r);
  match r.Portfolio.verdict with
  | Engine.Violated { trace; _ } ->
      Alcotest.(check int) "the 12-step counterexample" 12
        (Array.length trace)
  | v -> Alcotest.failf "expected Violated, got %s" (verdict_kind v)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_race_reproducible () =
  (* Two full races on the violated instance: the selected engine, the
     verdict kind and the counterexample length must agree run to run
     (the trace is minimal, so every sound engine agrees on it). *)
  let race () =
    Portfolio.race ~max_depth:40 (Configs.full_shifting ~nodes ())
  in
  let r1 = race () and r2 = race () in
  Alcotest.(check string) "same winner"
    (Engine.id_to_string r1.Portfolio.engine)
    (Engine.id_to_string r2.Portfolio.engine);
  match (r1.Portfolio.verdict, r2.Portfolio.verdict) with
  | Engine.Violated { trace = t1; _ }, Engine.Violated { trace = t2; _ } ->
      Alcotest.(check int) "same counterexample length" (Array.length t1)
        (Array.length t2);
      Alcotest.(check bool) "counterexample is non-empty" true
        (Array.length t1 > 0)
  | v1, v2 ->
      Alcotest.failf "expected two Violated verdicts, got %s / %s"
        (verdict_kind v1) (verdict_kind v2)

(* ------------------------------------------------------------------ *)
(* End-to-end: portfolio matrix vs the sequential runner *)

let feature_sets =
  [
    ("passive", Configs.passive ~nodes ());
    ("time-windows", Configs.time_windows ~nodes ());
    ("small-shifting", Configs.small_shifting ~nodes ());
    ("full-shifting", Configs.full_shifting ~nodes ());
  ]

let test_matrix_matches_sequential () =
  let dir = temp_dir () in
  let depth = 60 in
  let jobs =
    List.map
      (fun (label, cfg) ->
        Portfolio.job ~label ~engine:Engine.Bdd_reach ~max_depth:depth cfg)
      feature_sets
  in
  let run () =
    let cache = Portfolio.Cache.create ~dir () in
    let telemetry = Portfolio.Telemetry.create () in
    (Portfolio.run_matrix ~domains:2 ~cache ~telemetry jobs, cache, telemetry)
  in
  let check_results results =
    List.iter2
      (fun (label, cfg) (_, (r : Portfolio.result)) ->
        let seq = local_check ~engine:Engine.Bdd_reach ~max_depth:depth cfg in
        Alcotest.(check string)
          (label ^ ": portfolio verdict = sequential verdict")
          (verdict_kind seq)
          (verdict_kind r.Portfolio.verdict);
        match (seq, r.Portfolio.verdict) with
        | Engine.Violated { trace = t1; _ }, Engine.Violated { trace = t2; _ }
          ->
            Alcotest.(check int)
              (label ^ ": same trace length")
              (Array.length t1) (Array.length t2);
            Alcotest.(check bool)
              (label ^ ": non-empty trace")
              true
              (Array.length t2 > 0)
        | _ -> ())
      feature_sets results
  in
  (* Cold run: everything computed, everything stored. *)
  let cold, cache1, _ = run () in
  check_results cold;
  Alcotest.(check int) "cold run stores every verdict" 4
    (Portfolio.Cache.entries cache1);
  Alcotest.(check int) "cold run has no hits" 0 (Portfolio.Cache.hits cache1);
  (* The three safe sets hold, full-shifting is violated. *)
  let kinds =
    List.map (fun (_, (r : Portfolio.result)) -> verdict_kind r.Portfolio.verdict) cold
  in
  Alcotest.(check (list string)) "expected verdict pattern"
    [ "holds"; "holds"; "holds"; "violated" ]
    kinds;
  (* Warm run: same verdicts, all four from the cache. *)
  let warm, cache2, telemetry = run () in
  check_results warm;
  Alcotest.(check int) "warm run hits every entry" 4
    (Portfolio.Cache.hits cache2);
  Alcotest.(check int) "warm run misses nothing" 0
    (Portfolio.Cache.misses cache2);
  List.iter
    (fun (rec_ : Portfolio.Telemetry.record) ->
      Alcotest.(check bool)
        (rec_.Portfolio.Telemetry.config ^ " served from cache")
        true rec_.Portfolio.Telemetry.cache_hit)
    (Portfolio.Telemetry.records telemetry)

let test_telemetry_json_shape () =
  let telemetry = Portfolio.Telemetry.create () in
  let cfg = Configs.passive ~nodes () in
  ignore
    (Portfolio.run_matrix ~domains:1 ~telemetry
       [ Portfolio.job ~label:"shape" ~engine:Engine.Bdd_reach ~max_depth:60 cfg ]);
  let json = Portfolio.Telemetry.to_json telemetry in
  let reparsed =
    Portfolio.Json.of_string (Portfolio.Json.to_string ~pretty:true json)
  in
  Alcotest.(check bool) "dump reparses" true (Result.is_ok reparsed);
  let open Portfolio.Json in
  let records = Option.get (member "records" json) in
  Alcotest.(check int) "one record" 1 (List.length (to_list records));
  let r = List.hd (to_list records) in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("record has " ^ field) true
        (member field r <> None))
    [ "config"; "engine"; "outcome"; "detail"; "wall_s"; "cache_hit";
      "winner"; "counters" ];
  (* The counters object replaces the old hardwired triple; a BDD run
     always reports its peak node count through it. *)
  let counters = Option.get (member "counters" r) in
  Alcotest.(check bool) "counters carry reach.peak_nodes" true
    (member "reach.peak_nodes" counters <> None);
  let s = Option.get (member "summary" json) in
  Alcotest.(check (option int)) "summary counts the task" (Some 1)
    (Option.bind (member "tasks" s) int_value);
  Alcotest.(check (option int)) "holds counted" (Some 1)
    (Option.bind (member "holds" s) int_value)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "portfolio"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order" `Quick test_pool_order;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "stealing" `Quick test_pool_stealing;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit-miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "keying" `Quick test_cache_keying;
          Alcotest.test_case "corrupt entry" `Quick test_cache_corrupt_entry;
          Alcotest.test_case "violated trace roundtrip" `Quick
            test_cache_violated_trace_roundtrip;
          Alcotest.test_case "prune to cap" `Quick test_cache_prune_to_cap;
          Alcotest.test_case "LRU touch" `Quick test_cache_lru_touch;
          Alcotest.test_case "sidecar recency (no sleeps)" `Quick
            test_cache_sidecar_recency;
          Alcotest.test_case "shared directory instances" `Quick
            test_cache_shared_dir;
          Alcotest.test_case "unbounded never prunes" `Quick
            test_cache_unbounded_never_prunes;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "engines stop on the flag" `Quick
            test_cancel_stops_engines;
          Alcotest.test_case "external cancel hook" `Quick
            test_race_external_cancel;
          Alcotest.test_case "cancelled bmc bound demoted" `Quick
            test_race_demotes_cancelled_bmc;
        ] );
      ( "chain",
        [
          Alcotest.test_case "falls through to bmc" `Quick
            test_chain_falls_through;
          Alcotest.test_case "stops at first conclusive" `Quick
            test_chain_stops_at_first_conclusive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "race is reproducible" `Quick
            test_race_reproducible;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "matrix matches sequential" `Quick
            test_matrix_matches_sequential;
          Alcotest.test_case "telemetry json shape" `Quick
            test_telemetry_json_shape;
        ] );
    ]
