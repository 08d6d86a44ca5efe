(* The observability library: span nesting, cross-domain counter
   soundness, the Chrome trace exporter (against a golden file, with an
   injected deterministic clock) and the zero-allocation guarantee of
   the disabled path. *)

(* A deterministic clock: every reading advances time by 1ms, so span
   starts, durations and instants are fully reproducible. *)
let stepping_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 0.001;
    v

(* ------------------------------------------------------------------ *)
(* Span nesting *)

let jsonl_records col =
  Obs.Collector.to_jsonl col
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error e -> Alcotest.failf "unparseable jsonl line %S: %s" l e)

let field name j = Option.get (Json.member name j)

let test_span_nesting () =
  let col = Obs.Collector.create ~clock:(stepping_clock ()) () in
  let t = Obs.Collector.track col "nest" in
  let parent = Obs.start t "parent" in
  let child = Obs.start t "child" in
  Obs.instant t "marker";
  Obs.stop child;
  Obs.stop parent;
  (* A sibling opened after the parent closed is back at depth 0. *)
  let sibling = Obs.start t "sibling" in
  Obs.stop sibling;
  let spans =
    List.filter
      (fun j ->
        match Json.member "type" j with
        | Some (Json.String ("span" | "instant")) -> true
        | _ -> false)
      (jsonl_records col)
  in
  let depth_of name =
    let j =
      List.find
        (fun j -> Json.member "name" j = Some (Json.String name))
        spans
    in
    Option.get (Json.int_value (field "depth" j))
  in
  Alcotest.(check int) "parent at depth 0" 0 (depth_of "parent");
  Alcotest.(check int) "child nested at depth 1" 1 (depth_of "child");
  Alcotest.(check int) "instant inherits open depth" 2 (depth_of "marker");
  Alcotest.(check int) "sibling back at depth 0" 0 (depth_of "sibling");
  (* Timeline containment: the child lies within the parent. *)
  let bounds name =
    let j =
      List.find
        (fun j -> Json.member "name" j = Some (Json.String name))
        spans
    in
    let ts = Option.get (Json.float_value (field "ts_us" j)) in
    let dur = Option.get (Json.float_value (field "dur_us" j)) in
    (ts, ts +. dur)
  in
  let p0, p1 = bounds "parent" and c0, c1 = bounds "child" in
  Alcotest.(check bool) "child starts after parent" true (c0 >= p0);
  Alcotest.(check bool) "child ends before parent" true (c1 <= p1)

let test_with_span_restores_depth_on_raise () =
  let col = Obs.Collector.create ~clock:(stepping_clock ()) () in
  let t = Obs.Collector.track col "raise" in
  (try
     Obs.with_span t "explodes" (fun () -> failwith "boom")
   with Failure _ -> ());
  let after = Obs.start t "after" in
  Obs.stop after;
  let after_depth =
    List.find_map
      (fun j ->
        if Json.member "name" j = Some (Json.String "after") then
          Option.bind (Json.member "depth" j) Json.int_value
        else None)
      (jsonl_records col)
  in
  Alcotest.(check (option int)) "depth restored after raise" (Some 0)
    after_depth

(* ------------------------------------------------------------------ *)
(* Concurrent increments from several domains *)

let test_concurrent_counters () =
  let col = Obs.Collector.create () in
  let t = Obs.Collector.track col "shared" in
  let c = Obs.counter t "hits" in
  let g = Obs.gauge t "peak" in
  let per_domain = 25_000 and domains = 4 in
  let worker d () =
    for i = 1 to per_domain do
      Obs.tick c;
      Obs.record g ((d * per_domain) + i)
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let cs = Obs.counters t in
  Alcotest.(check (option int)) "no lost increments"
    (Some (domains * per_domain))
    (List.assoc_opt "hits" cs);
  Alcotest.(check (option int)) "gauge keeps the global max"
    (Some (domains * per_domain))
    (List.assoc_opt "peak" cs);
  (* Aggregation across tracks: counters sum, gauges max. *)
  let t2 = Obs.Collector.track col "shared2" in
  Obs.incr_by t2 "hits" 5;
  Obs.set_max t2 "peak" 1;
  let tot = Obs.Collector.totals col in
  Alcotest.(check (option int)) "totals sum counters"
    (Some ((domains * per_domain) + 5))
    (List.assoc_opt "hits" tot);
  Alcotest.(check (option int)) "totals max gauges"
    (Some (domains * per_domain))
    (List.assoc_opt "peak" tot)

(* ------------------------------------------------------------------ *)
(* Chrome trace exporter golden *)

let golden_path = "golden/obs_trace.expected"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let trace_scenario () =
  let col = Obs.Collector.create ~clock:(stepping_clock ()) () in
  let t = Obs.Collector.track col "E4 full-shifting/bdd" in
  let run = Obs.start t ~args:[ ("engine", "bdd") ] "engine.run" in
  let iter = Obs.start t "reach.iteration" in
  Obs.instant t "reach.fixpoint";
  Obs.stop iter;
  Obs.stop run;
  Obs.incr_by t "bdd.alloc" 42;
  Obs.set_max t "reach.peak_nodes" 7;
  let pool = Obs.Collector.track col "pool" in
  Obs.incr_by pool "pool.tasks" 3;
  col

let test_chrome_trace_golden () =
  let col = trace_scenario () in
  let actual =
    Json.to_string ~pretty:true (Obs.Collector.chrome_trace col) ^ "\n"
  in
  (* Left next to the test binary so a legitimate format change can be
     promoted with: cp _build/default/test/obs_trace.actual
     test/golden/obs_trace.expected *)
  let oc = open_out_bin "obs_trace.actual" in
  output_string oc actual;
  close_out oc;
  let expected = read_file golden_path in
  Alcotest.(check string) "chrome trace matches golden" expected actual;
  (* And the trace must be valid JSON of the trace_event shape. *)
  match Json.of_string actual with
  | Error e -> Alcotest.failf "trace does not reparse: %s" e
  | Ok j ->
      let events = Json.to_list (field "traceEvents" j) in
      let phases =
        List.filter_map
          (fun e -> Option.bind (Json.member "ph" e) Json.string_value)
          events
      in
      List.iter
        (fun ph ->
          Alcotest.(check bool)
            ("phase " ^ ph ^ " present")
            true (List.mem ph phases))
        [ "M"; "X"; "i"; "C" ]

let test_mc_trace_file () =
  (* The CLI's --trace path end to end: a 3-node BDD model check must
     write a Chrome trace that parses and holds its image steps. *)
  let file = Filename.temp_file "tta_mc_trace" ".json" in
  let code =
    Sys.command
      (Filename.quote_command
         (Filename.concat ".." (Filename.concat "bin" "tta_mc.exe"))
         ~stdout:Filename.null
         [ "--config"; "passive"; "--engine"; "bdd"; "--nodes"; "3";
           "--trace"; file ])
  in
  let raw = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check int) "tta_mc exits 0" 0 code;
  match Json.of_string raw with
  | Error e -> Alcotest.failf "trace file does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "traceEvents holds a reach.image span" true
        (List.exists
           (fun e ->
             Option.bind (Json.member "name" e) Json.string_value
             = Some "reach.image")
           (Json.to_list (field "traceEvents" j)))

(* ------------------------------------------------------------------ *)
(* Telemetry names golden: dashboards, the bench JSON consumers and the
   service metrics all key on these strings, so a rename must fail a
   test, not silently break a consumer. *)

let test_bdd_counter_names_golden () =
  let m = Bdd.create_manager () in
  ignore (Bdd.dand m (Bdd.var m 0) (Bdd.var m 1));
  Alcotest.(check (list string))
    "Bdd.counters names are pinned"
    [
      "bdd.cache_hits";
      "bdd.cache_misses";
      "bdd.cache_sweeps";
      "bdd.gc_count";
      "bdd.nodes_allocated";
    ]
    (List.map fst (Bdd.counters m))

let test_engine_run_counter_names_golden () =
  (* A real (tiny) BDD-engine run must surface the reachability and
     BDD memory-pressure telemetry under these exact names. *)
  let cfg = Tta_model.Configs.passive ~nodes:2 () in
  let e = Tta_model.Engine.get Tta_model.Engine.Bdd_reach in
  let r = e.Tta_model.Engine.run ~max_depth:6 cfg in
  let names = List.map fst r.Tta_model.Engine.counters in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [
      "bdd.cache_hits";
      "bdd.cache_misses";
      "bdd.gc_count";
      "bdd.nodes_allocated";
      "bdd.live_nodes";
      "bdd.peak_nodes";
      "reach.iterations";
      "reach.peak_nodes";
      "reach.frontier_nodes";
      "reach.partitions";
      "gc.minor_collections";
      "gc.major_collections";
    ];
  (* Gauges carry real values: the peak is at least the survivors. *)
  let get n = List.assoc n r.Tta_model.Engine.counters in
  Alcotest.(check bool) "live_nodes positive" true (get "bdd.live_nodes" > 0);
  Alcotest.(check bool) "peak >= live" true
    (get "bdd.peak_nodes" >= get "bdd.live_nodes");
  Alcotest.(check bool) "partitioned by default" true
    (get "reach.partitions" > 1)

(* ------------------------------------------------------------------ *)
(* Disabled-path overhead guard *)

let test_disabled_path_allocates_nothing () =
  let c = Obs.counter Obs.disabled "x" in
  let g = Obs.gauge Obs.disabled "y" in
  (* Warm up so any lazy setup is done before measuring. *)
  Obs.tick c;
  Obs.record g 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 1_000_000 do
    Obs.tick c;
    Obs.add c 2;
    Obs.record g i
  done;
  let s = Obs.start Obs.disabled "nope" in
  Obs.stop s;
  Obs.instant Obs.disabled "nope";
  let w1 = Gc.minor_words () in
  (* Gc.minor_words itself boxes its float result; anything beyond a
     handful of words means the hot loop allocated. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocated %.0f words" (w1 -. w0))
    true
    (w1 -. w0 < 64.0);
  Alcotest.(check (list (pair string int))) "disabled handle has no cells"
    [] (Obs.counters Obs.disabled);
  Alcotest.(check bool) "disabled is not enabled" false
    (Obs.enabled Obs.disabled)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting depths and containment" `Quick
            test_span_nesting;
          Alcotest.test_case "with_span unwinds on raise" `Quick
            test_with_span_restores_depth_on_raise;
        ] );
      ( "cells",
        [
          Alcotest.test_case "concurrent increments from 4 domains" `Quick
            test_concurrent_counters;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace golden" `Quick
            test_chrome_trace_golden;
          Alcotest.test_case "tta_mc --trace writes a parseable trace" `Quick
            test_mc_trace_file;
        ] );
      ( "names",
        [
          Alcotest.test_case "bdd counter names golden" `Quick
            test_bdd_counter_names_golden;
          Alcotest.test_case "engine run counter names golden" `Quick
            test_engine_run_counter_names_golden;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path does not allocate" `Quick
            test_disabled_path_allocates_nothing;
        ] );
    ]
