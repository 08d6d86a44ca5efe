(* Schema smoke test over the committed BENCH_*.json files. Every
   bench artifact the repo commits must decode via lib/json, carry its
   required keys, and still clear the headline bars it was committed
   to demonstrate — so a stale or hand-mangled bench fails `dune
   runtest` instead of silently rotting. Tests run from
   _build/default/test, so the repo root is one level up. *)

let load name =
  let path = Filename.concat ".." name in
  let ic = open_in path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string raw with
  | Ok json -> json
  | Error e -> Alcotest.failf "%s does not parse: %s" name e

let check_keys name json keys =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (name ^ ": has " ^ k)
        true
        (Json.member k json <> None))
    keys

let get_bool name json key =
  match Json.member key json with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "%s: %s is not a bool" name key

let get_num name json key =
  match Json.member key json with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Alcotest.failf "%s: %s is not a number" name key

let contains sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let get_rows name json =
  match Json.member "rows" json with
  | Some (Json.List rows) -> rows
  | _ -> Alcotest.failf "%s: rows is not a list" name

(* ------------------------------------------------------------------ *)

let test_cluster () =
  let name = "BENCH_cluster.json" in
  let j = load name in
  check_keys name j
    [ "bench"; "generated_by"; "workload"; "rows"; "speedup_at_max_workers" ];
  let rows = get_rows name j in
  Alcotest.(check bool) "cluster: has rows" true (rows <> []);
  List.iter
    (fun row ->
      check_keys name row
        [
          "workers";
          "throughput_rps";
          "speedup";
          "ok";
          "holds";
          "violated";
          "unknown";
          "protocol_errors";
          "retries";
          "p50_ms";
          "p99_ms";
          "imbalance";
          "per_worker";
        ])
    rows;
  Alcotest.(check bool) "cluster: scales at max workers" true
    (get_num name j "speedup_at_max_workers" >= 3.0)

let test_sessions () =
  let name = "BENCH_sessions.json" in
  let j = load name in
  check_keys name j
    [
      "nodes";
      "engine";
      "queries";
      "verdicts_agree";
      "reused";
      "cold_p50_ms";
      "cold_p95_ms";
      "warm_p50_ms";
      "warm_p95_ms";
      "speedup_p50";
      "speedup_p95";
      "rows";
    ];
  let rows = get_rows name j in
  Alcotest.(check bool) "sessions: has rows" true (rows <> []);
  List.iter
    (fun row ->
      check_keys name row
        [ "family"; "depth"; "verdict"; "cold_ms"; "warm_ms"; "reused" ])
    rows;
  Alcotest.(check bool) "sessions: verdicts agree" true
    (get_bool name j "verdicts_agree");
  Alcotest.(check bool) "sessions: warm path reused" true
    (get_num name j "reused" > 0.0);
  Alcotest.(check bool) "sessions: warm speedup" true
    (get_num name j "speedup_p50" >= 1.5)

let test_synth () =
  let name = "BENCH_synth.json" in
  let j = load name in
  check_keys name j
    [
      "nodes";
      "seed";
      "space_size";
      "candidates";
      "rejected";
      "rejections";
      "survivors";
      "upheld";
      "breached";
      "undetermined";
      "envelope_agreement";
      "frontier_size";
      "frontier";
      "paper_frontier";
      "candidates_per_s";
      "wall_s";
      "verdicts_agree";
      "service_requests";
      "session_reuses";
      "session_reuse_rate";
      "service_wall_s";
    ];
  Alcotest.(check bool) "synth: sweep is non-trivial" true
    (get_num name j "candidates" >= 200.0);
  Alcotest.(check bool) "synth: pre-filter rejected something" true
    (get_num name j "rejected" > 0.0);
  Alcotest.(check bool) "synth: envelope agreement" true
    (get_bool name j "envelope_agreement");
  Alcotest.(check bool) "synth: paper frontier" true
    (get_bool name j "paper_frontier");
  Alcotest.(check bool) "synth: direct and service agree" true
    (get_bool name j "verdicts_agree");
  Alcotest.(check bool) "synth: warm-session reuse above half" true
    (get_num name j "session_reuse_rate" > 0.5);
  (match Json.member "frontier" j with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "synth: frontier is empty or not a list");
  match Json.member "rejections" j with
  | Some (Json.Obj ((_ :: _) as kvs)) ->
      Alcotest.(check bool) "synth: rejection counts are ints" true
        (List.for_all (function _, Json.Int _ -> true | _ -> false) kvs)
  | _ -> Alcotest.fail "synth: rejections is not an object"

let test_chaos () =
  let name = "BENCH_chaos.json" in
  let j = load name in
  check_keys name j
    [
      "mode";
      "requests";
      "ok";
      "degraded";
      "holds";
      "violated";
      "unknown";
      "protocol_errors";
      "retries";
      "conn_retries";
      "engine_retries";
      "engine_failed";
      "cache_hits";
      "coalesced";
      "hedged";
      "breaker_opens";
      "p50_ms";
      "p99_ms";
    ];
  (* The chaos run's whole point: every request answered despite the
     injected faults, the retry budget visibly spent. *)
  Alcotest.(check bool) "chaos: all answered" true
    (get_num name j "ok" +. get_num name j "degraded"
    = get_num name j "requests");
  Alcotest.(check bool) "chaos: no protocol errors" true
    (get_num name j "protocol_errors" = 0.0);
  Alcotest.(check bool) "chaos: retries split sums" true
    (get_num name j "conn_retries" +. get_num name j "engine_retries"
    = get_num name j "retries")

let test_resilience () =
  let name = "BENCH_resilience.json" in
  let j = load name in
  check_keys name j
    [
      "bench";
      "generated_by";
      "workload";
      "direct_reference";
      "rows";
      "hedge_p99_speedup";
    ];
  let rows = get_rows name j in
  Alcotest.(check int) "resilience: four rows" 4 (List.length rows);
  List.iter
    (fun row ->
      check_keys name row
        [
          "row";
          "chaos";
          "hedge_ms";
          "ok";
          "degraded";
          "availability";
          "holds";
          "violated";
          "unknown";
          "protocol_errors";
          "conn_retries";
          "engine_retries";
          "hedged";
          "breaker_opens";
          "p50_ms";
          "p99_ms";
          "injections";
        ];
      Alcotest.(check bool) "resilience: row fully available" true
        (get_num name row "availability" = 1.0);
      Alcotest.(check bool) "resilience: row clean" true
        (get_num name row "protocol_errors" = 0.0))
    rows;
  (* Verdict fidelity under chaos, re-checked from the committed
     numbers (the bench exe already enforced it at generation time). *)
  let dr =
    match Json.member "direct_reference" j with
    | Some d -> d
    | None -> Alcotest.fail "resilience: no direct_reference"
  in
  List.iter
    (fun row ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            ("resilience: " ^ k ^ " matches direct run")
            true
            (get_num name row k = get_num name dr k))
        [ "holds"; "violated"; "unknown" ])
    rows;
  Alcotest.(check bool) "resilience: hedging improves p99" true
    (get_num name j "hedge_p99_speedup" > 1.0)

let get_str name json key =
  match Json.member key json with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "%s: %s is not a string" name key

(* The 4-node BDD rows: one default-tuned fixpoint per Section 5
   configuration, each well inside the 30 s bar (the seed took 88-121 s
   per experiment), with verdicts, iteration counts and trace lengths
   pinned, and the compile's share of each row's time recorded. *)
let test_bdd () =
  let name = "BENCH_bdd.json" in
  let j = load name in
  check_keys name j
    [ "nodes"; "paper_scale"; "nproc"; "seed_reference_s"; "rows" ];
  Alcotest.(check bool) "bdd: paper scale" true (get_bool name j "paper_scale");
  Alcotest.(check bool) "bdd: 4 nodes" true (get_num name j "nodes" = 4.0);
  Alcotest.(check bool) "bdd: nproc recorded" true
    (get_num name j "nproc" >= 1.0);
  (match Json.member "seed_reference_s" j with
  | Some r ->
      Alcotest.(check (pair (float 0.) (float 0.)))
        "bdd: seed reference" (88.0, 121.0)
        (get_num name r "min", get_num name r "max")
  | None -> Alcotest.fail "bdd: no seed_reference_s");
  let rows = get_rows name j in
  let expected =
    [
      ("E1 passive", "safe", 31, 0);
      ("E2 time-windows", "safe", 31, 0);
      ("E3 small-shifting", "safe", 31, 0);
      ("E4 full-shifting", "violated", 14, 15);
      ("E5 full-shifting-nodup", "violated", 16, 17);
    ]
  in
  Alcotest.(check int) "bdd: one row per experiment" (List.length expected)
    (List.length rows);
  List.iter2
    (fun (config, verdict, iterations, trace_len) row ->
      check_keys name row
        [
          "config";
          "verdict";
          "trace_len";
          "iterations";
          "peak_nodes";
          "partitions";
          "gc_count";
          "nodes_allocated";
          "bdd_peak_nodes";
          "compile_s";
          "wall_s";
        ];
      Alcotest.(check string) "bdd: config" config (get_str name row "config");
      Alcotest.(check string) (config ^ ": verdict") verdict
        (get_str name row "verdict");
      Alcotest.(check int) (config ^ ": iterations") iterations
        (int_of_float (get_num name row "iterations"));
      Alcotest.(check int) (config ^ ": trace length") trace_len
        (int_of_float (get_num name row "trace_len"));
      Alcotest.(check bool) (config ^ ": under 30s") true
        (get_num name row "wall_s" < 30.0);
      Alcotest.(check bool) (config ^ ": compile within the row") true
        (get_num name row "compile_s" <= get_num name row "wall_s"))
    expected rows

(* E9's counterexample through SAT-BMC at 4 nodes, depth 15: verdict,
   trace length and the search counters pinned (a solver change meant
   as a pure speed change keeps them), the solve and unroll times and
   the propagation rate recorded. *)
let test_bmc () =
  let name = "BENCH_bmc.json" in
  let j = load name in
  check_keys name j [ "nodes"; "max_depth"; "nproc"; "rows" ];
  Alcotest.(check int) "bmc: 4 nodes" 4 (int_of_float (get_num name j "nodes"));
  Alcotest.(check int) "bmc: depth 15" 15
    (int_of_float (get_num name j "max_depth"));
  match get_rows name j with
  | [ row ] ->
      check_keys name row
        [
          "config";
          "verdict";
          "trace_len";
          "trace_valid";
          "conflicts";
          "decisions";
          "propagations";
          "solve_s";
          "unroll_s";
          "wall_s";
          "propagations_per_s";
        ];
      Alcotest.(check string) "bmc: verdict" "violated"
        (get_str name row "verdict");
      Alcotest.(check int) "bmc: trace length" 15
        (int_of_float (get_num name row "trace_len"));
      Alcotest.(check bool) "bmc: trace validated" true
        (get_bool name row "trace_valid");
      Alcotest.(check (list int))
        "bmc: conflicts, decisions, propagations" [ 53235; 255858; 98468918 ]
        (List.map
           (fun k -> int_of_float (get_num name row k))
           [ "conflicts"; "decisions"; "propagations" ]);
      let solve = get_num name row "solve_s" in
      Alcotest.(check bool) "bmc: solve within the run" true
        (solve > 0.0
        && solve +. get_num name row "unroll_s" <= get_num name row "wall_s");
      Alcotest.(check (float 1.0))
        "bmc: propagations per second of solve"
        (get_num name row "propagations" /. solve)
        (get_num name row "propagations_per_s")
  | rows -> Alcotest.failf "bmc: %d rows, expected one" (List.length rows)

(* The committed paper-scale transcript: its Section 5.2 verdict table
   must list exactly the experiment registry's jobs (E1-E5 plus the E9
   ablation), and every measured verdict must match its expectation.
   Parsing the human-readable table keeps the committed artifact and
   the registry from drifting apart silently. *)
let test_paper_scale_table () =
  let name = "bench/bench_paper_scale.txt" in
  let path = Filename.concat ".." name in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check bool)
    (name ^ ": first line records the command, nproc and commit")
    true
    (match lines with
    | first :: _ ->
        String.starts_with
          ~prefix:"dune exec bench/main.exe -- --paper-scale --no-micro (nproc "
          first
        && contains ", commit " first
    | [] -> false);
  let labels =
    List.map
      (fun (job : Portfolio.job) -> job.Portfolio.label)
      (Portfolio.section5_jobs ~nodes:4 ())
  in
  let expects =
    [ "holds"; "holds"; "holds"; "violated"; "violated"; "violated" ]
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let field key line =
    let klen = String.length key and n = String.length line in
    let rec find i =
      if i + klen > n then
        Alcotest.failf "%s: row %S has no %S field" name line key
      else if String.sub line i klen = key then
        String.trim (String.sub line (i + klen) (n - i - klen))
      else find (i + 1)
    in
    find 0
  in
  List.iter2
    (fun label expect ->
      match List.find_opt (starts_with label) lines with
      | None -> Alcotest.failf "%s: no row for %S" name label
      | Some line ->
          let expect_field =
            match String.split_on_char ' ' (field "expect:" line) with
            | w :: _ -> w
            | [] -> ""
          in
          Alcotest.(check string)
            (label ^ ": expectation matches the registry")
            expect expect_field;
          Alcotest.(check bool)
            (label ^ ": got matches expect")
            true
            (starts_with expect (field "got:" line)))
    labels expects

(* Every committed artifact with its schema check. An artifact that
   .gitignore does not re-include never reaches git, so a clean checkout
   would fail on it: the manifest test keeps this list and the
   .gitignore exceptions equal. *)
let artifacts =
  [
    ("BENCH_cluster.json", test_cluster);
    ("BENCH_sessions.json", test_sessions);
    ("BENCH_synth.json", test_synth);
    ("BENCH_chaos.json", test_chaos);
    ("BENCH_resilience.json", test_resilience);
    ("BENCH_bdd.json", test_bdd);
    ("BENCH_bmc.json", test_bmc);
  ]

(* [bench/main.exe ARGS], with its exit code and standard output. *)
let bench_main args =
  let out = Filename.temp_file "bench_main" ".out" in
  let code =
    Sys.command
      (Filename.quote_command
         (Filename.concat ".." (Filename.concat "bench" "main.exe"))
         ~stdout:out ~stderr:Filename.null args)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* A subcommand exists when its own help page (NAME "main-STEM") comes
   back; an unknown name falls through to the top-level page. *)
let subcommand_exists stem =
  let code, text = bench_main [ stem; "--help=plain" ] in
  code = 0 && contains ("main-" ^ stem ^ " - ") text

(* One producer per artifact: each names the bench subcommand that
   wrote it, and records the host's core count and the commit. *)
let test_provenance name () =
  let j = load name in
  let stem =
    Filename.chop_suffix (String.sub name 6 (String.length name - 6)) ".json"
  in
  Alcotest.(check string)
    (name ^ ": generated_by")
    ("dune exec bench/main.exe -- " ^ stem)
    (get_str name j "generated_by");
  Alcotest.(check bool)
    (name ^ ": its subcommand exists")
    true (subcommand_exists stem);
  Alcotest.(check bool)
    (name ^ ": nproc recorded")
    true
    (get_num name j "nproc" >= 1.0);
  Alcotest.(check bool)
    (name ^ ": commit recorded")
    true
    (get_str name j "commit" <> "")

let test_manifest () =
  let ic = open_in (Filename.concat ".." ".gitignore") in
  let exceptions = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if
         String.starts_with ~prefix:"!BENCH_" line
         && Filename.check_suffix line ".json"
       then
         exceptions :=
           String.sub line 1 (String.length line - 1) :: !exceptions
     done
   with End_of_file -> close_in ic);
  Alcotest.(check (list string))
    "artifacts checked here = artifacts .gitignore re-includes"
    (List.sort compare (List.map fst artifacts))
    (List.sort compare !exceptions);
  Alcotest.(check bool) "a made-up subcommand does not exist" false
    (subcommand_exists "no-such-artifact");
  Alcotest.(check bool) "a made-up subcommand is rejected" true
    (fst (bench_main [ "no-such-artifact" ]) <> 0)

let () =
  Alcotest.run "bench schemas"
    [
      ( "committed artifacts",
        List.map
          (fun (name, test) -> Alcotest.test_case name `Quick test)
          artifacts
        @ List.map
            (fun (name, _) ->
              Alcotest.test_case (name ^ " provenance") `Quick
                (test_provenance name))
            artifacts
        @ [
            Alcotest.test_case ".gitignore manifest" `Quick test_manifest;
            Alcotest.test_case "bench_paper_scale.txt" `Quick
              test_paper_scale_table;
          ] );
    ]
