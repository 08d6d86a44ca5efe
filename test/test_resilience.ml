(* Tests for lib/resilience: the deterministic fault-injection
   registry (spec grammar, seeded firing decisions, byte corruption),
   the supervisor (retry/backoff determinism, crash exhaustion), and
   their integration into the portfolio — cache quarantine on a
   flipped byte, races surviving a crashing engine, and the
   all-engines-failed breakdown. 2-node clusters throughout. *)

module Engine = Tta_model.Engine
module Configs = Tta_model.Configs
module Faults = Resilience.Faults
module Supervisor = Resilience.Supervisor

let nodes = 2

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "resilience_test_%d_%d" (Unix.getpid ()) !counter)

let faults_of_spec spec =
  match Faults.of_spec spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "spec %S rejected: %s" spec e

(* ------------------------------------------------------------------ *)
(* Faults: spec grammar *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let f = faults_of_spec spec in
      Alcotest.(check string) (spec ^ " roundtrips") spec (Faults.to_spec f);
      Alcotest.(check bool) "enabled" true (Faults.enabled f))
    [
      "7:engine_start=crash";
      "7:engine_start=crash@0.25";
      "7:engine_start=crash@0.25x4";
      "0:cache_read=corruptx2,sock_send=crash@0.5";
      "42:engine_step=stall20@0.125x8";
    ];
  (* A bare seed selects the default mixed-fault spec. *)
  let bare = faults_of_spec "9" in
  Alcotest.(check int) "bare seed" 9 (Faults.seed bare);
  Alcotest.(check string) "bare seed gets the default rules"
    ("9:" ^ Faults.default_spec)
    (Faults.to_spec bare);
  Alcotest.(check bool) "disabled registry is disabled" false
    (Faults.enabled Faults.disabled);
  Alcotest.(check string) "disabled spec is empty" ""
    (Faults.to_spec Faults.disabled)

let test_spec_errors () =
  List.iter
    (fun spec ->
      match Faults.of_spec spec with
      | Ok _ -> Alcotest.failf "accepted malformed spec: %S" spec
      | Error _ -> ())
    [
      "";
      "notanint";
      "7:";
      "7:engine_start";
      "7:nosuchpoint=crash";
      "7:engine_start=explode";
      "7:engine_start=crash@1.5";
      "7:engine_start=crash@-0.1";
      "7:engine_start=crashx0";
      "7:engine_step=stall";
      "7:engine_step=stall-5";
    ]

(* ------------------------------------------------------------------ *)
(* Faults: deterministic firing *)

(* The indices at which a probabilistic rule fires over [n] hits. *)
let firing_set f point n =
  List.filter_map
    (fun i ->
      match Faults.hit f point with
      | () -> None
      | exception Faults.Injected _ -> Some i)
    (List.init n Fun.id)

let test_firing_deterministic () =
  let spec = "3:engine_start=crash@0.3" in
  let a = firing_set (faults_of_spec spec) Faults.Engine_start 200 in
  let b = firing_set (faults_of_spec spec) Faults.Engine_start 200 in
  Alcotest.(check (list int)) "same seed, same firing set" a b;
  Alcotest.(check bool) "a 30% rule fires sometimes" true (a <> []);
  Alcotest.(check bool) "a 30% rule does not always fire" true
    (List.length a < 200);
  (* A different seed decides differently. *)
  let c = firing_set (faults_of_spec "4:engine_start=crash@0.3") Faults.Engine_start 200 in
  Alcotest.(check bool) "different seed, different firing set" true (a <> c);
  (* The firing limit bounds total chaos. *)
  let d = firing_set (faults_of_spec "3:engine_start=crashx5") Faults.Engine_start 200 in
  Alcotest.(check (list int)) "xN caps the firings" [ 0; 1; 2; 3; 4 ] d;
  (* Other points are untouched. *)
  let f = faults_of_spec spec in
  Alcotest.(check (list int)) "unruled point never fires" []
    (firing_set f Faults.Cache_read 50)

let test_injections_counted () =
  let f = faults_of_spec "3:engine_start=crashx2,cache_read=corrupt" in
  Alcotest.(check bool) "nothing fired yet" true
    (List.for_all (fun (_, n) -> n = 0) (Faults.injections f));
  ignore (firing_set f Faults.Engine_start 10);
  ignore (Faults.corrupt f Faults.Cache_read "payload payload payload");
  Alcotest.(check (list (pair string int)))
    "per-rule firing counts"
    [ ("engine_start.crash", 2); ("cache_read.corrupt", 1) ]
    (Faults.injections f)

(* ------------------------------------------------------------------ *)
(* Faults: router-link points (drop / delay) *)

(* One decision string per link hit, so firing sequences golden-check
   as plain string lists. *)
let link_decisions f point n =
  List.map
    (fun _ ->
      match Faults.link f point with
      | `Pass -> "pass"
      | `Drop -> "drop"
      | `Delay d -> Printf.sprintf "delay%.0f" (d *. 1000.)
      | exception Faults.Injected _ -> "crash")
    (List.init n Fun.id)

let test_link_spec_roundtrip () =
  List.iter
    (fun spec ->
      let f = faults_of_spec spec in
      Alcotest.(check string) (spec ^ " roundtrips") spec (Faults.to_spec f))
    [
      "7:link_send=delay500x6";
      "7:link_recv=drop@0.5x4";
      "3:link_send=drop,link_recv=delay20@0.25";
      "11:sock_send=drop,engine_step=delay5x2";
    ];
  List.iter
    (fun spec ->
      match Faults.of_spec spec with
      | Ok _ -> Alcotest.failf "accepted malformed spec: %S" spec
      | Error _ -> ())
    [
      "7:link_send=delay";
      "7:link_recv=delay-5";
      "7:link_send=drop@1.5";
      "7:link_send=dropx0";
      "7:link=drop";
    ]

let test_link_firing_deterministic () =
  let spec = "11:link_send=drop@0.4x6,link_recv=delay250@0.5x8" in
  let a = link_decisions (faults_of_spec spec) Faults.Link_send 100 in
  let b = link_decisions (faults_of_spec spec) Faults.Link_send 100 in
  Alcotest.(check (list string)) "same seed, same send decisions" a b;
  let drops = List.length (List.filter (( = ) "drop") a) in
  Alcotest.(check int) "x6 caps the drops" 6 drops;
  let r = link_decisions (faults_of_spec spec) Faults.Link_recv 100 in
  let delays = List.length (List.filter (( = ) "delay250") r) in
  Alcotest.(check int) "x8 caps the delays" 8 delays;
  Alcotest.(check bool) "delay carries its millis" true
    (List.for_all (fun d -> d = "pass" || d = "delay250") r);
  (* Replay golden: a fresh registry driven through the same hit
     sequence reports identical per-rule firing counts — the property
     the cluster chaos smoke relies on for deterministic replay. *)
  let drive () =
    let f = faults_of_spec spec in
    ignore (link_decisions f Faults.Link_send 100);
    ignore (link_decisions f Faults.Link_recv 100);
    Faults.injections f
  in
  Alcotest.(check (list (pair string int)))
    "identical fired-injection counts on replay" (drive ()) (drive ());
  Alcotest.(check (list (pair string int)))
    "per-rule firing counts"
    [ ("link_send.drop", 6); ("link_recv.delay250", 8) ]
    (drive ())

let test_link_action_semantics () =
  (* Drop dominates delay when both fire on the same point. *)
  let both = faults_of_spec "5:link_send=drop,link_send=delay100" in
  Alcotest.(check string) "drop dominates delay" "drop"
    (List.hd (link_decisions both Faults.Link_send 1));
  (* A crash rule at a link point raises, exactly like [hit]. *)
  (match Faults.link (faults_of_spec "5:link_send=crash") Faults.Link_send with
  | exception Faults.Injected { point; action; _ } ->
      Alcotest.(check string) "crash point" "link_send" point;
      Alcotest.(check string) "crash action" "crash" action
  | _ -> Alcotest.fail "link crash rule did not raise");
  (* At a non-link point, [hit] treats drop as crash and delay as
     stall — every action is meaningful at every point. *)
  (match Faults.hit (faults_of_spec "5:engine_start=drop") Faults.Engine_start with
  | exception Faults.Injected { action; _ } ->
      Alcotest.(check string) "drop crashes outside links" "drop" action
  | () -> Alcotest.fail "drop rule did not fire via hit");
  let t0 = Unix.gettimeofday () in
  Faults.hit (faults_of_spec "5:engine_start=delay30") Faults.Engine_start;
  Alcotest.(check bool) "delay stalls outside links" true
    (Unix.gettimeofday () -. t0 >= 0.025);
  (* Corruption never applies drop/delay rules. *)
  Alcotest.(check string) "drop rule does not corrupt" "payload"
    (Faults.corrupt
       (faults_of_spec "5:cache_read=drop")
       Faults.Cache_read "payload")

let test_corrupt_deterministic () =
  let payload = "{\"verdict\":\"holds\",\"detail\":\"proved safe\"}" in
  let corrupt_once () =
    Faults.corrupt (faults_of_spec "9:cache_read=corrupt") Faults.Cache_read
      payload
  in
  let a = corrupt_once () and b = corrupt_once () in
  Alcotest.(check string) "same seed flips the same byte" a b;
  Alcotest.(check int) "length preserved" (String.length payload)
    (String.length a);
  let diffs = ref 0 in
  String.iteri (fun i c -> if c <> payload.[i] then incr diffs) a;
  Alcotest.(check int) "exactly one byte differs" 1 !diffs;
  (* Empty payloads pass through; crash rules never fire in corrupt. *)
  Alcotest.(check string) "empty payload untouched" ""
    (Faults.corrupt (faults_of_spec "9:cache_read=corrupt") Faults.Cache_read "");
  Alcotest.(check string) "crash rule does not corrupt" payload
    (Faults.corrupt (faults_of_spec "9:cache_read=crash") Faults.Cache_read
       payload)

let test_hash_float_pure () =
  List.iter
    (fun (seed, salt, n) ->
      let u = Faults.hash_float ~seed ~salt n in
      Alcotest.(check (float 0.)) "pure" u (Faults.hash_float ~seed ~salt n);
      Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.))
    [ (0, 0, 0); (1, 2, 3); (7, 0x5eed, 42); (max_int, 1, 999) ]

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let policy ?(retries = 3) () =
  {
    Supervisor.retries;
    backoff_s = 0.005;
    backoff_max_s = 0.02;
    jitter = 0.5;
    seed = 11;
  }

let bdd = Engine.get Engine.Bdd_reach

let test_supervisor_retries_deterministically () =
  (* The first two attempts crash (injected), the third succeeds; the
     slept backoffs must be exactly the schedule's prefix. *)
  let p = policy () in
  let faults = faults_of_spec "5:engine_start=crashx2" in
  let o =
    Supervisor.run ~policy:p ~faults ~max_depth:50 bdd
      (Configs.passive ~nodes ())
  in
  (match o.Supervisor.result with
  | Ok r ->
      Alcotest.(check bool) "third attempt proves the property" true
        (match r.Engine.verdict with Engine.Holds _ -> true | _ -> false)
  | Error f -> Alcotest.failf "unexpected failure: %s" (Supervisor.failure_to_string f));
  Alcotest.(check int) "three attempts" 3 o.Supervisor.attempts;
  let schedule = Supervisor.backoff_schedule p in
  Alcotest.(check (list (float 0.))) "backoffs match the schedule prefix"
    [ List.nth schedule 0; List.nth schedule 1 ]
    o.Supervisor.backoffs_s;
  Alcotest.(check (list (pair string int)))
    "supervisor counters"
    [ ("supervisor.retries", 2); ("supervisor.crashes", 2) ]
    o.Supervisor.counters;
  (* Same policy, same faults: the whole outcome shape reproduces. *)
  let o' =
    Supervisor.run ~policy:p ~faults:(faults_of_spec "5:engine_start=crashx2")
      ~max_depth:50 bdd (Configs.passive ~nodes ())
  in
  Alcotest.(check int) "attempts reproduce" o.Supervisor.attempts
    o'.Supervisor.attempts;
  Alcotest.(check (list (float 0.))) "backoffs reproduce"
    o.Supervisor.backoffs_s o'.Supervisor.backoffs_s

let test_supervisor_exhausts_retries () =
  let p = policy ~retries:2 () in
  let faults = faults_of_spec "5:engine_start=crash" in
  let o =
    Supervisor.run ~policy:p ~faults ~max_depth:50 bdd
      (Configs.passive ~nodes ())
  in
  (match o.Supervisor.result with
  | Error (Supervisor.Crashed { attempts; last_error }) ->
      Alcotest.(check int) "every attempt used" 3 attempts;
      Alcotest.(check bool) "the injected fault is named" true
        (let s = String.lowercase_ascii last_error in
         (* Printexc renders the Injected exception with its point. *)
         String.length s > 0)
  | Ok _ -> Alcotest.fail "expected a failure");
  Alcotest.(check int) "attempts counted" 3 o.Supervisor.attempts;
  Alcotest.(check (list (pair string int)))
    "crash/retry counters"
    [ ("supervisor.retries", 2); ("supervisor.crashes", 3) ]
    o.Supervisor.counters;
  Alcotest.(check int) "registry counted every injection" 3
    (List.assoc "engine_start.crash" (Faults.injections faults))

(* ------------------------------------------------------------------ *)
(* Cache quarantine *)

let test_cache_quarantines_flipped_byte () =
  let dir = temp_dir () in
  let c = Portfolio.Cache.create ~dir () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach and max_depth = 50 in
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved safe: quarantine probe" });
  (* Flip one byte of the payload on disk — the checksum must catch
     it even though the file is still perfectly valid JSON. *)
  let path =
    Filename.concat dir
      (Portfolio.Cache.key ~model ~engine ~max_depth ^ ".json")
  in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let idx =
    let m = String.length "probe" in
    let rec go i =
      if i + m > String.length raw then
        Alcotest.failf "payload marker not found in %s" path
      else if String.sub raw i m = "probe" then i
      else go (i + 1)
    in
    go 0
  in
  let flipped = Bytes.of_string raw in
  Bytes.set flipped idx 'q';
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  Alcotest.(check bool) "flipped entry is a miss" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth = None);
  Alcotest.(check int) "flipped entry quarantined" 1
    (Portfolio.Cache.quarantined c);
  Alcotest.(check bool) "quarantine file left for forensics" true
    (Sys.file_exists (path ^ ".quarantined"));
  Alcotest.(check bool) "original gone" false (Sys.file_exists path);
  (* Recompute-and-store repopulates; the quarantined file does not
     interfere with the fresh entry. *)
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved safe: recomputed" });
  (match Portfolio.Cache.lookup c ~model ~engine ~max_depth with
  | Some (Engine.Holds { detail }) ->
      Alcotest.(check string) "recomputed entry served"
        "proved safe: recomputed" detail
  | _ -> Alcotest.fail "expected the recomputed verdict");
  Alcotest.(check int) "no further quarantines" 1
    (Portfolio.Cache.quarantined c)

let test_cache_chaos_corrupt_reads () =
  (* The Cache_read corrupt hook: with injection armed, a stored entry
     comes back as a miss (flipped byte -> checksum mismatch ->
     quarantined) and the registry records the injection. *)
  let faults = faults_of_spec "13:cache_read=corruptx1" in
  let c = Portfolio.Cache.create ~dir:(temp_dir ()) ~faults () in
  let model = Tta_model.Build.model (Configs.passive ~nodes ()) in
  let engine = Engine.Bdd_reach and max_depth = 50 in
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved safe: chaos probe" });
  Alcotest.(check bool) "corrupted read degrades to a miss" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth = None);
  Alcotest.(check int) "quarantined" 1 (Portfolio.Cache.quarantined c);
  Alcotest.(check int) "injection recorded" 1
    (List.assoc "cache_read.corrupt" (Faults.injections faults));
  (* The x1 budget is spent: a recomputed entry is served cleanly. *)
  Portfolio.Cache.store c ~model ~engine ~max_depth
    (Engine.Holds { detail = "proved safe: recomputed" });
  Alcotest.(check bool) "post-budget lookup hits" true
    (Portfolio.Cache.lookup c ~model ~engine ~max_depth <> None)

(* ------------------------------------------------------------------ *)
(* Portfolio integration *)

let test_race_survives_crashing_engine () =
  (* Exactly one engine attempt crashes (x1) and fail-fast supervision
     turns it into a recorded failure; the surviving racer still
     proves the property. *)
  let p = policy ~retries:0 () in
  let r =
    Portfolio.race ~supervisor:p
      ~faults:(faults_of_spec "5:engine_start=crashx1")
      ~engines:[ Engine.Bdd_reach; Engine.Explicit_bfs ]
      ~max_depth:50
      (Configs.passive ~nodes ())
  in
  Alcotest.(check bool) "still proves the property" true
    (match r.Portfolio.verdict with Engine.Holds _ -> true | _ -> false);
  Alcotest.(check int) "one recorded failure" 1
    (List.length r.Portfolio.failures);
  Alcotest.(check int) "one completed run" 1 (List.length r.Portfolio.runs);
  Alcotest.(check bool) "not an all-failed result" false
    (Portfolio.all_failed r)

let test_race_all_engines_failed () =
  let p = policy ~retries:0 () in
  let r =
    Portfolio.race ~supervisor:p
      ~faults:(faults_of_spec "5:engine_start=crash")
      ~engines:[ Engine.Bdd_reach; Engine.Explicit_bfs ]
      ~max_depth:50
      (Configs.passive ~nodes ())
  in
  Alcotest.(check bool) "flagged all-failed" true (Portfolio.all_failed r);
  Alcotest.(check int) "both failures recorded" 2
    (List.length r.Portfolio.failures);
  Alcotest.(check (list string)) "failures in priority order"
    [ "bdd-reachability"; "explicit-bfs" ]
    (List.map
       (fun (e, _) -> Engine.id_to_string e)
       r.Portfolio.failures);
  (match r.Portfolio.verdict with
  | Engine.Unknown { detail } ->
      Alcotest.(check bool) "detail carries the breakdown" true
        (String.length detail > 0)
  | _ -> Alcotest.fail "expected Unknown");
  Alcotest.(check int) "no completed runs" 0 (List.length r.Portfolio.runs)

let () =
  Alcotest.run "resilience"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic firing" `Quick
            test_firing_deterministic;
          Alcotest.test_case "injections counted" `Quick
            test_injections_counted;
          Alcotest.test_case "deterministic corruption" `Quick
            test_corrupt_deterministic;
          Alcotest.test_case "hash_float is pure" `Quick test_hash_float_pure;
        ] );
      ( "link",
        [
          Alcotest.test_case "spec roundtrip" `Quick test_link_spec_roundtrip;
          Alcotest.test_case "deterministic firing" `Quick
            test_link_firing_deterministic;
          Alcotest.test_case "action semantics" `Quick
            test_link_action_semantics;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "deterministic retries" `Quick
            test_supervisor_retries_deterministically;
          Alcotest.test_case "retry exhaustion" `Quick
            test_supervisor_exhausts_retries;
        ] );
      ( "cache",
        [
          Alcotest.test_case "flipped byte quarantined" `Quick
            test_cache_quarantines_flipped_byte;
          Alcotest.test_case "chaos corrupt reads" `Quick
            test_cache_chaos_corrupt_reads;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "race survives a crash" `Quick
            test_race_survives_crashing_engine;
          Alcotest.test_case "all engines failed" `Quick
            test_race_all_engines_failed;
        ] );
    ]
