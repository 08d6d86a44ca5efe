(* Tests for the verification daemon (lib/service): protocol codec
   round-trips and validation, scheduler coalescing / deadlines /
   admission control / drain, and the server + load generator end to
   end over a real Unix-domain socket. 2-node clusters throughout. *)

module Engine = Tta_model.Engine
module Configs = Tta_model.Configs
module Protocol = Service.Protocol
module Scheduler = Service.Scheduler

let nodes = 2

let temp_dir =
  let counter = ref 0 in
  fun () ->
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "service_test_%d_%d" (Unix.getpid ())
           (incr counter; !counter))
    in
    Unix.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_request_roundtrip () =
  let j =
    Protocol.request ~id:"r1" ~config:"full-shifting" ~nodes ~engine:"bdd"
      ~depth:30 ~deadline_ms:1500 ~family:"fam-7"
      ~forbid_cold_start_duplication:true ()
  in
  (* Through the wire: serialize, reparse, validate. *)
  match Protocol.decode_request_line (Json.to_string j) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok req ->
      Alcotest.(check string) "id" "r1" req.Protocol.id;
      Alcotest.(check int) "nodes" nodes req.Protocol.cfg.Configs.nodes;
      Alcotest.(check bool) "feature set" true
        (req.Protocol.cfg.Configs.feature_set
        = Guardian.Feature_set.Full_shifting);
      Alcotest.(check bool) "forbid flag" true
        req.Protocol.cfg.Configs.forbid_cold_start_duplication;
      Alcotest.(check bool) "single engine" true
        (req.Protocol.engines = [ Engine.Bdd_reach ]);
      Alcotest.(check int) "depth" 30 req.Protocol.max_depth;
      Alcotest.(check bool) "deadline" true
        (req.Protocol.deadline_ms = Some 1500);
      Alcotest.(check (option string)) "family" (Some "fam-7")
        req.Protocol.family

let test_request_defaults () =
  let j = Protocol.request ~id:"r2" ~config:"passive" () in
  match Protocol.decode_request_line (Json.to_string j) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok req ->
      Alcotest.(check int) "default depth" 24 req.Protocol.max_depth;
      Alcotest.(check bool) "no deadline" true
        (req.Protocol.deadline_ms = None);
      Alcotest.(check (option string)) "no family" None req.Protocol.family;
      Alcotest.(check bool) "no engine asks for the default chain" true
        (req.Protocol.engines = Portfolio.default_engines);
      match
        Protocol.decode_request_line
          (Json.to_string (Protocol.request ~id:"r3" ~config:"passive" ~engine:"race" ()))
      with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok req ->
          Alcotest.(check bool) "\"race\" asks for the default chain" true
            (req.Protocol.engines = Portfolio.default_engines)

let test_request_golden () =
  (* The wire form itself is part of the contract: a field rename
     would break every deployed client. *)
  Alcotest.(check string) "request wire format"
    {|{"id":"r1","config":"passive","nodes":2,"engine":"race","depth":24}|}
    (Json.to_string
       (Protocol.request ~id:"r1" ~config:"passive" ~nodes:2 ~engine:"race"
          ~depth:24 ()))

let test_response_golden () =
  Alcotest.(check string) "response wire format"
    {|{"id":"r1","status":"ok","verdict":"unknown","detail":"cancelled","reason":"deadline_exceeded","engine":"sat-bmc","cache_hit":false,"coalesced":true,"wall_ms":12.5,"queue_ms":3.25,"reused_session":true,"warm_depth":18}|}
    (Json.to_string
       (Protocol.encode_response
          (Protocol.Answer
             {
               id = "r1";
               verdict =
                 Protocol.Unknown
                   { detail = "cancelled"; reason = Some "deadline_exceeded" };
               engine = "sat-bmc";
               cache_hit = false;
               coalesced = true;
               wall_ms = 12.5;
               queue_ms = 3.25;
               reused_session = true;
               warm_depth = 18;
             })))

let test_response_presession_compat () =
  (* A response from a daemon predating warm sessions has no
     reused_session/warm_depth fields; it must still decode, with cold
     attribution. *)
  match
    Protocol.decode_response_line
      {|{"id":"r1","status":"ok","verdict":"holds","detail":"proved","engine":"bdd-reachability","cache_hit":false,"coalesced":false,"wall_ms":1.5,"queue_ms":0.25}|}
  with
  | Ok (Protocol.Answer { reused_session; warm_depth; _ }) ->
      Alcotest.(check bool) "defaults to not reused" false reused_session;
      Alcotest.(check int) "defaults to cold depth" 0 warm_depth
  | Ok _ -> Alcotest.fail "expected an answer"
  | Error e -> Alcotest.failf "pre-session answer did not decode: %s" e

let test_error_codes_golden () =
  (* Every rejection carries a machine-readable [code]; clients branch
     on it (the loadgen retries [engine_failed]), so the wire form is
     contractual. *)
  Alcotest.(check string) "error wire format"
    {|{"id":"r2","status":"error","code":"engine_failed","reason":"all engines failed"}|}
    (Json.to_string
       (Protocol.encode_response
          (Protocol.Error
             {
               id = Some "r2";
               code = Protocol.code_engine_failed;
               reason = "all engines failed";
             })));
  Alcotest.(check string) "overloaded wire format"
    {|{"id":"r3","status":"overloaded","code":"overloaded"}|}
    (Json.to_string
       (Protocol.encode_response (Protocol.Overloaded { id = "r3" })));
  Alcotest.(check string) "cancelled wire format"
    {|{"id":"r4","status":"cancelled","code":"draining","reason":"bye"}|}
    (Json.to_string
       (Protocol.encode_response
          (Protocol.Cancelled { id = "r4"; reason = "bye" })));
  (* A pre-code daemon's error line still decodes, defaulting to
     bad_request. *)
  match
    Protocol.decode_response_line
      {|{"id":"r5","status":"error","reason":"invalid JSON"}|}
  with
  | Ok (Protocol.Error { id = Some "r5"; code; reason = "invalid JSON" }) ->
      Alcotest.(check string) "legacy error defaults to bad_request"
        Protocol.code_bad_request code
  | Ok _ -> Alcotest.fail "unexpected decode"
  | Error e -> Alcotest.failf "legacy error did not decode: %s" e

let test_degraded_golden () =
  (* The graceful-degradation answer: a partial verdict with content.
     Clients (and the synthesis harness) branch on [status:"degraded"]
     + [code], so the wire form is contractual like the error codes. *)
  Alcotest.(check string) "degraded wire format"
    {|{"id":"r7","status":"degraded","code":"deadline_exceeded","clean_depth":28,"detail":"no counterexample up to depth 28","engine":"sat-bmc","wall_ms":12.5,"queue_ms":3.25,"reused_session":true,"warm_depth":28}|}
    (Json.to_string
       (Protocol.encode_response
          (Protocol.Degraded
             {
               id = "r7";
               code = Protocol.code_deadline_exceeded;
               clean_depth = 28;
               engine = "sat-bmc";
               wall_ms = 12.5;
               queue_ms = 3.25;
               reused_session = true;
               warm_depth = 28;
             })));
  (* clean_depth is the answer's whole content: a degraded line
     without it must be rejected, not defaulted. *)
  (match
     Protocol.decode_response_line
       {|{"id":"r8","status":"degraded","code":"engine_failed","engine":"sat-bmc","wall_ms":1.0,"queue_ms":0.5}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "degraded without clean_depth must not decode");
  (* Optional attribution fields default like the Answer decoder's. *)
  match
    Protocol.decode_response_line
      {|{"id":"r9","status":"degraded","code":"engine_failed","clean_depth":12,"engine":"sat-bmc","wall_ms":1.0,"queue_ms":0.5}|}
  with
  | Ok (Protocol.Degraded { clean_depth = 12; reused_session; warm_depth; _ })
    ->
      Alcotest.(check bool) "defaults to not reused" false reused_session;
      Alcotest.(check int) "defaults to cold depth" 0 warm_depth
  | Ok _ -> Alcotest.fail "expected a degraded response"
  | Error e -> Alcotest.failf "minimal degraded did not decode: %s" e

let test_response_roundtrip () =
  let responses =
    [
      Protocol.Answer
        {
          id = "a";
          verdict = Protocol.Holds { detail = "proved" };
          engine = "bdd-reachability";
          cache_hit = true;
          coalesced = false;
          wall_ms = 0.5;
          queue_ms = 0.;
          reused_session = false;
          warm_depth = 0;
        };
      Protocol.Answer
        {
          id = "b";
          verdict =
            Protocol.Violated
              { steps = 2; trace = [ [ "x"; "y" ]; [ "z"; "w" ] ] };
          engine = "explicit-bfs";
          cache_hit = false;
          coalesced = false;
          wall_ms = 100.;
          queue_ms = 7.5;
          reused_session = true;
          warm_depth = 12;
        };
      Protocol.Degraded
        {
          id = "b2";
          code = Protocol.code_deadline_exceeded;
          clean_depth = 16;
          engine = "sat-bmc";
          wall_ms = 0.25;
          queue_ms = 250.5;
          reused_session = true;
          warm_depth = 16;
        };
      Protocol.Degraded
        {
          id = "b3";
          code = Protocol.code_engine_failed;
          clean_depth = 0;
          engine = "sat-bmc";
          wall_ms = 4.5;
          queue_ms = 0.;
          reused_session = false;
          warm_depth = 0;
        };
      Protocol.Overloaded { id = "c" };
      Protocol.Cancelled { id = "d"; reason = "shutting down" };
      Protocol.Error
        {
          id = Some "e";
          code = Protocol.code_bad_request;
          reason =
            "unknown engine \"vdd\" (expected bdd | bmc | explicit | race)";
        };
      Protocol.Error
        {
          id = None;
          code = Protocol.code_bad_request;
          reason = "invalid JSON: offset 0";
        };
      Protocol.Error
        {
          id = Some "f";
          code = Protocol.code_engine_failed;
          reason = "all engines failed";
        };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_response_line (Protocol.response_line r) with
      | Ok r' -> Alcotest.(check bool) "response roundtrips" true (r = r')
      | Error e -> Alcotest.failf "reparse failed: %s" e)
    responses

let test_request_validation () =
  let expect_error what line =
    match Protocol.decode_request_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a decode error" what
  in
  expect_error "not JSON" "][";
  expect_error "not an object" "[1,2]";
  expect_error "missing id" {|{"config":"passive"}|};
  expect_error "missing config" {|{"id":"r"}|};
  expect_error "unknown config" {|{"id":"r","config":"imaginary"}|};
  expect_error "unknown engine" {|{"id":"r","config":"passive","engine":"vdd"}|};
  (* The reason lists the accepted engines, from the registry; the
     removed k-induction engine is one of the unknown names. *)
  Alcotest.(check (result reject string)) "induction is not an engine"
    (Error "unknown engine \"induction\" (expected bdd | bmc | explicit | race)")
    (Result.map ignore
       (Protocol.decode_request_line
          {|{"id":"r","config":"passive","engine":"induction"}|}));
  expect_error "bad nodes" {|{"id":"r","config":"passive","nodes":1}|};
  (* The cluster size is bounded: a model is built on the select loop
     and kept for the process's life. *)
  (match
     Protocol.decode_request_line {|{"id":"r","config":"passive","nodes":8}|}
   with
  | Ok req ->
      Alcotest.(check int) "8 nodes accepted" 8 req.Protocol.cfg.Configs.nodes
  | Error e -> Alcotest.failf "8 nodes rejected: %s" e);
  Alcotest.(check (result reject string)) "9 nodes rejected"
    (Error "field \"nodes\" must be between 2 and 8")
    (Result.map ignore
       (Protocol.decode_request_line
          {|{"id":"r","config":"passive","nodes":9}|}));
  expect_error "bad depth" {|{"id":"r","config":"passive","depth":0}|};
  expect_error "bad deadline"
    {|{"id":"r","config":"passive","deadline_ms":-5}|};
  expect_error "non-int depth" {|{"id":"r","config":"passive","depth":"x"}|};
  (* The id is still recoverable from an invalid request, so the
     error response can name it. *)
  Alcotest.(check bool) "id recovered from invalid request" true
    (Protocol.request_id_of_line {|{"id":"r9","config":"imaginary"}|}
    = Some "r9")

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let submit_collect sched ?deadline ?family ~engines ~max_depth cfg results
    lock =
  Scheduler.submit sched ?deadline ?family ~engines ~max_depth
    ~callback:(fun o ->
      Mutex.lock lock;
      results := o :: !results;
      Mutex.unlock lock)
    cfg

let test_scheduler_coalesces_identical () =
  (* One worker, four identical requests: the first admission queues a
     computation, the rest must coalesce onto it — exactly one engine
     run for all four answers. The computation stays coalescable for
     its whole run, so this holds regardless of when the worker picks
     it up. *)
  let sched = Scheduler.create ~workers:1 () in
  let cfg = Configs.full_shifting ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let admissions =
    List.init 4 (fun _ ->
        submit_collect sched ~engines:[ Engine.Explicit_bfs ] ~max_depth:60
          cfg results lock)
  in
  Alcotest.(check bool) "first admission queues" true
    (List.hd admissions = `Queued);
  Alcotest.(check int) "three coalesced admissions" 3
    (List.length (List.filter (fun a -> a = `Coalesced) admissions));
  Scheduler.drain sched;
  let rs = !results in
  Alcotest.(check int) "every waiter answered" 4 (List.length rs);
  let st = Scheduler.stats sched in
  Alcotest.(check int) "exactly one engine run" 1 st.Scheduler.runs;
  Alcotest.(check int) "stats: coalesced" 3 st.Scheduler.coalesced;
  Alcotest.(check int) "stats: completed" 4 st.Scheduler.completed;
  Alcotest.(check int) "one flagged as the originating request" 1
    (List.length
       (List.filter
          (fun (o : Scheduler.outcome) -> not o.Scheduler.coalesced)
          rs));
  (* All four see the same verdict. *)
  let kinds =
    List.map
      (fun (o : Scheduler.outcome) ->
        match o.Scheduler.result.Portfolio.verdict with
        | Engine.Holds _ -> "holds"
        | Engine.Violated _ -> "violated"
        | Engine.Unknown _ -> "unknown")
      rs
  in
  Alcotest.(check int) "one distinct verdict" 1
    (List.length (List.sort_uniq compare kinds))

let test_scheduler_family_partitions_coalescing () =
  (* Coalescing must respect the family override: a submission joining
     an inflight computation would otherwise silently inherit the
     first submitter's family (wrong attribution, wrong session
     bucket). Same model + engines + depth but a different family must
     run separately; a matching family still coalesces. *)
  let sched = Scheduler.create ~workers:1 () in
  let cfg = Configs.full_shifting ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let submit family =
    submit_collect sched ?family ~engines:[ Engine.Explicit_bfs ]
      ~max_depth:60 cfg results lock
  in
  let a1 = submit (Some "tenant-a") in
  let a2 = submit (Some "tenant-b") in
  let a3 = submit (Some "tenant-a") in
  let a4 = submit None in
  Alcotest.(check bool) "first tenant-a queues" true (a1 = `Queued);
  Alcotest.(check bool) "tenant-b does not coalesce onto tenant-a" true
    (a2 = `Queued);
  Alcotest.(check bool) "second tenant-a coalesces" true (a3 = `Coalesced);
  Alcotest.(check bool) "no-family does not coalesce onto a tenant" true
    (a4 = `Queued);
  Scheduler.drain sched;
  let st = Scheduler.stats sched in
  Alcotest.(check int) "three engine runs" 3 st.Scheduler.runs;
  Alcotest.(check int) "one coalesced waiter" 1 st.Scheduler.coalesced;
  Alcotest.(check int) "all four answered" 4 st.Scheduler.completed

let test_scheduler_names_of_one_system_coalesce () =
  (* Passive and time windows build one transition system, so they
     share one computation; each waiter still gets its own
     configuration back. *)
  let sched = Scheduler.create ~workers:1 () in
  let passive = Configs.passive ~nodes ()
  and time_windows = Configs.time_windows ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let submit cfg =
    submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:50 cfg
      results lock
  in
  let a1 = submit passive in
  let a2 = submit time_windows in
  Alcotest.(check bool) "first queues" true (a1 = `Queued);
  Alcotest.(check bool) "other name coalesces" true (a2 = `Coalesced);
  Scheduler.drain sched;
  Alcotest.(check int) "one engine run" 1
    (Scheduler.stats sched).Scheduler.runs;
  Alcotest.(check (list string)) "each answer keeps its name"
    [ "passive"; "time-windows" ]
    (List.sort compare
       (List.map
          (fun (o : Scheduler.outcome) ->
            Configs.name o.Scheduler.result.Portfolio.config)
          !results))

let test_scheduler_cache_hit () =
  let cache = Portfolio.Cache.create ~dir:(temp_dir ()) () in
  let sched = Scheduler.create ~workers:1 ~cache () in
  let cfg = Configs.passive ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let a1 =
    submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:50 cfg
      results lock
  in
  Alcotest.(check bool) "cold submit queues" true (a1 = `Queued);
  (* Wait for completion, then resubmit: the verdict must come straight
     from the cache, without a second run. *)
  let rec wait_for n =
    Mutex.lock lock;
    let got = List.length !results in
    Mutex.unlock lock;
    if got < n then begin
      Unix.sleepf 0.02;
      wait_for n
    end
  in
  wait_for 1;
  let a2 =
    submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:50 cfg
      results lock
  in
  Alcotest.(check bool) "warm submit answers from the cache" true
    (a2 = `Cache_hit);
  Scheduler.drain sched;
  let st = Scheduler.stats sched in
  Alcotest.(check int) "one run" 1 st.Scheduler.runs;
  Alcotest.(check int) "one admission-time cache hit" 1
    st.Scheduler.cache_hits;
  let hit =
    List.find (fun o -> o.Scheduler.result.Portfolio.cache_hit) !results
  in
  Alcotest.(check bool) "cached outcome is conclusive" true
    (Portfolio.conclusive hit.Scheduler.result.Portfolio.verdict)

(* A cold request reads the verdict cache once, at admission: the run
   that follows neither probes it again nor counts a second miss. *)
let test_scheduler_one_probe_per_request () =
  let cache = Portfolio.Cache.create ~dir:(temp_dir ()) () in
  let sched = Scheduler.create ~workers:1 ~cache () in
  let cfg = Configs.passive ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let submit () =
    submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:24 cfg
      results lock
  in
  let rec wait_for n =
    Mutex.lock lock;
    let got = List.length !results in
    Mutex.unlock lock;
    if got < n then begin
      Unix.sleepf 0.02;
      wait_for n
    end
  in
  Alcotest.(check bool) "cold submit queues" true (submit () = `Queued);
  wait_for 1;
  Alcotest.(check int) "cold: one miss" 1 (Portfolio.Cache.misses cache);
  Alcotest.(check int) "cold: no hit" 0 (Portfolio.Cache.hits cache);
  Alcotest.(check bool) "repeat answers from the cache" true
    (submit () = `Cache_hit);
  Alcotest.(check int) "repeat: one hit" 1 (Portfolio.Cache.hits cache);
  Alcotest.(check int) "repeat: still one miss" 1
    (Portfolio.Cache.misses cache);
  Scheduler.drain sched

let test_scheduler_expired_deadline_skips_run () =
  let sched = Scheduler.create ~workers:1 () in
  let cfg = Configs.full_shifting ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let a =
    submit_collect sched
      ~deadline:(Unix.gettimeofday () -. 1.0)
      ~engines:[ Engine.Explicit_bfs ] ~max_depth:60 cfg results lock
  in
  Alcotest.(check bool) "expired submission still admitted" true
    (a = `Queued);
  Scheduler.drain sched;
  (match !results with
  | [ o ] ->
      Alcotest.(check bool) "flagged expired" true o.Scheduler.expired;
      (match o.Scheduler.result.Portfolio.verdict with
      | Engine.Unknown _ -> ()
      | _ -> Alcotest.fail "expected an inconclusive verdict")
  | rs -> Alcotest.failf "expected one outcome, got %d" (List.length rs));
  let st = Scheduler.stats sched in
  Alcotest.(check int) "no engine ran" 0 st.Scheduler.runs;
  Alcotest.(check int) "counted as expired" 1 st.Scheduler.expired

let test_scheduler_sheds_over_cap () =
  (* One worker, queue capped at 1: occupy the worker with one slow
     computation, fill the single queue slot with a second, and watch
     a third (a distinct transition system — coalescing never sheds)
     bounce. *)
  let sched = Scheduler.create ~workers:1 ~queue_cap:1 () in
  let results = ref [] and lock = Mutex.create () in
  let submit cfg =
    submit_collect sched ~engines:[ Engine.Explicit_bfs ] ~max_depth:60 cfg
      results lock
  in
  let a1 = submit (Configs.full_shifting ~nodes ()) in
  (* Give the worker a moment to take the first computation off the
     queue, freeing the slot for the second. *)
  let rec wait_pickup n =
    if n > 0 && Scheduler.inflight sched = 0 then begin
      Unix.sleepf 0.01;
      wait_pickup (n - 1)
    end
  in
  wait_pickup 200;
  let a2 = submit (Configs.small_shifting ~nodes ()) in
  let a3 =
    submit (Configs.full_shifting ~nodes ~forbid_cold_start_duplication:true ())
  in
  Alcotest.(check bool) "first admitted" true (a1 = `Queued);
  Alcotest.(check bool) "second queued" true (a2 = `Queued);
  Alcotest.(check bool) "third shed" true (a3 = `Shed);
  Scheduler.drain sched;
  let st = Scheduler.stats sched in
  Alcotest.(check int) "shed counted" 1 st.Scheduler.shed;
  Alcotest.(check int) "shed request never answered" 2
    (List.length !results)

let test_scheduler_drain_answers_everything () =
  let dir = temp_dir () in
  let cache = Portfolio.Cache.create ~dir () in
  let sched = Scheduler.create ~workers:1 ~cache () in
  let results = ref [] and lock = Mutex.create () in
  let configs =
    [
      Configs.passive ~nodes ();
      Configs.time_windows ~nodes ();
      Configs.small_shifting ~nodes ();
      Configs.full_shifting ~nodes ();
    ]
  in
  List.iter
    (fun cfg ->
      ignore
        (submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:50 cfg
           results lock))
    configs;
  (* A short grace: whatever is still running when it elapses is
     force-cancelled, but every accepted request gets an answer. *)
  Scheduler.drain ~grace:0.5 sched;
  Alcotest.(check int) "every accepted request answered" 4
    (List.length !results);
  Alcotest.(check bool) "submissions after drain are refused" true
    (submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:50
       (Configs.passive ~nodes ()) results lock
    = `Draining);
  (* The cache directory holds only complete, renamed-into-place
     entries — no half-written temporaries survive the drain. *)
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "no temp file %s left behind" f)
        false
        (Filename.check_suffix f ".tmp"))
    (Sys.readdir dir)

let test_scheduler_crash_still_answers () =
  (* Every engine attempt crashes (injected, unlimited) and the
     supervisor fails fast: a drain must still answer every accepted
     request — with the structured all-engines-failed result, never by
     dropping a waiter. *)
  let faults =
    match Resilience.Faults.of_spec "5:engine_start=crash" with
    | Ok f -> f
    | Error e -> Alcotest.failf "spec rejected: %s" e
  in
  let supervisor =
    { Resilience.Supervisor.default with retries = 1; backoff_s = 0.005 }
  in
  let sched = Scheduler.create ~workers:2 ~supervisor ~faults () in
  let results = ref [] and lock = Mutex.create () in
  let configs =
    [
      Configs.passive ~nodes ();
      Configs.time_windows ~nodes ();
      Configs.small_shifting ~nodes ();
      Configs.full_shifting ~nodes ();
    ]
  in
  List.iter
    (fun cfg ->
      ignore
        (submit_collect sched ~engines:[ Engine.Bdd_reach ] ~max_depth:50 cfg
           results lock))
    configs;
  Scheduler.drain sched;
  let rs = !results in
  Alcotest.(check int) "every accepted request answered" 4 (List.length rs);
  List.iter
    (fun (o : Scheduler.outcome) ->
      Alcotest.(check bool) "flagged all-failed" true
        (Portfolio.all_failed o.Scheduler.result);
      match o.Scheduler.result.Portfolio.failures with
      | [ (Engine.Bdd_reach, _) ] -> ()
      | _ -> Alcotest.fail "expected one bdd failure entry")
    rs;
  let st = Scheduler.stats sched in
  Alcotest.(check int) "every run completed" 4 st.Scheduler.completed

let test_scheduler_warm_sessions () =
  (* With a session pool attached, a second single-SAT-engine request
     of the same family (different depth, so no coalescing and no
     cache key match) must run on the warm session: its outcome is
     attributed reused_session with the first request's unrolling
     depth, and the verdict matches a cold run's. *)
  let pool = Sessions.create () in
  let sched = Scheduler.create ~workers:1 ~sessions:pool () in
  let cfg = Configs.passive ~nodes () in
  let results = ref [] and lock = Mutex.create () in
  let rec wait_for n =
    Mutex.lock lock;
    let got = List.length !results in
    Mutex.unlock lock;
    if got < n then begin
      Unix.sleepf 0.02;
      wait_for n
    end
  in
  ignore
    (submit_collect sched ~engines:[ Engine.Sat_bmc ] ~max_depth:8 cfg results
       lock);
  wait_for 1;
  ignore
    (submit_collect sched ~engines:[ Engine.Sat_bmc ] ~max_depth:10 cfg
       results lock);
  wait_for 2;
  Scheduler.drain sched;
  (match List.rev !results with
  | [ cold; warm ] ->
      Alcotest.(check bool) "first request is cold" false
        cold.Scheduler.reused_session;
      Alcotest.(check int) "cold warm_depth" 0 cold.Scheduler.warm_depth;
      Alcotest.(check bool) "second request reuses the session" true
        warm.Scheduler.reused_session;
      Alcotest.(check bool) "warm depth carries the first unrolling" true
        (warm.Scheduler.warm_depth >= 8);
      (match warm.Scheduler.result.Portfolio.verdict with
      | Engine.Holds { detail } ->
          Alcotest.(check string) "warm verdict equals a cold bmc run"
            "no counterexample up to depth 10" detail
      | _ -> Alcotest.fail "expected Holds from the warm session")
  | rs -> Alcotest.failf "expected two outcomes, got %d" (List.length rs));
  let st = Scheduler.stats sched in
  Alcotest.(check int) "one session reuse counted" 1
    st.Scheduler.session_reuses;
  let ps = Sessions.stats pool in
  Alcotest.(check int) "one pool hit" 1 ps.Sessions.hits;
  Alcotest.(check int) "one pool miss" 1 ps.Sessions.misses;
  Alcotest.(check int) "entry back in the pool" 1 ps.Sessions.idle

(* ------------------------------------------------------------------ *)
(* Net: addresses, framing, readiness, close-on-exec *)

module Net = Service.Net

let test_net_addr_roundtrip () =
  List.iter
    (fun (s, want, printed) ->
      match Net.addr_of_string s with
      | Error e -> Alcotest.failf "%S rejected: %s" s e
      | Ok a ->
          Alcotest.(check bool) (s ^ " parses") true (a = want);
          Alcotest.(check string) (s ^ " prints") printed (Net.addr_to_string a);
          Alcotest.(check bool) (s ^ " round-trips") true
            (Net.addr_of_string (Net.addr_to_string a) = Ok a))
    [
      ("127.0.0.1:0", Net.Tcp ("127.0.0.1", 0), "127.0.0.1:0");
      (":7171", Net.Tcp ("127.0.0.1", 7171), "127.0.0.1:7171");
      ("/tmp/tta.sock", Net.Unix_socket "/tmp/tta.sock", "/tmp/tta.sock");
    ];
  Alcotest.(check bool) "port out of range rejected" true
    (Result.is_error (Net.addr_of_string "127.0.0.1:65536"))

let test_net_ready_golden () =
  (* CI and the benchmark's process driver parse this line: its bytes
     are part of the daemons' interface. *)
  Alcotest.(check string) "tcp readiness"
    {|{"ready":true,"socket":"127.0.0.1:7171","port":7171}|}
    (Net.ready_line (Net.Tcp ("127.0.0.1", 7171)));
  Alcotest.(check string) "unix-socket readiness has no port"
    {|{"ready":true,"socket":"/tmp/tta.sock"}|}
    (Net.ready_line (Net.Unix_socket "/tmp/tta.sock"))

let test_net_ready_roundtrip () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Net.addr_to_string a ^ " round-trips")
        true
        (Net.parse_ready (Net.ready_line a) = Some a))
    [ Net.Tcp ("127.0.0.1", 7171); Net.Unix_socket "/tmp/tta.sock" ]

let test_net_split_lines () =
  let buf = Buffer.create 16 in
  let got = ref [] in
  let feed s =
    Buffer.add_string buf s;
    Net.split_lines buf (fun l -> got := l :: !got)
  in
  feed "ab";
  Alcotest.(check (list string)) "a partial line is held back" [] !got;
  feed "c\nd\n\ne\nf";
  Alcotest.(check (list string)) "one chunk, several lines"
    [ "abc"; "d"; ""; "e" ] (List.rev !got);
  Alcotest.(check string) "trailing partial kept" "f" (Buffer.contents buf)

let test_net_read_line () =
  let r, w = Unix.pipe ~cloexec:true () in
  Net.write_all w "one\ntwo\nthree";
  Unix.close w;
  let reader = Net.reader r in
  let next () = Net.read_line reader in
  Alcotest.(check (option string)) "first" (Some "one") (next ());
  Alcotest.(check (option string)) "second" (Some "two") (next ());
  Alcotest.(check (option string)) "unterminated tail at EOF" (Some "three")
    (next ());
  Alcotest.(check (option string)) "then end of stream" None (next ());
  Unix.close r

(* A child process that outlives the descriptors the parent closes: a
   descriptor it inherited would keep the socket open. Until its exec
   the child holds a copy of every descriptor, close-on-exec or not,
   so wait for a line it prints after the exec. *)
let with_child f =
  let child =
    Cluster.Worker.spawn ~exe:"/bin/sh" ~args:[ "-c"; "echo up; exec sleep 30" ]
  in
  Fun.protect ~finally:(fun () -> Cluster.Worker.terminate ~grace_s:1.0 child)
  @@ fun () ->
  Alcotest.(check (option string)) "child exec'd" (Some "up")
    (Net.read_line (Net.reader child.Cluster.Worker.stdout));
  f ()

let test_net_listener_not_inherited () =
  let fd, bound = Net.listen (Net.Tcp ("127.0.0.1", 0)) in
  with_child (fun () ->
      Unix.close fd;
      (* An inherited listener would hold the port: EADDRINUSE. *)
      let fd', bound' = Net.listen bound in
      Unix.close fd';
      Alcotest.(check string) "same port listened on again"
        (Net.addr_to_string bound) (Net.addr_to_string bound'))

let test_net_accepted_not_inherited () =
  let net =
    Net.start ~faults:Resilience.Faults.disabled ~timeout:(-1.)
      ~on_line:(fun c line -> Net.send c (line ^ "\n"))
      ~drain:(fun () -> false) ~finish:ignore
      (Net.listen (Net.Tcp ("127.0.0.1", 0)))
  in
  let fd = Net.connect (Net.bound net) in
  let reader = Net.reader fd in
  Net.write_all fd "hello\n";
  Alcotest.(check (option string)) "echoed through the loop" (Some "hello")
    (Net.read_line reader);
  with_child (fun () ->
      (* Stopping closes the accepted connection in this process. *)
      Net.stop net;
      Net.wait net;
      match Unix.select [ fd ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "the accepted socket outlived its close"
      | _ ->
          Alcotest.(check (option string)) "peer reads EOF" None
            (Net.read_line reader));
  Unix.close fd

let test_served_busy_address_exits_2 () =
  let exe = Filename.concat (Sys.getcwd ()) "../bin/tta_served.exe" in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let held, bound = Net.listen (Net.Tcp ("127.0.0.1", 0)) in
  let addr = Net.addr_to_string bound in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; addr; "--workers"; "1"; "--no-cache" |]
      Unix.stdin Unix.stdout err_w
  in
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  Unix.close held;
  Alcotest.(check bool) "exit status 2" true (status = Unix.WEXITED 2);
  Alcotest.(check string) "diagnostic"
    (Printf.sprintf "tta_served: cannot listen on %s: %s\n" addr
       (Unix.error_message Unix.EADDRINUSE))
    err

(* ------------------------------------------------------------------ *)
(* Server + load generator, end to end *)

let test_server_end_to_end () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "tta.sock" in
  let cache = Portfolio.Cache.create ~dir:(Filename.concat dir "cache") () in
  let server =
    Service.Server.start ~workers:2 ~cache ~grace:2.0
      (Service.Net.Unix_socket sock)
  in
  let report =
    Service.Loadgen.run ~seed:7 ~nodes ~depth:20
      ~mode:(Service.Loadgen.Closed_loop 3) ~requests:40
      (Service.Net.Unix_socket sock)
  in
  Service.Server.stop server;
  Service.Server.wait server;
  Alcotest.(check int) "all requests answered ok" 40
    report.Service.Loadgen.ok;
  Alcotest.(check int) "zero protocol errors" 0
    report.Service.Loadgen.protocol_errors;
  Alcotest.(check bool) "dedup or cache hits occurred" true
    (report.Service.Loadgen.cache_hits + report.Service.Loadgen.coalesced > 0);
  Alcotest.(check bool) "verdicts split between holds and violated" true
    (report.Service.Loadgen.holds > 0
    && report.Service.Loadgen.violated > 0);
  (* The stream is seeded, so a rerun against a warm daemon would be
     deterministic; here we just need the percentile plumbing to have
     seen real latencies. *)
  Alcotest.(check bool) "latency percentiles populated" true
    (report.Service.Loadgen.p50_ms > 0.
    && report.Service.Loadgen.p99_ms >= report.Service.Loadgen.p50_ms)

let test_server_warm_sessions_stream () =
  (* Warm sessions are a pure latency optimization over the wire: one
     seeded near-miss BMC stream against a cold daemon and against one
     with a session pool, verdict caching off in both so every answer
     is a real solve. Same verdicts; reuses only on the warm daemon. *)
  let run ?sessions () =
    let sock = Filename.concat (temp_dir ()) "tta.sock" in
    let server =
      Service.Server.start ~workers:2 ?sessions (Service.Net.Unix_socket sock)
    in
    Fun.protect
      ~finally:(fun () ->
        Service.Server.stop server;
        Service.Server.wait server)
      (fun () ->
        Service.Loadgen.run ~seed:13 ~nodes ~depths:[ 6; 8; 10; 12 ]
          ~engines:[ "bmc" ] ~mode:(Service.Loadgen.Closed_loop 4)
          ~requests:40
          (Service.Server.bound_addr server))
  in
  let cold = run () and warm = run ~sessions:(Sessions.create ()) () in
  let open Service.Loadgen in
  List.iter
    (fun (label, r) ->
      Alcotest.(check (pair int int)) (label ^ ": ok == requests == 40")
        (40, 40) (r.ok, r.requests);
      Alcotest.(check int) (label ^ ": protocol_errors == 0") 0
        r.protocol_errors)
    [ ("cold", cold); ("warm", warm) ];
  Alcotest.(check (list int)) "holds/violated/unknown equal"
    [ cold.holds; cold.violated; cold.unknown ]
    [ warm.holds; warm.violated; warm.unknown ];
  Alcotest.(check int) "cold: session_reuses == 0" 0 cold.session_reuses;
  Alcotest.(check bool) "warm: session_reuses > 0" true (warm.session_reuses > 0)

let test_server_chaos_answers_everything () =
  (* Chaos-hardened serving, end to end: the daemon aborts the first
     two response writes (injected socket crashes) and its engines'
     first two start attempts crash; the loadgen's reconnect-and-retry
     budget must still get every request answered ok, and the report
     must show the retries it spent doing so. *)
  let faults =
    match
      Resilience.Faults.of_spec "11:sock_send=crashx2,engine_start=crashx2"
    with
    | Ok f -> f
    | Error e -> Alcotest.failf "spec rejected: %s" e
  in
  let dir = temp_dir () in
  let sock = Filename.concat dir "tta.sock" in
  let cache =
    Portfolio.Cache.create ~dir:(Filename.concat dir "cache") ~faults ()
  in
  let server =
    Service.Server.start ~workers:2 ~cache ~faults ~grace:2.0
      (Service.Net.Unix_socket sock)
  in
  let report =
    Service.Loadgen.run ~seed:7 ~nodes ~depth:20 ~retry_budget:2
      ~mode:(Service.Loadgen.Closed_loop 3) ~requests:30
      (Service.Net.Unix_socket sock)
  in
  Service.Server.stop server;
  Service.Server.wait server;
  Alcotest.(check int) "every request answered ok under chaos" 30
    report.Service.Loadgen.ok;
  Alcotest.(check int) "zero protocol errors" 0
    report.Service.Loadgen.protocol_errors;
  (* Both injected socket crashes aborted a connection with a request
     in flight, so the loadgen must have retried at least twice. *)
  Alcotest.(check bool) "retries spent recovering" true
    (report.Service.Loadgen.retries >= 2);
  Alcotest.(check bool) "verdicts still split" true
    (report.Service.Loadgen.holds > 0 && report.Service.Loadgen.violated > 0)

let test_server_degraded_deadline () =
  (* A request that arrives with its deadline already spent, but whose
     family holds a warm session, must degrade to an answer with
     content — the pool's certified clean depth on [status:"degraded"]
     — instead of a bare unknown. The degraded depth can never exceed
     what a fault-free conclusive run at the same bound would certify. *)
  let dir = temp_dir () in
  let sock = Filename.concat dir "tta.sock" in
  let pool = Sessions.create () in
  let server =
    Service.Server.start ~workers:1 ~sessions:pool ~grace:2.0
      (Service.Net.Unix_socket sock)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let send j =
    let line = Json.to_string j ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line))
  in
  let ic = Unix.in_channel_of_descr fd in
  let read_resp () =
    match Protocol.decode_response_line (input_line ic) with
    | Ok r -> r
    | Error e -> Alcotest.failf "undecodable response: %s" e
  in
  (* Warm the family with a conclusive run: the fault-free reference
     certifies exactly depth 8. *)
  send
    (Protocol.request ~id:"w1" ~config:"passive" ~nodes ~engine:"bmc" ~depth:8
       ());
  (match read_resp () with
  | Protocol.Answer { id = "w1"; verdict = Protocol.Holds _; _ } -> ()
  | r ->
      Alcotest.failf "expected a conclusive warm-up answer, got %s"
        (Json.to_string (Protocol.encode_response r)));
  (* Same family, deeper bound, no time left at all. *)
  send
    (Protocol.request ~id:"d1" ~config:"passive" ~nodes ~engine:"bmc"
       ~depth:40 ~deadline_ms:0 ());
  (match read_resp () with
  | Protocol.Degraded { id = "d1"; code; clean_depth; _ } ->
      Alcotest.(check string) "degraded names the cause"
        Protocol.code_deadline_exceeded code;
      Alcotest.(check int) "clean depth is the warm session's certificate" 8
        clean_depth
  | r ->
      Alcotest.failf "expected a degraded answer, got %s"
        (Json.to_string (Protocol.encode_response r)));
  Unix.close fd;
  Service.Server.stop server;
  Service.Server.wait server

(* ------------------------------------------------------------------ *)
(* Loadgen retry accounting, against a scripted stand-in daemon *)

(* A stand-in for the daemon whose per-line behaviour the test scripts
   exactly: [behave ~conn_n line] returns [`Reply resp] or [`Close]
   (hang up mid-request). Lets the loadgen's two retry currencies —
   transport vs structured engine failure — be exercised one at a
   time, which real chaos specs cannot guarantee. *)
let stub_server sock_path behave =
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX sock_path);
  Unix.listen listen_fd 8;
  let domain =
    Domain.spawn (fun () ->
        let conn_n = ref 0 in
        let rec serve () =
          match Unix.accept listen_fd with
          | exception Unix.Unix_error _ -> ()
          | conn, _ ->
              incr conn_n;
              let ic = Unix.in_channel_of_descr conn in
              let rec session () =
                match input_line ic with
                | exception End_of_file -> ()
                | line -> (
                    match behave ~conn_n:!conn_n line with
                    | `Close -> ()
                    | `Reply resp ->
                        ignore
                          (Unix.write_substring conn resp 0
                             (String.length resp));
                        session ())
              in
              session ();
              (try Unix.close conn with Unix.Unix_error _ -> ());
              serve ()
        in
        serve ())
  in
  let stop () =
    (try Unix.shutdown listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Domain.join domain
  in
  stop

let stub_answer id =
  Protocol.response_line
    (Protocol.Answer
       {
         id;
         verdict = Protocol.Holds { detail = "stub" };
         engine = "stub";
         cache_hit = false;
         coalesced = false;
         wall_ms = 1.0;
         queue_ms = 0.0;
         reused_session = false;
         warm_depth = 0;
       })

let test_loadgen_engine_retry_accounting () =
  (* Every request's first attempt is answered with a structured
     engine_failed error on a live connection; the retry must be
     booked as an engine retry, never a transport one. *)
  let dir = temp_dir () in
  let sock = Filename.concat dir "stub.sock" in
  let seen = Hashtbl.create 16 in
  let behave ~conn_n:_ line =
    match Protocol.decode_request_line line with
    | Error _ -> `Close
    | Ok req ->
        let id = req.Protocol.id in
        if Hashtbl.mem seen id then `Reply (stub_answer id)
        else begin
          Hashtbl.add seen id ();
          `Reply
            (Protocol.response_line
               (Protocol.Error
                  {
                    id = Some id;
                    code = Protocol.code_engine_failed;
                    reason = "scripted: first attempt always fails";
                  }))
        end
  in
  let stop = stub_server sock behave in
  let report =
    Service.Loadgen.run ~seed:3 ~nodes ~depth:8 ~retry_budget:2
      ~mode:(Service.Loadgen.Closed_loop 1) ~requests:6
      (Service.Net.Unix_socket sock)
  in
  stop ();
  Alcotest.(check int) "all answered on the second ask" 6
    report.Service.Loadgen.ok;
  Alcotest.(check int) "one engine retry per request" 6
    report.Service.Loadgen.engine_retries;
  Alcotest.(check int) "no transport retries" 0
    report.Service.Loadgen.conn_retries;
  Alcotest.(check int) "each failure response counted" 6
    report.Service.Loadgen.engine_failed;
  Alcotest.(check int) "combined retries keep the legacy total" 6
    report.Service.Loadgen.retries;
  Alcotest.(check int) "no protocol errors" 0
    report.Service.Loadgen.protocol_errors

let test_loadgen_conn_retry_accounting () =
  (* The first connection hangs up mid-request without a response (a
     drop-injected link in miniature); the resend must be booked as a
     transport retry, with the engine column untouched. *)
  let dir = temp_dir () in
  let sock = Filename.concat dir "stub.sock" in
  let behave ~conn_n line =
    if conn_n = 1 then `Close
    else
      match Protocol.decode_request_line line with
      | Error _ -> `Close
      | Ok req -> `Reply (stub_answer req.Protocol.id)
  in
  let stop = stub_server sock behave in
  let report =
    Service.Loadgen.run ~seed:3 ~nodes ~depth:8 ~retry_budget:2
      ~mode:(Service.Loadgen.Closed_loop 1) ~requests:5
      (Service.Net.Unix_socket sock)
  in
  stop ();
  Alcotest.(check int) "all answered after the reconnect" 5
    report.Service.Loadgen.ok;
  Alcotest.(check int) "the hangup cost one transport retry" 1
    report.Service.Loadgen.conn_retries;
  Alcotest.(check int) "no engine retries" 0
    report.Service.Loadgen.engine_retries;
  Alcotest.(check int) "no protocol errors" 0
    report.Service.Loadgen.protocol_errors

let test_server_rejects_malformed_lines () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "tta.sock" in
  let server =
    Service.Server.start ~workers:1 (Service.Net.Unix_socket sock)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  send "this is not json\n";
  send {|{"id":"q1","config":"imaginary"}|};
  send "\n";
  send
    (Json.to_string
       (Protocol.request ~id:"q2" ~config:"passive" ~nodes ~engine:"bdd"
          ~depth:20 ())
    ^ "\n");
  let ic = Unix.in_channel_of_descr fd in
  let read_resp () =
    match Protocol.decode_response_line (input_line ic) with
    | Ok r -> r
    | Error e -> Alcotest.failf "undecodable response: %s" e
  in
  (match read_resp () with
  | Protocol.Error { id = None; _ } -> ()
  | _ -> Alcotest.fail "expected an anonymous error response");
  (match read_resp () with
  | Protocol.Error { id = Some "q1"; _ } -> ()
  | _ -> Alcotest.fail "expected an error response naming q1");
  (match read_resp () with
  | Protocol.Answer { id = "q2"; _ } -> ()
  | _ -> Alcotest.fail "expected an answer for q2");
  Unix.close fd;
  Service.Server.stop server;
  Service.Server.wait server

let test_server_ping_pong () =
  (* Golden wire check for the health-probe path: a ping bypasses the
     scheduler and is answered verbatim with a pong. *)
  let dir = temp_dir () in
  let sock = Filename.concat dir "tta.sock" in
  let server =
    Service.Server.start ~workers:1 (Service.Net.Unix_socket sock)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let line = Json.to_string (Protocol.ping ~id:"h1") ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  let ic = Unix.in_channel_of_descr fd in
  Alcotest.(check string) "pong golden" {|{"id":"h1","status":"pong"}|}
    (input_line ic);
  Unix.close fd;
  Service.Server.stop server;
  Service.Server.wait server

let test_server_ephemeral_port () =
  (* --port 0 support: bind port 0, read the kernel-chosen port back
     through bound_addr, and talk to it. *)
  let server =
    Service.Server.start ~workers:1 (Service.Net.Tcp ("127.0.0.1", 0))
  in
  (match Service.Server.bound_addr server with
  | Service.Net.Tcp (host, port) ->
      Alcotest.(check string) "bound host" "127.0.0.1" host;
      Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      let line = Json.to_string (Protocol.ping ~id:"h2") ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      let ic = Unix.in_channel_of_descr fd in
      (match Protocol.decode_response_line (input_line ic) with
      | Ok (Protocol.Pong { id }) ->
          Alcotest.(check string) "pong id" "h2" id
      | Ok _ -> Alcotest.fail "expected a pong"
      | Error e -> Alcotest.failf "undecodable response: %s" e);
      Unix.close fd
  | Service.Net.Unix_socket _ ->
      Alcotest.fail "TCP server must report a TCP bound address");
  Service.Server.stop server;
  Service.Server.wait server

let test_server_sigterm_drains () =
  (* The real signal path: serve in a background domain, deliver an
     actual SIGTERM to the process, and require serve to return after
     answering the in-flight request. *)
  let dir = temp_dir () in
  let sock = Filename.concat dir "tta.sock" in
  let ready = Atomic.make false in
  let served =
    Domain.spawn (fun () ->
        Service.Server.serve ~workers:1 ~grace:2.0
          ~on_ready:(fun _ -> Atomic.set ready true)
          (Service.Net.Unix_socket sock))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let line =
    Json.to_string
      (Protocol.request ~id:"s1" ~config:"full-shifting" ~nodes
         ~engine:"explicit" ~depth:60 ())
    ^ "\n"
  in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.sleepf 0.2;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* serve must drain and return; the accepted request must have been
     answered (conclusively or as a shutdown cancellation) before the
     connection died. *)
  Domain.join served;
  let ic = Unix.in_channel_of_descr fd in
  (match Protocol.decode_response_line (input_line ic) with
  | Ok (Protocol.Answer { id = "s1"; _ }) -> ()
  | Ok r ->
      Alcotest.failf "unexpected response %s"
        (Json.to_string (Protocol.encode_response r))
  | Error e -> Alcotest.failf "undecodable response: %s" e);
  Unix.close fd

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
          Alcotest.test_case "request golden" `Quick test_request_golden;
          Alcotest.test_case "response golden" `Quick test_response_golden;
          Alcotest.test_case "pre-session response compatible" `Quick
            test_response_presession_compat;
          Alcotest.test_case "error codes golden" `Quick
            test_error_codes_golden;
          Alcotest.test_case "degraded golden" `Quick test_degraded_golden;
          Alcotest.test_case "response roundtrip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "request validation" `Quick
            test_request_validation;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "identical requests coalesce" `Quick
            test_scheduler_coalesces_identical;
          Alcotest.test_case "family partitions coalescing" `Quick
            test_scheduler_family_partitions_coalescing;
          Alcotest.test_case "warm cache answers at admission" `Quick
            test_scheduler_cache_hit;
          Alcotest.test_case "one cache probe per cold request" `Quick
            test_scheduler_one_probe_per_request;
          Alcotest.test_case "expired deadline skips the run" `Quick
            test_scheduler_expired_deadline_skips_run;
          Alcotest.test_case "admission control sheds over cap" `Quick
            test_scheduler_sheds_over_cap;
          Alcotest.test_case "drain answers everything" `Quick
            test_scheduler_drain_answers_everything;
          Alcotest.test_case "crashing engines still answered" `Quick
            test_scheduler_crash_still_answers;
          Alcotest.test_case "warm sessions serve near-miss requests" `Quick
            test_scheduler_warm_sessions;
          Alcotest.test_case "names of one system coalesce" `Quick
            test_scheduler_names_of_one_system_coalesce;
        ] );
      ( "net",
        [
          Alcotest.test_case "address round-trip" `Quick
            test_net_addr_roundtrip;
          Alcotest.test_case "readiness golden" `Quick test_net_ready_golden;
          Alcotest.test_case "readiness round-trip" `Quick
            test_net_ready_roundtrip;
          Alcotest.test_case "splitter keeps partial lines" `Quick
            test_net_split_lines;
          Alcotest.test_case "read_line returns the unterminated tail" `Quick
            test_net_read_line;
          Alcotest.test_case "listener not inherited by a child" `Quick
            test_net_listener_not_inherited;
          Alcotest.test_case "accepted socket not inherited by a child"
            `Quick test_net_accepted_not_inherited;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end with loadgen" `Quick
            test_server_end_to_end;
          Alcotest.test_case "warm sessions change no verdict" `Quick
            test_server_warm_sessions_stream;
          Alcotest.test_case "deadline-dead request degrades with content"
            `Quick test_server_degraded_deadline;
          Alcotest.test_case "loadgen books engine retries" `Quick
            test_loadgen_engine_retry_accounting;
          Alcotest.test_case "loadgen books transport retries" `Quick
            test_loadgen_conn_retry_accounting;
          Alcotest.test_case "chaos answered with retries" `Quick
            test_server_chaos_answers_everything;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_server_rejects_malformed_lines;
          Alcotest.test_case "ping answered with pong" `Quick
            test_server_ping_pong;
          Alcotest.test_case "ephemeral port via bound_addr" `Quick
            test_server_ephemeral_port;
          Alcotest.test_case "SIGTERM drains gracefully" `Quick
            test_server_sigterm_drains;
          Alcotest.test_case "busy address exits 2" `Quick
            test_served_busy_address_exits_2;
        ] );
    ]
