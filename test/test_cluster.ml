(* Cluster layer: ring properties, health timing, readiness parsing,
   id rewriting, restart gating, and an end-to-end router test over
   real worker daemons. *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tta_cluster_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* ------------------------------------------------------------------ *)
(* Ring *)

let names n = List.init n (Printf.sprintf "w%d")
let keys n = List.init n (Printf.sprintf "key-%d")

let test_ring_members () =
  let r = Cluster.Ring.create ~vnodes:8 [ "b"; "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "deduplicated and sorted" [ "a"; "b"; "c" ]
    (Cluster.Ring.members r);
  Alcotest.(check bool) "empty ring" true
    (Cluster.Ring.is_empty (Cluster.Ring.create []));
  Alcotest.(check bool) "empty ring routes nowhere" true
    (Cluster.Ring.route (Cluster.Ring.create []) "k" = None)

let test_ring_singleton () =
  let r = Cluster.Ring.create [ "only" ] in
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "lone member owns everything"
        (Some "only") (Cluster.Ring.route r k))
    (keys 50)

let test_ring_deterministic () =
  let r1 = Cluster.Ring.create (names 5) in
  let r2 = Cluster.Ring.create (List.rev (names 5)) in
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "order of creation irrelevant"
        (Cluster.Ring.route r1 k) (Cluster.Ring.route r2 k))
    (keys 200)

let test_ring_balance () =
  (* 10k keys over 8 workers: every worker takes a share within a
     moderate band of even. The bound is loose enough to be stable
     (the ring is deterministic, so this is really a regression pin on
     the hash quality at 128 vnodes). *)
  let workers = 8 and n_keys = 10_000 in
  let r = Cluster.Ring.create ~vnodes:128 (names workers) in
  let counts = Hashtbl.create workers in
  List.iter
    (fun k ->
      match Cluster.Ring.route r k with
      | None -> Alcotest.fail "non-empty ring must route"
      | Some w ->
          Hashtbl.replace counts w
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts w)))
    (keys n_keys);
  Alcotest.(check int) "every worker owns keys" workers
    (Hashtbl.length counts);
  let mean = float_of_int n_keys /. float_of_int workers in
  Hashtbl.iter
    (fun w c ->
      let ratio = float_of_int c /. mean in
      if ratio < 0.5 || ratio > 1.5 then
        Alcotest.failf "worker %s load %.2fx mean (want within [0.5, 1.5])"
          w ratio)
    counts

let test_ring_remove_remaps_minimally () =
  let r = Cluster.Ring.create ~vnodes:64 (names 8) in
  let r' = Cluster.Ring.remove r "w3" in
  let ks = keys 4_000 in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Option.get (Cluster.Ring.route r k) in
      let after = Option.get (Cluster.Ring.route r' k) in
      if before = "w3" then begin
        incr moved;
        Alcotest.(check bool) "orphaned keys get a new owner" true
          (after <> "w3")
      end
      else
        Alcotest.(check string) "keys of surviving workers do not move"
          before after)
    ks;
  (* Only w3's share moved: about 1/8 of the keyspace. *)
  let frac = float_of_int !moved /. float_of_int (List.length ks) in
  if frac < 0.04 || frac > 0.30 then
    Alcotest.failf "moved fraction %.3f out of expected band" frac

let test_ring_add_remaps_minimally () =
  let r = Cluster.Ring.create ~vnodes:64 (names 8) in
  let r' = Cluster.Ring.add r "w8" in
  let ks = keys 4_000 in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Option.get (Cluster.Ring.route r k) in
      let after = Option.get (Cluster.Ring.route r' k) in
      if before <> after then begin
        incr moved;
        Alcotest.(check string) "moved keys go only to the new member"
          "w8" after
      end)
    ks;
  let frac = float_of_int !moved /. float_of_int (List.length ks) in
  if frac < 0.03 || frac > 0.25 then
    Alcotest.failf "moved fraction %.3f out of expected band" frac

let test_ring_failover_order () =
  (* route with an accept predicate must walk the same order as
     [successors]: dead owner -> next distinct live member. *)
  let r = Cluster.Ring.create ~vnodes:64 (names 4) in
  List.iter
    (fun k ->
      match Cluster.Ring.successors r k with
      | owner :: next :: _ ->
          Alcotest.(check (option string)) "owner is the route" (Some owner)
            (Cluster.Ring.route r k);
          Alcotest.(check (option string)) "failover = next on the ring"
            (Some next)
            (Cluster.Ring.route ~accept:(fun w -> w <> owner) r k);
          Alcotest.(check (option string)) "two down, third takes over"
            (List.nth_opt (Cluster.Ring.successors r k) 2)
            (Cluster.Ring.route
               ~accept:(fun w -> w <> owner && w <> next)
               r k)
      | _ -> Alcotest.fail "4-member ring must list >= 2 successors")
    (keys 100);
  List.iter
    (fun k ->
      let succ = Cluster.Ring.successors r k in
      Alcotest.(check int) "successors cover the membership" 4
        (List.length succ);
      Alcotest.(check (list string)) "successors are distinct"
        (List.sort_uniq compare succ)
        (List.sort compare succ))
    (keys 20)

(* ------------------------------------------------------------------ *)
(* Health *)

let test_health_timing () =
  let h = Cluster.Health.create ~interval:1.0 ~timeout:3.0 ~now:0.0 "w0" in
  Alcotest.(check (option string)) "not due yet" None
    (Cluster.Health.next_ping ~now:0.5 h);
  (match Cluster.Health.next_ping ~now:1.0 h with
  | Some id ->
      Alcotest.(check bool) "heartbeat namespace" true
        (Cluster.Health.is_ping_id id);
      (* An unanswered probe does not hold back the next one: the
         first ping or its pong may be lost. *)
      Alcotest.(check (option string)) "not due within the interval" None
        (Cluster.Health.next_ping ~now:1.5 h);
      let id2 = Cluster.Health.next_ping ~now:2.0 h in
      Alcotest.(check bool) "a fresh probe while the first is unanswered" true
        (id2 <> None && id2 <> Some id);
      (* A never-issued id changes nothing. *)
      Cluster.Health.pong ~now:2.0 h "hb:w0:999";
      Alcotest.(check bool) "still overdue later without a real pong" true
        (Cluster.Health.overdue ~now:3.5 h);
      (* The older probe's pong still proves life. *)
      Cluster.Health.pong ~now:2.0 h id
  | None -> Alcotest.fail "probe due at the interval");
  Alcotest.(check bool) "pong cleared the overdue clock" false
    (Cluster.Health.overdue ~now:4.9 h);
  Alcotest.(check bool) "silence past the timeout is overdue" true
    (Cluster.Health.overdue ~now:5.1 h);
  Alcotest.(check bool) "probes keep their cadence" true
    (Cluster.Health.next_ping ~now:3.0 h <> None);
  Cluster.Health.reset ~now:10.0 h;
  Alcotest.(check bool) "reset clears overdue" false
    (Cluster.Health.overdue ~now:12.9 h);
  (* A pong for a probe issued before the reset is no evidence. *)
  Cluster.Health.pong ~now:13.0 h "hb:w0:3";
  Alcotest.(check bool) "pre-reset pong ignored" true
    (Cluster.Health.overdue ~now:13.1 h)

let test_health_ids_distinct () =
  let h = Cluster.Health.create ~interval:0.5 ~timeout:2.0 ~now:0.0 "w7" in
  let id1 = Option.get (Cluster.Health.next_ping ~now:1.0 h) in
  Cluster.Health.pong ~now:1.1 h id1;
  let id2 = Option.get (Cluster.Health.next_ping ~now:2.0 h) in
  Alcotest.(check bool) "sequence numbers advance" true (id1 <> id2);
  Alcotest.(check bool) "ids name the worker" true
    (String.length id1 > 3 && String.sub id1 3 2 = "w7")

(* ------------------------------------------------------------------ *)
(* Readiness parsing and id rewriting *)

let test_parse_ready () =
  Alcotest.(check bool) "tcp readiness" true
    (Service.Net.parse_ready
       {|{"ready":true,"socket":"127.0.0.1:4321","port":4321}|}
    = Some (Service.Net.Tcp ("127.0.0.1", 4321)));
  Alcotest.(check bool) "unix-socket readiness" true
    (Service.Net.parse_ready {|{"ready":true,"socket":"/tmp/w.sock"}|}
    = Some (Service.Net.Unix_socket "/tmp/w.sock"));
  Alcotest.(check bool) "banner line rejected" true
    (Service.Net.parse_ready "tta_served: listening on ..." = None);
  Alcotest.(check bool) "ready:false rejected" true
    (Service.Net.parse_ready {|{"ready":false,"socket":"x"}|} = None);
  Alcotest.(check bool) "missing socket rejected" true
    (Service.Net.parse_ready {|{"ready":true}|} = None)

let test_rewrite_request_id () =
  let line = {|{"id":"r7","config":"passive","nodes":2,"depth":9}|} in
  (match Cluster.Router.rewrite_request_id line ~id:"q42" with
  | None -> Alcotest.fail "object line must rewrite"
  | Some out ->
      let j = Result.get_ok (Json.of_string out) in
      Alcotest.(check (option string)) "id replaced" (Some "q42")
        (Option.bind (Json.member "id" j) Json.string_value);
      Alcotest.(check (option string)) "payload preserved" (Some "passive")
        (Option.bind (Json.member "config" j) Json.string_value));
  Alcotest.(check bool) "non-object refused" true
    (Cluster.Router.rewrite_request_id "[1,2]" ~id:"q1" = None
    && Cluster.Router.rewrite_request_id "garbage" ~id:"q1" = None)

let test_rewrite_response_line () =
  let line = {|{"id":"q42","status":"ok","verdict":"holds","engine":"bdd"}|} in
  match Cluster.Router.rewrite_response_line line ~id:"r7" ~worker:"w3" with
  | None -> Alcotest.fail "object line must rewrite"
  | Some out -> (
      let j = Result.get_ok (Json.of_string out) in
      Alcotest.(check (option string)) "client id restored" (Some "r7")
        (Option.bind (Json.member "id" j) Json.string_value);
      Alcotest.(check (option string)) "worker attributed" (Some "w3")
        (Option.bind (Json.member "worker" j) Json.string_value);
      Alcotest.(check (option string)) "payload preserved" (Some "holds")
        (Option.bind (Json.member "verdict" j) Json.string_value);
      (* Re-rewriting replaces, never duplicates, the worker field. *)
      match Cluster.Router.rewrite_response_line out ~id:"r8" ~worker:"w4" with
      | None -> Alcotest.fail "rewritten line must rewrite again"
      | Some out2 ->
          let j2 = Result.get_ok (Json.of_string out2) in
          (match j2 with
          | Json.Obj fields ->
              Alcotest.(check int) "single worker field" 1
                (List.length
                   (List.filter (fun (k, _) -> k = "worker") fields))
          | _ -> Alcotest.fail "object expected");
          Alcotest.(check (option string)) "worker updated" (Some "w4")
            (Option.bind (Json.member "worker" j2) Json.string_value))

(* ------------------------------------------------------------------ *)
(* Restart gate *)

let test_restarts_gate () =
  let policy = Resilience.Supervisor.default in
  let gate =
    Resilience.Supervisor.Restarts.create ~max_restarts:3 ~window_s:10.0 ()
  in
  (* Deaths 1..3 inside the window: deterministic escalating backoff,
     exactly the supervisor's schedule. *)
  List.iteri
    (fun i now ->
      match Resilience.Supervisor.Restarts.record ~now gate with
      | `Backoff d ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "death %d backoff" (i + 1))
            (Resilience.Supervisor.backoff_delay policy i)
            d
      | `Give_up -> Alcotest.failf "death %d must not give up" (i + 1))
    [ 0.0; 1.0; 2.0 ];
  (match Resilience.Supervisor.Restarts.record ~now:3.0 gate with
  | `Give_up -> ()
  | `Backoff _ -> Alcotest.fail "4th death in the window must give up");
  (* Outside the window the intensity decays: an old gate recovers. *)
  (match Resilience.Supervisor.Restarts.record ~now:100.0 gate with
  | `Backoff d ->
      Alcotest.(check (float 1e-9)) "window expiry resets the curve"
        (Resilience.Supervisor.backoff_delay policy 0)
        d
  | `Give_up -> Alcotest.fail "deaths outside the window must not count");
  Alcotest.(check int) "only the fresh death remains" 1
    (Resilience.Supervisor.Restarts.count gate)

(* ------------------------------------------------------------------ *)
(* End to end: a real router over real worker daemons *)

let served_exe () =
  let p = Filename.concat (Sys.getcwd ()) "../bin/tta_served.exe" in
  if not (Sys.file_exists p) then
    Alcotest.skip ();
  p

let wait_ready ~timeout_s ~target ready =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while Atomic.get ready < target && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "workers became ready" true
    (Atomic.get ready >= target)

(* ------------------------------------------------------------------ *)
(* Circuit breaker: a pure count-window state machine, tested without
   any processes or clocks. *)

let state_name = function
  | Cluster.Breaker.Closed -> "closed"
  | Cluster.Breaker.Open -> "open"
  | Cluster.Breaker.Half_open -> "half-open"

let check_state msg expected b =
  Alcotest.(check string) msg (state_name expected)
    (state_name (Cluster.Breaker.state b))

let test_breaker_trips_at_threshold () =
  (* window 8, default threshold max 1 (8/2) = 4. *)
  let b = Cluster.Breaker.create ~window:8 () in
  check_state "starts closed" Cluster.Breaker.Closed b;
  Alcotest.(check bool) "closed admits" true (Cluster.Breaker.admits b);
  for _ = 1 to 3 do
    Cluster.Breaker.record b ~ok:false
  done;
  check_state "below threshold stays closed" Cluster.Breaker.Closed b;
  Cluster.Breaker.record b ~ok:false;
  check_state "threshold failure trips" Cluster.Breaker.Open b;
  Alcotest.(check bool) "open refuses" false (Cluster.Breaker.admits b);
  Alcotest.(check int) "one open counted" 1 (Cluster.Breaker.opens b);
  (* Stragglers from requests sent before the trip carry no new
     evidence: they must not disturb the open state. *)
  Cluster.Breaker.record b ~ok:true;
  Cluster.Breaker.record b ~ok:false;
  check_state "stragglers ignored while open" Cluster.Breaker.Open b

let test_breaker_window_slides () =
  (* Failures spread thinly across a sliding window never accumulate
     to the threshold: old outcomes age out. *)
  let b = Cluster.Breaker.create ~window:4 ~threshold:3 () in
  for _ = 1 to 20 do
    Cluster.Breaker.record b ~ok:false;
    Cluster.Breaker.record b ~ok:true;
    Cluster.Breaker.record b ~ok:true
  done;
  check_state "sparse failures stay closed" Cluster.Breaker.Closed b;
  Alcotest.(check int) "never opened" 0 (Cluster.Breaker.opens b);
  (* ...but the same total failure count, adjacent, trips. *)
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.record b ~ok:false;
  check_state "dense failures trip" Cluster.Breaker.Open b

let test_breaker_create_validates () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "window 0 rejected" true
    (invalid (fun () -> Cluster.Breaker.create ~window:0 ()));
  Alcotest.(check bool) "threshold 0 rejected" true
    (invalid (fun () -> Cluster.Breaker.create ~window:4 ~threshold:0 ()));
  Alcotest.(check bool) "threshold > window rejected" true
    (invalid (fun () -> Cluster.Breaker.create ~window:4 ~threshold:5 ()))

let test_breaker_pings_ok_requests_fail () =
  (* The scenario the breaker exists for: the worker process is alive
     and answering health pings, but every request it serves fails.
     Pongs are not request evidence — the breaker must still trip. *)
  let b = Cluster.Breaker.create ~window:6 ~threshold:3 () in
  Cluster.Breaker.note_pong b;
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.note_pong b;
  Cluster.Breaker.record b ~ok:false;
  check_state "pongs do not absolve failures" Cluster.Breaker.Closed b;
  Cluster.Breaker.record b ~ok:false;
  check_state "trips despite healthy pings" Cluster.Breaker.Open b;
  Alcotest.(check bool) "sick-but-alive worker refused" false
    (Cluster.Breaker.admits b)

let test_breaker_half_open_probe () =
  let b = Cluster.Breaker.create ~window:4 ~threshold:2 () in
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.record b ~ok:false;
  check_state "tripped" Cluster.Breaker.Open b;
  (* A pong is the evidence that reopens the door — to exactly one
     probe request. *)
  Cluster.Breaker.note_pong b;
  check_state "pong moves open to half-open" Cluster.Breaker.Half_open b;
  Alcotest.(check bool) "half-open admits the probe" true
    (Cluster.Breaker.admits b);
  Cluster.Breaker.probe_started b;
  Alcotest.(check bool) "no second request while probing" false
    (Cluster.Breaker.admits b);
  (* Probe succeeds: circuit closes and traffic resumes. *)
  Cluster.Breaker.record b ~ok:true;
  check_state "probe success closes" Cluster.Breaker.Closed b;
  Alcotest.(check bool) "closed again admits" true (Cluster.Breaker.admits b);
  Alcotest.(check int) "still one open" 1 (Cluster.Breaker.opens b)

let test_breaker_probe_failure_reopens () =
  let b = Cluster.Breaker.create ~window:4 ~threshold:2 () in
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.note_pong b;
  Cluster.Breaker.probe_started b;
  Cluster.Breaker.record b ~ok:false;
  check_state "probe failure re-opens" Cluster.Breaker.Open b;
  Alcotest.(check int) "second open counted" 2 (Cluster.Breaker.opens b);
  (* The cycle repeats: another pong earns another single probe. *)
  Cluster.Breaker.note_pong b;
  check_state "pong re-arms the probe" Cluster.Breaker.Half_open b;
  Cluster.Breaker.probe_started b;
  Cluster.Breaker.record b ~ok:true;
  check_state "eventual success closes" Cluster.Breaker.Closed b

let test_breaker_reset_on_respawn () =
  let b = Cluster.Breaker.create ~window:4 ~threshold:2 () in
  Cluster.Breaker.record b ~ok:false;
  Cluster.Breaker.record b ~ok:false;
  check_state "tripped before respawn" Cluster.Breaker.Open b;
  (* The supervisor replaced the process: clean slate, but the
     lifetime trip count survives for stats. *)
  Cluster.Breaker.reset b;
  check_state "reset closes" Cluster.Breaker.Closed b;
  Alcotest.(check bool) "fresh worker admits" true (Cluster.Breaker.admits b);
  Alcotest.(check int) "opens survive reset" 1 (Cluster.Breaker.opens b);
  (* And the window really is fresh: one failure is again below the
     threshold. *)
  Cluster.Breaker.record b ~ok:false;
  check_state "window restarted clean" Cluster.Breaker.Closed b

let test_router_end_to_end () =
  let exe = served_exe () in
  let dir = temp_dir () in
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let ready = Atomic.make 0 in
  let router =
    Cluster.Router.start
      ~on_event:(function
        | Cluster.Router.Worker_ready _ -> Atomic.incr ready
        | _ -> ())
      ~exe
      ~worker_args:
        [ "--cache-dir"; Filename.concat dir "cache"; "--workers"; "1" ]
      ~workers:2 addr
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.stop router;
      Cluster.Router.wait router)
    (fun () ->
      wait_ready ~timeout_s:20.0 ~target:2 ready;
      let report =
        Service.Loadgen.run ~seed:3 ~nodes_choices:[ 2 ] ~depths:[ 2; 3; 4 ]
          ~configs:[ "passive"; "time-windows"; "small-shifting" ]
          ~engines:[ "bdd" ]
          ~mode:(Service.Loadgen.Closed_loop 3) ~requests:12 addr
      in
      Alcotest.(check int) "every request answered" 12
        report.Service.Loadgen.ok;
      Alcotest.(check int) "no protocol errors" 0
        report.Service.Loadgen.protocol_errors;
      (* Responses carry worker attribution added by the router. *)
      Alcotest.(check int) "responses attributed to workers" 12
        (List.fold_left
           (fun acc (_, n) -> acc + n)
           0 report.Service.Loadgen.per_worker);
      let s = Cluster.Router.stats router in
      Alcotest.(check int) "router forwarded everything it answered" 12
        (List.fold_left
           (fun acc (_, n) -> acc + n)
           0 s.Cluster.Router.forwarded))

(* One seeded 100-request stream at conclusive depths, pushed through a
   faulty router by the failover and partition cases. *)
let stream ~concurrency addr =
  Service.Loadgen.run ~seed:11 ~nodes_choices:[ 2; 3 ] ~depths:[ 32; 36; 40 ]
    ~retry_budget:3 ~mode:(Service.Loadgen.Closed_loop concurrency)
    ~requests:100 addr

(* Its verdict reference: the same stream against one in-process
   daemon, run once for both cases. *)
let reference =
  lazy
    (let dir = temp_dir () in
     let server =
       Service.Server.start ~workers:1
         ~cache:(Portfolio.Cache.create ~dir:(Filename.concat dir "cache") ())
         (Service.Net.Unix_socket (Filename.concat dir "ref.sock"))
     in
     let r =
       Fun.protect
         ~finally:(fun () ->
           Service.Server.stop server;
           Service.Server.wait server)
         (fun () -> stream ~concurrency:8 (Service.Server.bound_addr server))
     in
     let open Service.Loadgen in
     Alcotest.(check (pair int int)) "reference: ok == requests == 100"
       (100, 100) (r.ok, r.requests);
     Alcotest.(check int) "reference: unknown == 0 (conclusive depths)" 0
       r.unknown;
     r)

let test_router_failover_mid_stream () =
  (* The stream through a 4-worker router whose worker receiving the
     30th forwarded leg is SIGKILLed by this test. Zero lost requests,
     zero protocol errors, verdicts identical to the reference, and the
     death and respawn really happen. *)
  let exe = served_exe () in
  let reference = Lazy.force reference in
  let dir = temp_dir () in
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let ready = Atomic.make 0 in
  let spawns = Atomic.make 0 in
  (* Loop-domain state, touched only from [on_event]. *)
  let pids = Hashtbl.create 8 and legs = ref 0 and victim = ref None in
  let victim_exited = Atomic.make false in
  let on_event = function
    | Cluster.Router.Worker_spawned { name; pid } ->
        Atomic.incr spawns;
        Hashtbl.replace pids name pid
    | Cluster.Router.Worker_ready _ -> Atomic.incr ready
    | Cluster.Router.Forwarded { worker; _ } ->
        incr legs;
        if !legs = 30 then begin
          victim := Some worker;
          Unix.kill (Hashtbl.find pids worker) Sys.sigkill
        end
    | Cluster.Router.Worker_exited { name; _ } ->
        if !victim = Some name then Atomic.set victim_exited true
    | _ -> ()
  in
  let router =
    Cluster.Router.start ~on_event ~exe
      ~worker_args:
        [ "--cache-dir"; Filename.concat dir "cache"; "--workers"; "1" ]
      ~workers:4 addr
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Cluster.Router.stop router;
        Cluster.Router.wait router)
      (fun () ->
        wait_ready ~timeout_s:20.0 ~target:4 ready;
        stream ~concurrency:8 addr)
  in
  let open Service.Loadgen in
  Alcotest.(check (pair int int)) "cluster: ok == requests == 100" (100, 100)
    (r.ok, r.requests);
  Alcotest.(check int) "cluster: protocol_errors == 0" 0 r.protocol_errors;
  Alcotest.(check (list int)) "holds/violated/unknown equal the reference"
    [ reference.holds; reference.violated; reference.unknown ]
    [ r.holds; r.violated; r.unknown ];
  Alcotest.(check bool) "answers came from >= 2 workers" true
    (List.length r.per_worker >= 2);
  Alcotest.(check bool) "kill observed: the victim's Worker_exited" true
    (Atomic.get victim_exited);
  Alcotest.(check bool) "spawns >= workers + 1 (victim respawned)" true
    (Atomic.get spawns >= 5)

(* Seeded link chaos on the router's worker legs: lines lost in both
   directions, requests, responses and heartbeats alike. *)
let partition_spec = "11:link_recv=drop@0.08x12,link_send=drop@0.05x8"

let test_router_partition () =
  (* The stream through a 4-worker router with warm sessions, hedging
     and breakers, whose worker links drop lines under
     [partition_spec]. Partitions may cost latency and completeness,
     never answers: no request lost, every conclusive verdict the
     reference's, and the drops and hedges really happen. A 1.5 s
     health timeout puts the retransmit net for a request whose every
     leg was lost at 4.5 s instead of 9 s. *)
  let exe = served_exe () in
  let reference = Lazy.force reference in
  let dir = temp_dir () in
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let faults = Result.get_ok (Resilience.Faults.of_spec partition_spec) in
  let ready = Atomic.make 0 in
  let router =
    Cluster.Router.start ~faults ~hedge_ms:400 ~breaker_window:8
      ~max_restarts:10 ~health_timeout:1.5
      ~on_event:(function
        | Cluster.Router.Worker_ready _ -> Atomic.incr ready
        | _ -> ())
      ~exe
      ~worker_args:
        [ "--cache-dir"; Filename.concat dir "cache"; "--workers"; "1";
          "--sessions"; "--chaos"; partition_spec ]
      ~workers:4 addr
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Cluster.Router.stop router;
        Cluster.Router.wait router)
      (fun () ->
        wait_ready ~timeout_s:20.0 ~target:4 ready;
        stream ~concurrency:6 addr)
  in
  let open Service.Loadgen in
  Alcotest.(check int) "protocol_errors == 0" 0 r.protocol_errors;
  Alcotest.(check (pair int int)) "ok + degraded == requests == 100"
    (100, 100) (r.ok + r.degraded, r.requests);
  Alcotest.(check bool) "conclusive + degraded >= 95" true
    (r.holds + r.violated + r.degraded >= 95);
  Alcotest.(check int) "unknown == 0" 0 r.unknown;
  Alcotest.(check bool) "holds <= the reference's" true
    (r.holds <= reference.holds);
  Alcotest.(check bool) "violated <= the reference's" true
    (r.violated <= reference.violated);
  if r.degraded = 0 then
    Alcotest.(check (list int)) "no degraded: verdicts equal the reference"
      [ reference.holds; reference.violated; reference.unknown ]
      [ r.holds; r.violated; r.unknown ];
  Alcotest.(check bool) "the chaos spec is armed" true
    (Resilience.Faults.enabled faults);
  Alcotest.(check (list string)) "both link points fired"
    [ "link_recv.drop"; "link_send.drop" ]
    (List.filter_map
       (fun (rule, n) -> if n > 0 then Some rule else None)
       (Resilience.Faults.injections faults));
  Alcotest.(check bool) "hedged > 0" true
    (r.hedged > 0 || (Cluster.Router.stats router).Cluster.Router.hedged > 0)

let test_router_fails_parked_when_fleet_gives_up () =
  (* A request that arrives while no worker is live parks; when the
     last worker then exhausts its restart gate (here: a worker binary
     that always exits before becoming ready), nobody is ever coming
     back for it, so it must be answered engine_failed rather than
     stranded. *)
  let dir = temp_dir () in
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let router =
    Cluster.Router.start ~exe:"/bin/false" ~worker_args:[] ~workers:1
      ~max_restarts:3 addr
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.stop router;
      Cluster.Router.wait router)
    (fun () ->
      let fd = Service.Net.connect addr in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Service.Net.write_all fd
            (Json.to_string
               (Service.Protocol.request ~id:"stranded" ~config:"passive"
                  ~nodes:2 ~engine:"bdd" ())
            ^ "\n");
          let readable, _, _ = Unix.select [ fd ] [] [] 5.0 in
          Alcotest.(check bool) "answered within 5 s" true (readable <> []);
          match
            Option.map Service.Protocol.decode_response_line
              (Service.Net.read_line (Service.Net.reader fd))
          with
          | Some (Ok (Service.Protocol.Error { id; code; _ })) ->
              Alcotest.(check (option string)) "the parked request's id"
                (Some "stranded") id;
              Alcotest.(check string) "engine_failed"
                Service.Protocol.code_engine_failed code
          | _ -> Alcotest.fail "expected an engine_failed error response"))

(* ------------------------------------------------------------------ *)
(* The dispatch core in virtual time: [Dispatch.step] driven directly
   by a fake fleet and a fake clock — no sockets, processes or sleeps.
   Clients are ints; client [i]'s request id is ["c<i>"]. *)

module D = Cluster.Dispatch
module P = Service.Protocol

let wire r = String.trim (P.response_line r)

let answer_line qid =
  wire
    (P.Answer
       {
         id = qid;
         verdict = P.Holds { detail = "fake" };
         engine = "bdd";
         cache_hit = false;
         coalesced = false;
         wall_ms = 1.0;
         queue_ms = 0.0;
         reused_session = false;
         warm_depth = 0;
       })

let failure_line qid =
  wire
    (P.Error
       { id = Some qid; code = P.code_engine_failed; reason = "fake sickness" })

let line_id line = Option.get (P.request_id_of_line line)
let client_of id = Scanf.sscanf id "c%d" Fun.id

(* The fake fleet: a spawned worker is ready 10 ms later, pongs every
   ping at once, and answers a request as [answer] says — after a
   delay, or never. A terminated worker's owed lines are lost. *)
type world = {
  core : int D.t;
  mutable clock : int;  (** 5 ms steps *)
  mutable log : (float * int D.output) list;  (** newest first *)
  mutable due : (float * int D.input) list;  (** owed inputs, oldest first *)
  mutable up : string list;
  mutable answer : string -> string -> (float * string) option;
      (** worker -> router id -> (delay, line) *)
}

let now w = float_of_int w.clock *. 0.005

let make ~workers ~hedge_ms ~breaker_window ~faults =
  {
    core =
      D.create ~vnodes:64 ~max_restarts:5 ~restart_window_s:30.0
        ~health_interval:0.5 ~health_timeout:3.0 ~grace:10.0 ~faults ~hedge_ms
        ~breaker_window ~workers;
    clock = 0;
    log = [];
    due = [];
    up = [];
    answer = (fun _ qid -> Some (0.1, answer_line qid));
  }

let owe w delay input = w.due <- w.due @ [ (now w +. delay, input) ]

let rec feed w input = List.iter (react w) (D.step w.core ~now:(now w) input)

and react w o =
  w.log <- (now w, o) :: w.log;
  match o with
  | D.Spawn name ->
      w.up <- name :: w.up;
      owe w 0.01 (D.Ready { worker = name; addr = "fake:" ^ name })
  | D.Terminate name -> down w name
  | D.Send { worker; line } when List.mem worker w.up -> (
      let id = line_id line in
      if Cluster.Health.is_ping_id id then
        owe w 0.0 (D.Line { worker; line = wire (P.Pong { id }) })
      else
        match w.answer worker id with
        | Some (delay, line) -> owe w delay (D.Line { worker; line })
        | None -> ())
  | _ -> ()

and down w name =
  w.up <- List.filter (( <> ) name) w.up;
  w.due <-
    List.filter
      (fun (_, i) ->
        match i with
        | D.Line { worker; _ } | D.Ready { worker; _ } -> worker <> name
        | _ -> true)
      w.due

(* Client [i]'s request, [at] seconds from now; [i mod 16] picks its
   routing key. *)
let request w ~at i =
  owe w at
    (D.Request
       {
         client = i;
         id = Printf.sprintf "c%d" i;
         line = Printf.sprintf {|{"id":"c%d","config":"passive","depth":%d}|} i i;
         key = Printf.sprintf "key-%d" (i mod 16);
       })

(* Advance to [until]: each 5 ms step feeds the inputs now due, then a
   tick, then runs [after_step]. *)
let run w ~until ~after_step =
  while now w < until -. 1e-9 do
    w.clock <- w.clock + 1;
    let due, later =
      List.partition (fun (at, _) -> at <= now w +. 1e-9) w.due
    in
    w.due <- later;
    List.iter (fun (_, i) -> feed w i) due;
    feed w D.Tick;
    after_step ()
  done

let outputs w = List.rev w.log

let events w =
  List.filter_map (function at, D.Event e -> Some (at, e) | _ -> None) (outputs w)

let replies w =
  List.filter_map
    (function
      | _, D.Reply { client; line } ->
          Some (client, Result.get_ok (Json.of_string line))
      | _ -> None)
    (outputs w)

(* Request lines written to workers (pings left out). *)
let sends w =
  List.filter_map
    (function
      | at, D.Send { worker; line }
        when not (Cluster.Health.is_ping_id (line_id line)) ->
          Some (at, worker)
      | _ -> None)
    (outputs w)

let forwarded w =
  List.filter_map
    (function at, D.Forwarded { id; worker } -> Some (at, id, worker) | _ -> None)
    (events w)

let rerouted_ids w =
  List.filter_map (function _, D.Rerouted { id; _ } -> Some id | _ -> None) (events w)

let field k j = Option.bind (Json.member k j) Json.string_value

let check_one_reply_each w n =
  let rs = replies w in
  for i = 0 to n - 1 do
    match List.filter (fun (c, _) -> c = i) rs with
    | [ (_, j) ] ->
        Alcotest.(check (option string)) "reply carries its own id"
          (Some (Printf.sprintf "c%d" i)) (field "id" j);
        Alcotest.(check bool) "reply names its worker" true
          (field "worker" j <> None)
    | l -> Alcotest.failf "client %d got %d replies" i (List.length l)
  done;
  Alcotest.(check int) "no other replies" n (List.length rs)

let test_dispatch_kill_mid_stream () =
  let w =
    make ~workers:4 ~hedge_ms:0 ~breaker_window:0
      ~faults:Resilience.Faults.disabled
  in
  run w ~until:0.05 ~after_step:ignore;
  for i = 0 to 99 do
    request w ~at:(0.01 *. float_of_int i) i
  done;
  (* The worker receiving the 30th request line dies right after it;
     its orphans are the requests it still owed an answer. *)
  let death = ref None in
  run w ~until:3.0 ~after_step:(fun () ->
      if !death = None && List.length (sends w) >= 30 then begin
        let _, victim = List.nth (sends w) 29 in
        let answered = List.map fst (replies w) in
        let orphans =
          List.filter_map
            (fun (_, id, wn) ->
              if wn = victim && not (List.mem (client_of id) answered) then
                Some id
              else None)
            (forwarded w)
        in
        death :=
          Some (victim, now w, List.length w.log, List.sort compare orphans);
        down w victim;
        feed w (D.Died { worker = victim; reason = "killed" })
      end);
  let victim, died_at, cut, orphans = Option.get !death in
  check_one_reply_each w 100;
  Alcotest.(check bool) "the death orphaned requests" true (orphans <> []);
  Alcotest.(check (list string)) "one Rerouted per orphaned request" orphans
    (List.sort compare (rerouted_ids w));
  let backoff =
    List.find_map
      (function
        | _, D.Worker_backoff { name; delay_s } when name = victim ->
            Some delay_s
        | _ -> None)
      (events w)
  in
  let respawn =
    List.find_map
      (function
        | at, D.Spawn n when n = victim && at > died_at -> Some at | _ -> None)
      (outputs w)
  in
  (match (backoff, respawn) with
  | Some d, Some at ->
      Alcotest.(check bool) "respawn waits out the backoff" true
        (at >= died_at +. d && at < died_at +. d +. 0.0051)
  | _ -> Alcotest.fail "the victim was not respawned");
  (* Outputs after the death, up to the victim's next ready. *)
  let rec until_ready = function
    | [] -> Alcotest.fail "the victim never came back"
    | (_, D.Event (D.Worker_ready { name; _ })) :: _ when name = victim -> []
    | o :: rest -> o :: until_ready rest
  in
  let after_death = List.filteri (fun i _ -> i >= cut) (outputs w) in
  Alcotest.(check int) "no line to the victim between death and ready" 0
    (List.length
       (List.filter
          (function _, D.Send { worker; _ } -> worker = victim | _ -> false)
          (until_ready after_death)))

let test_dispatch_hedge () =
  let w =
    make ~workers:2 ~hedge_ms:100 ~breaker_window:0
      ~faults:Resilience.Faults.disabled
  in
  run w ~until:0.05 ~after_step:ignore;
  (* The first leg's worker never answers by itself; the other answers
     in 20 ms. *)
  let slow = ref None and slow_qid = ref "" in
  w.answer <-
    (fun worker qid ->
      if !slow = None then slow := Some worker;
      if !slow = Some worker then (slow_qid := qid; None)
      else Some (0.02, answer_line qid));
  request w ~at:0.0 0;
  run w ~until:0.5 ~after_step:ignore;
  let slow = Option.get !slow in
  match (sends w, replies w) with
  | [ (t0, w0); (t1, w1) ], [ (0, j) ] ->
      Alcotest.(check string) "first leg on the slow worker" slow w0;
      Alcotest.(check bool) "hedge leg elsewhere" true (w1 <> slow);
      Alcotest.(check bool) "hedged after hedge_s" true
        (t1 -. t0 >= 0.1 && t1 -. t0 < 0.1051);
      Alcotest.(check (list string)) "one Hedged event" [ w1 ]
        (List.filter_map
           (function _, D.Hedged { worker; _ } -> Some worker | _ -> None)
           (events w));
      Alcotest.(check (option string)) "the fast answer wins" (Some w1)
        (field "worker" j);
      Alcotest.(check (option bool)) "marked hedged" (Some true)
        (Option.bind (Json.member "hedged" j) Json.bool_value);
      Alcotest.(check int) "the loser's late answer produces no output" 0
        (List.length
           (D.step w.core ~now:(now w)
              (D.Line { worker = slow; line = answer_line !slow_qid })))
  | s, r ->
      Alcotest.failf "expected 2 legs and 1 reply, got %d and %d"
        (List.length s) (List.length r)

let test_dispatch_dropped_send () =
  let faults =
    Result.get_ok (Resilience.Faults.of_spec "1:link_send=dropx1")
  in
  let w = make ~workers:2 ~hedge_ms:0 ~breaker_window:0 ~faults in
  run w ~until:0.05 ~after_step:ignore;
  request w ~at:0.0 0;
  run w ~until:10.0 ~after_step:ignore;
  check_one_reply_each w 1;
  match forwarded w with
  | [ (t0, _, w0); (t1, _, w1) ] ->
      Alcotest.(check bool) "re-dispatched after 3 x health_timeout" true
        (t1 -. t0 > 9.0 && t1 -. t0 < 9.0051);
      Alcotest.(check string) "to the same, still live, worker" w0 w1;
      Alcotest.(check (list string)) "the retransmit counts as Rerouted"
        [ "c0" ] (rerouted_ids w);
      Alcotest.(check int) "no worker died" 0
        (List.length
           (List.filter
              (function _, D.Worker_exited _ -> true | _ -> false)
              (events w)));
      Alcotest.(check int) "only the second leg reached the wire" 1
        (List.length (sends w))
  | l -> Alcotest.failf "expected 2 legs, got %d" (List.length l)

let test_dispatch_breaker () =
  let w =
    make ~workers:2 ~hedge_ms:0 ~breaker_window:4
      ~faults:Resilience.Faults.disabled
  in
  run w ~until:0.05 ~after_step:ignore;
  (* Every request has routing key key-0, so all belong to one shard;
     its worker fails every request until [healed]. Window 4 trips at
     2 failures. *)
  let sick = ref None and healed = ref false in
  w.answer <-
    (fun worker qid ->
      if !sick = None then sick := Some worker;
      if !sick = Some worker && not !healed then Some (0.01, failure_line qid)
      else Some (0.01, answer_line qid));
  request w ~at:0.0 0;
  request w ~at:0.05 16;
  request w ~at:0.15 32;
  run w ~until:0.3 ~after_step:ignore;
  let sick = Option.get !sick in
  Alcotest.(check (list string)) "two failures trip the breaker" [ sick ]
    (List.filter_map
       (function _, D.Breaker_opened { name } -> Some name | _ -> None)
       (events w));
  (* The next health pong (at ~0.52 s) moves it to half-open: one probe
     goes to it, a request arriving while the probe is out goes around
     it, and the probe's success closes the circuit. *)
  healed := true;
  request w ~at:0.3 48;
  request w ~at:0.3 64;
  request w ~at:0.4 80;
  run w ~until:1.0 ~after_step:ignore;
  let other = if sick = "w0" then "w1" else "w0" in
  Alcotest.(check (list (pair string string)))
    "routes: sick, sick, around, probe, around, restored"
    [
      ("c0", sick); ("c16", sick); ("c32", other); ("c48", sick);
      ("c64", other); ("c80", sick);
    ]
    (List.map (fun (_, id, wn) -> (id, wn)) (forwarded w));
  Alcotest.(check (list string)) "the probe closes the breaker" [ sick ]
    (List.filter_map
       (function _, D.Breaker_closed { name } -> Some name | _ -> None)
       (events w));
  Alcotest.(check int) "every request answered once" 6 (List.length (replies w))

let test_dispatch_delayed_send_dies_with_its_connection () =
  (* A request line held back 400 ms by a link delay must not be
     written to the worker's next incarnation: the first respawn comes
     50-75 ms after the death, and the leg has already been
     re-dispatched by then. *)
  let faults =
    Result.get_ok (Resilience.Faults.of_spec "1:link_send=delay400x1")
  in
  let w = make ~workers:1 ~hedge_ms:0 ~breaker_window:0 ~faults in
  run w ~until:0.05 ~after_step:ignore;
  request w ~at:0.0 0;
  run w ~until:0.06 ~after_step:ignore;
  Alcotest.(check int) "the first leg is held back" 0 (List.length (sends w));
  let died_at = now w in
  down w "w0";
  feed w (D.Died { worker = "w0"; reason = "killed" });
  run w ~until:1.0 ~after_step:ignore;
  let ready_again =
    List.find_map
      (function
        | at, D.Worker_ready _ when at > died_at -> Some at | _ -> None)
      (events w)
    |> Option.get
  in
  (match sends w with
  | [ (at, "w0") ] ->
      Alcotest.(check bool) "the one request line is the re-dispatch" true
        (at >= ready_again)
  | s -> Alcotest.failf "expected 1 request line, got %d" (List.length s));
  Alcotest.(check bool) "its due time has passed" true (now w > 0.055 +. 0.4);
  check_one_reply_each w 1;
  Alcotest.(check (list string)) "answered through re-dispatch" [ "c0" ]
    (rerouted_ids w)

(* [partition_spec] on a fleet that never dies: lost request, response,
   ping and pong lines may cost latency (hedges, retransmits), never an
   answer, and never a live worker. *)
let test_dispatch_partition () =
  let faults = Result.get_ok (Resilience.Faults.of_spec partition_spec) in
  let w = make ~workers:4 ~hedge_ms:400 ~breaker_window:8 ~faults in
  run w ~until:0.05 ~after_step:ignore;
  for i = 0 to 99 do
    request w ~at:(0.1 *. float_of_int i) i
  done;
  run w ~until:40.0 ~after_step:ignore;
  check_one_reply_each w 100;
  Alcotest.(check (list (pair string int))) "both link points fired"
    [ ("link_recv.drop", 12); ("link_send.drop", 8) ]
    (Resilience.Faults.injections faults);
  Alcotest.(check (list string)) "no live worker declared dead" []
    (List.filter_map
       (function
         | _, D.Worker_exited { name; reason } -> Some (name ^ ": " ^ reason)
         | _ -> None)
       (events w));
  Alcotest.(check bool) "lost lines were hedged" true
    (List.exists (function _, D.Hedged _ -> true | _ -> false) (events w))

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "members" `Quick test_ring_members;
          Alcotest.test_case "singleton" `Quick test_ring_singleton;
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "balance across 8 workers" `Quick
            test_ring_balance;
          Alcotest.test_case "remove remaps minimally" `Quick
            test_ring_remove_remaps_minimally;
          Alcotest.test_case "add remaps minimally" `Quick
            test_ring_add_remaps_minimally;
          Alcotest.test_case "failover order" `Quick test_ring_failover_order;
        ] );
      ( "health",
        [
          Alcotest.test_case "probe timing" `Quick test_health_timing;
          Alcotest.test_case "probe ids" `Quick test_health_ids_distinct;
        ] );
      ( "wire",
        [
          Alcotest.test_case "parse readiness" `Quick test_parse_ready;
          Alcotest.test_case "rewrite request id" `Quick
            test_rewrite_request_id;
          Alcotest.test_case "rewrite response line" `Quick
            test_rewrite_response_line;
        ] );
      ( "supervision",
        [ Alcotest.test_case "restart gate" `Quick test_restarts_gate ] );
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick
            test_breaker_trips_at_threshold;
          Alcotest.test_case "window slides" `Quick test_breaker_window_slides;
          Alcotest.test_case "create validates" `Quick
            test_breaker_create_validates;
          Alcotest.test_case "pings ok, requests fail" `Quick
            test_breaker_pings_ok_requests_fail;
          Alcotest.test_case "half-open probe" `Quick
            test_breaker_half_open_probe;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
          Alcotest.test_case "reset on respawn" `Quick
            test_breaker_reset_on_respawn;
        ] );
      ( "router",
        [
          Alcotest.test_case "end to end" `Quick test_router_end_to_end;
          Alcotest.test_case "failover mid-stream" `Quick
            test_router_failover_mid_stream;
          Alcotest.test_case "partition mid-stream" `Quick
            test_router_partition;
          Alcotest.test_case "parked request fails once the fleet gives up"
            `Quick test_router_fails_parked_when_fleet_gives_up;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "worker killed mid-stream" `Quick
            test_dispatch_kill_mid_stream;
          Alcotest.test_case "hedge: first answer wins" `Quick
            test_dispatch_hedge;
          Alcotest.test_case "dropped send is retransmitted" `Quick
            test_dispatch_dropped_send;
          Alcotest.test_case "breaker trips, probes, closes" `Quick
            test_dispatch_breaker;
          Alcotest.test_case "delayed send dies with its connection" `Quick
            test_dispatch_delayed_send_dies_with_its_connection;
          Alcotest.test_case "link drops cost no answer and no worker" `Quick
            test_dispatch_partition;
        ] );
    ]
