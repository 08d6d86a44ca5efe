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
      (* One probe in flight at a time. *)
      Alcotest.(check (option string)) "no second probe" None
        (Cluster.Health.next_ping ~now:2.5 h);
      (* A foreign pong changes nothing. *)
      Cluster.Health.pong ~now:2.0 h "hb:w0:999";
      Alcotest.(check bool) "still overdue later without the real pong" true
        (Cluster.Health.overdue ~now:3.5 h);
      Cluster.Health.pong ~now:2.0 h id
  | None -> Alcotest.fail "probe due at the interval");
  Alcotest.(check bool) "pong cleared the overdue clock" false
    (Cluster.Health.overdue ~now:4.9 h);
  Alcotest.(check bool) "silence past the timeout is overdue" true
    (Cluster.Health.overdue ~now:5.1 h);
  (* After the pong the next probe re-arms off the last send. *)
  Alcotest.(check bool) "probe cycle re-arms" true
    (Cluster.Health.next_ping ~now:2.1 h <> None);
  Cluster.Health.reset ~now:10.0 h;
  Alcotest.(check bool) "reset clears overdue" false
    (Cluster.Health.overdue ~now:12.9 h)

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

let test_router_failover_mid_stream () =
  (* Kill a worker while requests are in flight (the kill_after hook
     SIGKILLs the worker receiving the 3rd forwarded request) and
     require zero lost requests: orphans re-route to the ring
     successor, the dead worker respawns. *)
  let exe = served_exe () in
  let dir = temp_dir () in
  let addr = Service.Net.Unix_socket (Filename.concat dir "router.sock") in
  let ready = Atomic.make 0 in
  let killed = Atomic.make 0 in
  let respawned = Atomic.make 0 in
  let router =
    Cluster.Router.start ~kill_after:3
      ~on_event:(function
        | Cluster.Router.Worker_ready _ -> Atomic.incr ready
        | Cluster.Router.Killed_by_request _ -> Atomic.incr killed
        | Cluster.Router.Worker_backoff _ -> Atomic.incr respawned
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
        Service.Loadgen.run ~seed:5 ~nodes_choices:[ 2 ] ~depths:[ 2; 3; 4; 5 ]
          ~configs:[ "passive"; "time-windows"; "small-shifting" ]
          ~engines:[ "bdd" ] ~retry_budget:3
          ~mode:(Service.Loadgen.Closed_loop 4) ~requests:16 addr
      in
      Alcotest.(check int) "kill hook fired" 1 (Atomic.get killed);
      Alcotest.(check int) "zero lost requests" 16
        report.Service.Loadgen.ok;
      Alcotest.(check int) "no protocol errors" 0
        report.Service.Loadgen.protocol_errors;
      let s = Cluster.Router.stats router in
      Alcotest.(check bool) "death observed and re-dispatch happened" true
        (s.Cluster.Router.restarts >= 1);
      Alcotest.(check bool) "victim scheduled for respawn" true
        (Atomic.get respawned >= 1))

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
          Alcotest.test_case "parked request fails once the fleet gives up"
            `Quick test_router_fails_parked_when_fleet_gives_up;
        ] );
    ]
