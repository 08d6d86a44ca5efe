(* Open-/closed-loop load generation — see the interface. *)

type mode = Open_loop of float | Closed_loop of int

type report = {
  requests : int;
  ok : int;
  degraded : int;
  holds : int;
  violated : int;
  unknown : int;
  deadline_exceeded : int;
  overloaded : int;
  cancelled : int;
  protocol_errors : int;
  retries : int;
  conn_retries : int;
  engine_retries : int;
  engine_failed : int;
  cache_hits : int;
  coalesced : int;
  session_reuses : int;
  hedged : int;
  breaker_opens : int;
  wall_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  per_worker : (string * int) list;
  imbalance : float;
}

(* The daemon may be mid-restart, the backlog briefly full, or a chaos
   fault may have aborted our previous connection — retry the connect a
   few times with capped exponential backoff before giving up. *)
let connect_backoff ?(attempts = 6) addr =
  let rec go k =
    match Net.connect addr with
    | fd -> fd
    | exception Unix.Unix_error _ when k < attempts - 1 ->
        Unix.sleepf (Float.min 0.5 (0.05 *. (2. ** float_of_int k)));
        go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The request stream *)

let sample rng l = List.nth l (Random.State.int rng (List.length l))

(* [nodes_choices]/[depths] widen the sampled stream across cluster
   shards: distinct node counts, and configs that build distinct
   transition systems, give distinct model fingerprints — distinct
   consistent-hash routing keys (passive, time windows and small
   shifting share one) — and distinct
   depths give distinct computations within a shard, so the stream can
   saturate many workers instead of coalescing onto a handful of
   duplicate requests.

   The default stream samples iid (duplicates on purpose — that is
   what exercises dedup). [~exhaustive:true] instead enumerates the
   full configs x engines x nodes x depths cross product in a seeded
   shuffle, cycling if [requests] exceeds it: no duplicates (up to one
   cycle), so the work each shard owns is a deterministic function of
   the workload alone, not of coalescing races. Scaling benches want
   this — run-to-run variance from inconclusive-verdict re-runs would
   otherwise swamp the curve. *)
let stream ~seed ~exhaustive ~nodes_choices ~depths ~deadline_ms ~configs
    ~engines ~requests =
  let rng = Random.State.make [| seed |] in
  let pick =
    if not exhaustive then fun _ ->
      let config = sample rng configs in
      let engine = sample rng engines in
      let nodes = sample rng nodes_choices in
      let depth = sample rng depths in
      (config, engine, nodes, depth)
    else begin
      let combos =
        List.concat_map
          (fun config ->
            List.concat_map
              (fun engine ->
                List.concat_map
                  (fun nodes ->
                    List.map (fun depth -> (config, engine, nodes, depth)) depths)
                  nodes_choices)
              engines)
          configs
        |> Array.of_list
      in
      let n = Array.length combos in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = combos.(i) in
        combos.(i) <- combos.(j);
        combos.(j) <- t
      done;
      fun i -> combos.(i mod n)
    end
  in
  List.init requests (fun i ->
      let config, engine, nodes, depth = pick i in
      ( Printf.sprintf "r%d" i,
        Json.to_string
          (Protocol.request
             ~id:(Printf.sprintf "r%d" i)
             ~config ~nodes ~engine ~depth ?deadline_ms ())
        ^ "\n" ))

(* ------------------------------------------------------------------ *)
(* Shared accounting *)

type acc = {
  lock : Mutex.t;
  mutable ok : int;
  mutable degraded : int;
  mutable holds : int;
  mutable violated : int;
  mutable unknown : int;
  mutable deadline_exceeded : int;
  mutable overloaded : int;
  mutable cancelled : int;
  mutable protocol_errors : int;
  mutable conn_retries : int;
  mutable engine_retries : int;
  mutable engine_failed : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable session_reuses : int;
  mutable hedged : int;
  mutable latencies_ms : float list;  (** answered requests only *)
  mutable last_response_at : float;
  workers : (string, int) Hashtbl.t;
      (** responses per serving worker, from the router's [worker]
          response annotation; empty against a plain daemon *)
}

let acc () =
  {
    lock = Mutex.create ();
    ok = 0;
    degraded = 0;
    holds = 0;
    violated = 0;
    unknown = 0;
    deadline_exceeded = 0;
    overloaded = 0;
    cancelled = 0;
    protocol_errors = 0;
    conn_retries = 0;
    engine_retries = 0;
    engine_failed = 0;
    cache_hits = 0;
    coalesced = 0;
    session_reuses = 0;
    hedged = 0;
    latencies_ms = [];
    last_response_at = 0.;
    workers = Hashtbl.create 8;
  }

(* The two retry currencies, reported separately: a transport retry
   (lost/garbled connection — e.g. a drop-injected link fault) tells a
   different story from re-asking after a structured [engine_failed]
   answer. *)
let count_conn_retry acc n =
  Mutex.lock acc.lock;
  acc.conn_retries <- acc.conn_retries + n;
  Mutex.unlock acc.lock

let count_engine_retry acc n =
  Mutex.lock acc.lock;
  acc.engine_retries <- acc.engine_retries + n;
  Mutex.unlock acc.lock

let count_engine_failed acc =
  Mutex.lock acc.lock;
  acc.engine_failed <- acc.engine_failed + 1;
  Mutex.unlock acc.lock

let count_protocol_errors acc n =
  Mutex.lock acc.lock;
  acc.protocol_errors <- acc.protocol_errors + n;
  Mutex.unlock acc.lock

let count_worker acc line =
  (* The cluster router annotates forwarded responses with the serving
     worker's name (and ["hedged":true] when a duplicate leg raced for
     it); a plain daemon's responses have no such fields. *)
  match Json.of_string line with
  | Error _ -> ()
  | Ok j ->
      (match Option.bind (Json.member "worker" j) Json.string_value with
      | None -> ()
      | Some w ->
          Hashtbl.replace acc.workers w
            (1 + Option.value ~default:0 (Hashtbl.find_opt acc.workers w)));
      if Option.bind (Json.member "hedged" j) Json.bool_value = Some true then
        acc.hedged <- acc.hedged + 1

let record acc ~sent_at line =
  let at = Unix.gettimeofday () in
  Mutex.lock acc.lock;
  acc.last_response_at <- Float.max acc.last_response_at at;
  (match Protocol.decode_response_line line with
  | Error _ -> acc.protocol_errors <- acc.protocol_errors + 1
  | Ok (Protocol.Error _) -> acc.protocol_errors <- acc.protocol_errors + 1
  | Ok (Protocol.Pong _) -> ()
  | Ok (Protocol.Overloaded _) -> acc.overloaded <- acc.overloaded + 1
  | Ok (Protocol.Cancelled _) -> acc.cancelled <- acc.cancelled + 1
  | Ok (Protocol.Degraded { reused_session; _ }) ->
      (* A partial answer with content: counted apart from [ok] but
         very much answered — it gets a latency sample and worker
         attribution like any other answer. *)
      count_worker acc line;
      acc.degraded <- acc.degraded + 1;
      (match sent_at with
      | Some t0 -> acc.latencies_ms <- ((at -. t0) *. 1000.) :: acc.latencies_ms
      | None -> ());
      if reused_session then acc.session_reuses <- acc.session_reuses + 1
  | Ok (Protocol.Answer { cache_hit; coalesced; reused_session; verdict; _ })
    ->
      count_worker acc line;
      acc.ok <- acc.ok + 1;
      (match sent_at with
      | Some t0 -> acc.latencies_ms <- ((at -. t0) *. 1000.) :: acc.latencies_ms
      | None -> ());
      if cache_hit then acc.cache_hits <- acc.cache_hits + 1;
      if coalesced then acc.coalesced <- acc.coalesced + 1;
      if reused_session then acc.session_reuses <- acc.session_reuses + 1;
      (match verdict with
      | Protocol.Holds _ -> acc.holds <- acc.holds + 1
      | Protocol.Violated _ -> acc.violated <- acc.violated + 1
      | Protocol.Unknown { reason; _ } ->
          acc.unknown <- acc.unknown + 1;
          if reason = Some "deadline_exceeded" then
            acc.deadline_exceeded <- acc.deadline_exceeded + 1));
  Mutex.unlock acc.lock

(* ------------------------------------------------------------------ *)
(* The two loops *)

(* Per-request outcome of one attempt over the worker's connection.
   [`Conn_lost] covers connect/write failures and EOF before a
   response — the connection is dead, reconnect and resend.
   [`Engine_failed]/[`Garbled] arrive on a live, in-sync connection
   (one response consumed per request sent), so a retry just resends. *)
let attempt_once ~get_conn ~drop_conn ~id line =
  match get_conn () with
  | exception Unix.Unix_error _ -> `Conn_lost
  | fd, reader -> (
      match Net.write_all fd line with
      | exception Unix.Unix_error _ ->
          drop_conn ();
          `Conn_lost
      | () -> (
          match Net.read_line reader with
          | None ->
              drop_conn ();
              `Conn_lost
          | Some resp -> (
              match Protocol.decode_response_line resp with
              | Error _ -> `Garbled
              | Ok (Protocol.Error { code; _ })
                when code = Protocol.code_engine_failed ->
                  `Engine_failed resp
              | Ok r ->
                  if Protocol.response_id r = Some id then `Answered resp
                  else `Garbled)))

let run_closed ~concurrency ~retry_budget ~reqs addr acc =
  let next = Atomic.make 0 in
  let reqs = Array.of_list reqs in
  let worker () =
    let conn = ref None in
    let get_conn () =
      match !conn with
      | Some c -> c
      | None ->
          let fd = connect_backoff addr in
          let c = (fd, Net.reader fd) in
          conn := Some c;
          c
    in
    let drop_conn () =
      (match !conn with
      | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      conn := None
    in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length reqs then begin
        let id, line = reqs.(i) in
        let t0 = Unix.gettimeofday () in
        let rec attempt budget =
          match attempt_once ~get_conn ~drop_conn ~id line with
          | `Answered resp -> record acc ~sent_at:(Some t0) resp
          | `Engine_failed _ when budget > 0 ->
              count_engine_failed acc;
              count_engine_retry acc 1;
              attempt (budget - 1)
          | `Engine_failed resp ->
              count_engine_failed acc;
              record acc ~sent_at:None resp
          | (`Conn_lost | `Garbled) when budget > 0 ->
              count_conn_retry acc 1;
              attempt (budget - 1)
          | `Conn_lost | `Garbled -> count_protocol_errors acc 1
        in
        attempt retry_budget;
        go ()
      end
    in
    go ();
    drop_conn ()
  in
  let domains =
    List.init (max 1 concurrency) (fun _ -> Domain.spawn worker)
  in
  List.iter Domain.join domains

(* Open-loop runs proceed in rounds: pace the pending requests onto
   one connection at [rate], read until every one is answered or the
   connection dies, then — with retry budget left — reconnect and
   resend whatever went unanswered (plus any [engine_failed]
   responses, which are retryable: the daemon's supervisor may have
   hit its cap on a transient fault). A reply the loadgen cannot
   attribute to a request (undecodable or id-less) cannot be resent
   and counts as a protocol error immediately. *)
let run_open ~rate ~retry_budget ~reqs addr acc =
  let rec round pending budget =
    match connect_backoff addr with
    | exception Unix.Unix_error _ ->
        count_protocol_errors acc (List.length pending)
    | fd ->
        let sent = Hashtbl.create (List.length pending) in
        let sent_lock = Mutex.create () in
        let t_start = Unix.gettimeofday () in
        let writer =
          Domain.spawn (fun () ->
              let rec send i = function
                | [] -> ()
                | (id, line) :: rest -> (
                    let due = t_start +. (float_of_int i /. rate) in
                    let dt = due -. Unix.gettimeofday () in
                    if dt > 0. then Unix.sleepf dt;
                    Mutex.lock sent_lock;
                    Hashtbl.replace sent id (Unix.gettimeofday ());
                    Mutex.unlock sent_lock;
                    match Net.write_all fd line with
                    | () -> send (i + 1) rest
                    | exception Unix.Unix_error _ ->
                        (* Connection dead: the reader will hit EOF; the
                           unsent tail is picked up as unanswered. *)
                        ())
              in
              send 0 pending)
        in
        let reader = Net.reader fd in
        let expected = List.length pending in
        let answered = Hashtbl.create expected in
        let failed = Hashtbl.create 4 in
        let rec read_responses got =
          if got < expected then
            match Net.read_line reader with
            | None -> ()
            | Some line ->
                (match Protocol.decode_response_line line with
                | Ok (Protocol.Error { id = Some id; code; _ })
                  when code = Protocol.code_engine_failed ->
                    count_engine_failed acc;
                    Hashtbl.replace answered id ();
                    Hashtbl.replace failed id line
                | Ok r -> (
                    match Protocol.response_id r with
                    | Some id ->
                        Hashtbl.replace answered id ();
                        Mutex.lock sent_lock;
                        let t0 = Hashtbl.find_opt sent id in
                        Mutex.unlock sent_lock;
                        record acc ~sent_at:t0 line
                    | None -> record acc ~sent_at:None line)
                | Error _ -> record acc ~sent_at:None line);
                read_responses (got + 1)
        in
        read_responses 0;
        Domain.join writer;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let retryable =
          List.filter
            (fun (id, _) ->
              (not (Hashtbl.mem answered id)) || Hashtbl.mem failed id)
            pending
        in
        if retryable = [] then ()
        else if budget > 0 then begin
          let engine_n =
            List.length
              (List.filter (fun (id, _) -> Hashtbl.mem failed id) retryable)
          in
          count_engine_retry acc engine_n;
          count_conn_retry acc (List.length retryable - engine_n);
          round retryable (budget - 1)
        end
        else
          (* Out of budget: record the terminal [engine_failed]
             responses; everything still unanswered is a protocol
             error. *)
          List.iter
            (fun (id, _) ->
              match Hashtbl.find_opt failed id with
              | Some line -> record acc ~sent_at:None line
              | None -> count_protocol_errors acc 1)
            retryable
  in
  round reqs retry_budget

(* ------------------------------------------------------------------ *)
(* Entry point and reporting *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

let run ?(seed = 1) ?(exhaustive = false) ?(nodes = 2) ?(depth = 24)
    ?nodes_choices ?depths ?deadline_ms ?configs ?engines
    ?(retry_budget = 2) ~mode ~requests addr =
  let configs =
    match configs with
    | Some (_ :: _ as l) -> l
    | _ ->
        [ "passive"; "time-windows"; "small-shifting"; "full-shifting" ]
  in
  let engines =
    match engines with Some (_ :: _ as l) -> l | _ -> [ "bdd" ]
  in
  let nodes_choices =
    match nodes_choices with Some (_ :: _ as l) -> l | _ -> [ nodes ]
  in
  let depths = match depths with Some (_ :: _ as l) -> l | _ -> [ depth ] in
  let reqs =
    stream ~seed ~exhaustive ~nodes_choices ~depths ~deadline_ms ~configs
      ~engines ~requests
  in
  let a = acc () in
  let t0 = Unix.gettimeofday () in
  let retry_budget = max 0 retry_budget in
  (match mode with
  | Closed_loop c -> run_closed ~concurrency:c ~retry_budget ~reqs addr a
  | Open_loop r ->
      run_open ~rate:(Float.max 0.001 r) ~retry_budget ~reqs addr a);
  let t_end = if a.last_response_at > 0. then a.last_response_at else t0 in
  let wall_s = Float.max 1e-9 (t_end -. t0) in
  let sorted = Array.of_list a.latencies_ms in
  Array.sort compare sorted;
  let per_worker =
    List.sort compare (Hashtbl.fold (fun w n l -> (w, n) :: l) a.workers [])
  in
  (* max/mean over workers that answered at least once: 1.0 is a
     perfectly even spread; the MIT 6.824 yardstick for how far the
     ring is from wasting its parallelism. *)
  let imbalance =
    match per_worker with
    | [] -> 0.
    | l ->
        let counts = List.map (fun (_, n) -> float_of_int n) l in
        let mean =
          List.fold_left ( +. ) 0. counts /. float_of_int (List.length counts)
        in
        List.fold_left Float.max 0. counts /. Float.max 1e-9 mean
  in
  {
    requests;
    ok = a.ok;
    degraded = a.degraded;
    holds = a.holds;
    violated = a.violated;
    unknown = a.unknown;
    deadline_exceeded = a.deadline_exceeded;
    overloaded = a.overloaded;
    cancelled = a.cancelled;
    protocol_errors = a.protocol_errors;
    retries = a.conn_retries + a.engine_retries;
    conn_retries = a.conn_retries;
    engine_retries = a.engine_retries;
    engine_failed = a.engine_failed;
    cache_hits = a.cache_hits;
    coalesced = a.coalesced;
    session_reuses = a.session_reuses;
    hedged = a.hedged;
    breaker_opens = 0;
    wall_s;
    throughput_rps = float_of_int requests /. wall_s;
    p50_ms = percentile sorted 50.;
    p95_ms = percentile sorted 95.;
    p99_ms = percentile sorted 99.;
    max_ms = (if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1));
    per_worker;
    imbalance;
  }

let mode_to_json = function
  | Open_loop r ->
      Json.Obj
        [ ("shape", Json.String "open-loop"); ("rate_rps", Json.Float r) ]
  | Closed_loop c ->
      Json.Obj
        [ ("shape", Json.String "closed-loop"); ("concurrency", Json.Int c) ]

let report_to_json ~mode r =
  Json.Obj
    [
      ("mode", mode_to_json mode);
      ("requests", Json.Int r.requests);
      ("ok", Json.Int r.ok);
      ("degraded", Json.Int r.degraded);
      ("holds", Json.Int r.holds);
      ("violated", Json.Int r.violated);
      ("unknown", Json.Int r.unknown);
      ("deadline_exceeded", Json.Int r.deadline_exceeded);
      ("overloaded", Json.Int r.overloaded);
      ("cancelled", Json.Int r.cancelled);
      ("protocol_errors", Json.Int r.protocol_errors);
      ("retries", Json.Int r.retries);
      ("conn_retries", Json.Int r.conn_retries);
      ("engine_retries", Json.Int r.engine_retries);
      ("engine_failed", Json.Int r.engine_failed);
      ("cache_hits", Json.Int r.cache_hits);
      ("coalesced", Json.Int r.coalesced);
      ("session_reuses", Json.Int r.session_reuses);
      ("hedged", Json.Int r.hedged);
      ("breaker_opens", Json.Int r.breaker_opens);
      ("wall_s", Json.Float r.wall_s);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("p50_ms", Json.Float r.p50_ms);
      ("p95_ms", Json.Float r.p95_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("max_ms", Json.Float r.max_ms);
      ( "per_worker",
        Json.Obj (List.map (fun (w, n) -> (w, Json.Int n)) r.per_worker) );
      ("imbalance", Json.Float r.imbalance);
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>requests  %d (%d ok, %d degraded, %d overloaded, %d cancelled, %d \
     protocol errors)@,verdicts  %d holds, %d violated, %d unknown (%d past \
     deadline)@,dedup     %d cache hits, %d coalesced, %d warm-session \
     reuses@,resilience %d retries (%d conn, %d engine), %d engine-failed \
     responses, %d hedged@,wall      %.2fs (%.1f req/s)@,latency   p50 \
     %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms@]@."
    r.requests r.ok r.degraded r.overloaded r.cancelled r.protocol_errors
    r.holds r.violated r.unknown r.deadline_exceeded r.cache_hits r.coalesced
    r.session_reuses r.retries r.conn_retries r.engine_retries r.engine_failed
    r.hedged r.wall_s r.throughput_rps r.p50_ms r.p95_ms r.p99_ms r.max_ms;
  if r.per_worker <> [] then
    Format.fprintf ppf "workers   %s (imbalance %.2f)@."
      (String.concat ", "
         (List.map (fun (w, n) -> Printf.sprintf "%s:%d" w n) r.per_worker))
      r.imbalance
