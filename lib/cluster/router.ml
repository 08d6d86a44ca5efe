(* Sharding front end over supervised worker daemons — see the
   interface for the design. *)

module Net = Service.Net
module Protocol = Service.Protocol
module Faults = Resilience.Faults

type event =
  | Worker_spawned of { name : string; pid : int }
  | Worker_ready of { name : string; addr : string }
  | Worker_exited of { name : string; reason : string }
  | Worker_backoff of { name : string; delay_s : float }
  | Worker_gave_up of { name : string }
  | Rerouted of { id : string; worker : string }
  | Killed_by_request of { name : string; nth : int }
  | Breaker_opened of { name : string }
  | Breaker_closed of { name : string }
  | Hedged of { id : string; worker : string }

type stats = {
  forwarded : (string * int) list;
  rerouted : int;
  restarts : int;
  hedged : int;
  breaker_opens : int;
}

(* ------------------------------------------------------------------ *)
(* Line rewriting (pure; unit-tested directly)

   The router multiplexes many clients onto one connection per worker,
   so client request ids cannot be trusted to be distinct across
   clients. Each forwarded request gets a router-scoped id (["q<n>"]);
   the response's id is rewritten back and the serving worker's name
   appended, giving clients per-shard attribution for free. *)

let rewrite_request_id line ~id =
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      let rest = List.filter (fun (k, _) -> k <> "id") fields in
      Some (Json.to_string (Json.Obj (("id", Json.String id) :: rest)))
  | Ok _ | Error _ -> None

let rewrite_response_line ?(hedged = false) line ~id ~worker =
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      let rest =
        List.filter
          (fun (k, _) -> k <> "id" && k <> "worker" && k <> "hedged")
          fields
      in
      Some
        (Json.to_string
           (Json.Obj
              ((("id", Json.String id) :: rest)
              @ [ ("worker", Json.String worker) ]
              @ (if hedged then [ ("hedged", Json.Bool true) ] else []))))
  | Ok _ | Error _ -> None

(* ------------------------------------------------------------------ *)
(* State *)

type pending = {
  pclient : Net.conn;
  orig_id : string;
  pline : string;  (** the client's original request line *)
  pkey : string;  (** consistent-hash routing key *)
  mutable attempts : int;
  mutable legs : (string * string) list;
      (** outstanding (router qid, worker name) legs; more than one
          while a hedge is in flight *)
  mutable sent_at : float;  (** when the newest leg was forwarded *)
  mutable hedge_sent : bool;
}

type wstate =
  | Idle of { until : float }  (** waiting out a restart backoff *)
  | Starting of { proc : Worker.proc; out : Buffer.t; since : float }
  | Live of {
      proc : Worker.proc;
      out : Buffer.t;  (** partial line of the worker's stdout *)
      wfd : Unix.file_descr;  (** connection to the worker's socket *)
      wbuf : Buffer.t;
      health : Health.t;
    }
  | Gone  (** restart intensity exceeded; never coming back *)

type worker = {
  wname : string;
  mutable state : wstate;
  gate : Resilience.Supervisor.Restarts.t;
  breaker : Breaker.t option;  (** [None] when --breaker-window is 0 *)
}

(* A router↔worker message a firing [delay] rule is holding back:
   delivered by [tick] once due, instead of sleeping on the loop. *)
type delayed_msg =
  | Delayed_send of { dworker : string; dline : string }
  | Delayed_recv of { dworker : string; dline : string }

type router = {
  exe : string;
  worker_args : string list;
  workers : worker array;
  ring : Ring.t;
  inflight : (string, pending) Hashtbl.t;  (** router id -> pending *)
  mutable parked : pending list;  (** newest first; no live worker yet *)
  mutable qseq : int;
  keys : (Tta_model.Configs.t, string) Hashtbl.t;  (** cfg -> routing key *)
  kill_after : int option;
  mutable total_forwarded : int;
  health_interval : float;
  health_timeout : float;
  start_timeout : float;
  grace : float;
  mutable drain_deadline : float option;
      (** set when a stop is first seen: from then on no respawns, and
          leftovers are cancelled at this time *)
  faults : Faults.t;  (** link_send/link_recv chaos on the worker legs *)
  hedge_s : float;  (** 0 = hedging off *)
  mutable delayed : (float * delayed_msg) list;  (** due time, unsorted *)
  on_event : event -> unit;
  stats_lock : Mutex.t;
  st_forwarded : (string, int) Hashtbl.t;
  mutable st_rerouted : int;
  mutable st_restarts : int;
  mutable st_hedged : int;
  mutable st_breaker_opens : int;
}

let is_live w = match w.state with Live _ -> true | _ -> false
let all_gone t =
  Array.for_all (function { state = Gone; _ } -> true | _ -> false) t.workers

(* Routing admission: alive *and* the breaker lets new traffic in. *)
let admits w =
  is_live w
  && match w.breaker with None -> true | Some b -> Breaker.admits b

(* Feed a request outcome to the worker's breaker, reporting state
   transitions as events (and counting trips). *)
let breaker_record t w ~ok =
  match w.breaker with
  | None -> ()
  | Some b ->
      let before = Breaker.state b in
      Breaker.record b ~ok;
      (match (before, Breaker.state b) with
      | (Breaker.Closed | Breaker.Half_open), Breaker.Open ->
          Mutex.lock t.stats_lock;
          t.st_breaker_opens <- t.st_breaker_opens + 1;
          Mutex.unlock t.stats_lock;
          t.on_event (Breaker_opened { name = w.wname })
      | Breaker.Half_open, Breaker.Closed ->
          t.on_event (Breaker_closed { name = w.wname })
      | _ -> ())

let worker_named t name =
  (* Worker names are router-assigned and few; linear scan is fine. *)
  let found = ref None in
  Array.iter (fun w -> if w.wname = name then found := Some w) t.workers;
  Option.get !found

(* ------------------------------------------------------------------ *)
(* Routing key

   Requests shard by the *model* they ask about — Model.fingerprint of
   the compiled configuration — not by request id: repeats of the same
   model land on the same worker, whose scheduler coalesces them and
   whose engines stay warm for it. Engine and depth intentionally do
   not enter the key. *)

let routing_key t cfg =
  match Hashtbl.find_opt t.keys cfg with
  | Some k -> k
  | None ->
      let k = Symkit.Model.fingerprint (Tta_model.Build.model cfg) in
      Hashtbl.add t.keys cfg k;
      k

(* ------------------------------------------------------------------ *)
(* Dispatch and failover *)

let max_attempts t = (2 * Array.length t.workers) + 2

let bump_forwarded t name =
  Mutex.lock t.stats_lock;
  Hashtbl.replace t.st_forwarded name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.st_forwarded name));
  Mutex.unlock t.stats_lock

(* Answer [p]'s client with a structured failure. *)
let fail p code reason =
  Net.send p.pclient
    (Protocol.response_line
       (Protocol.Error { id = Some p.orig_id; code; reason }))

(* Forward one pending request to a live worker, or park/fail it.
   Mutually recursive with the death path: a failed write to a worker
   declares that worker dead, which re-dispatches its in-flight
   requests — bounded by [max_attempts] per request and by the restart
   gate per worker. *)
let rec dispatch t ~now p =
  if p.attempts >= max_attempts t then
    fail p Protocol.code_engine_failed "no live worker could serve this request"
  else
    match
      Ring.route ~accept:(fun n -> admits (worker_named t n)) t.ring p.pkey
    with
    | None ->
        (* No admissible worker right now (none live, or every live
           one behind an open breaker). Park and flush on the next
           ready or breaker transition — unless the whole fleet
           crash-looped past its restart gates, in which case nobody
           is ever coming back. *)
        if all_gone t then
          fail p Protocol.code_engine_failed
            "every worker exceeded its restart budget"
        else t.parked <- p :: t.parked
    | Some name -> forward t ~now (worker_named t name) p

(* Both callers pick [w] through [Ring.route ~accept:admits], so it is
   live. *)
and forward t ~now w p =
  let proc, wfd =
    match w.state with
    | Live { proc; wfd; _ } -> (proc, wfd)
    | Idle _ | Starting _ | Gone ->
        invalid_arg "Router.forward: worker not live"
  in
  t.qseq <- t.qseq + 1;
  let qid = Printf.sprintf "q%d" t.qseq in
  match rewrite_request_id p.pline ~id:qid with
  | None ->
      (* Unreachable for a line that decoded as a request object;
         answer rather than wedge the client. *)
      fail p Protocol.code_bad_request "request line is not a JSON object"
  | Some line ->
      let line = line ^ "\n" in
      Hashtbl.replace t.inflight qid p;
      let rerouted = p.attempts > 0 && p.legs = [] in
      p.attempts <- p.attempts + 1;
      p.legs <- (qid, w.wname) :: p.legs;
      p.sent_at <- now;
      (* If this worker is half-open, this request is its probe. *)
      (match w.breaker with
      | Some b -> Breaker.probe_started b
      | None -> ());
      t.total_forwarded <- t.total_forwarded + 1;
      bump_forwarded t w.wname;
      if rerouted then begin
        Mutex.lock t.stats_lock;
        t.st_rerouted <- t.st_rerouted + 1;
        Mutex.unlock t.stats_lock;
        t.on_event (Rerouted { id = p.orig_id; worker = w.wname })
      end;
      (match t.kill_after with
      | Some n when t.total_forwarded = n ->
          (* Testing hook: SIGKILL the worker that just received the
             nth request — the hard-crash case the failover path
             exists for. Detection is left to the normal EOF/health
             machinery. *)
          (try Unix.kill proc.Worker.pid Sys.sigkill
           with Unix.Unix_error _ -> ());
          t.on_event (Killed_by_request { name = w.wname; nth = n })
      | _ -> ());
      link_send t ~now w wfd line ~failed:"write failed"

(* The outbound link hook: a firing [drop] loses the line in the
   network (a request's leg stays registered; the retransmit net or a
   hedge recovers it), a [delay] defers the write to [tick], a [crash]
   kills the connection. *)
and link_send t ~now w wfd line ~failed =
  match Faults.link t.faults Faults.Link_send with
  | exception Faults.Injected _ -> worker_death t ~now w "link fault"
  | `Drop -> ()
  | `Delay d ->
      t.delayed <-
        (now +. d, Delayed_send { dworker = w.wname; dline = line })
        :: t.delayed
  | `Pass -> write_worker t ~now w wfd line ~failed

and write_worker t ~now w wfd line ~failed =
  try Net.write_all wfd line
  with Unix.Unix_error _ -> worker_death t ~now w failed

and flush_parked t ~now =
  let parked = List.rev t.parked in
  t.parked <- [];
  List.iter (dispatch t ~now) parked

(* A worker is dead (EOF, failed write, health timeout, startup
   failure): reap it, re-route everything it owed, and schedule the
   respawn — or give up if it is crash-looping faster than the restart
   gate allows. *)
and worker_death t ~now w reason =
  (* [terminate] with a short grace: the process is usually already
     dead (we got here via EOF); a wedged one (health timeout) gets a
     brief chance at SIGTERM before the SIGKILL. Reaps the child, so a
     restarting fleet never accumulates zombies. *)
  (match w.state with
  | Starting { proc; _ } -> Worker.terminate ~grace_s:0.2 proc
  | Live { proc; wfd; _ } ->
      (try Unix.close wfd with Unix.Unix_error _ -> ());
      Worker.terminate ~grace_s:0.2 proc
  | Idle _ | Gone -> ());
  t.on_event (Worker_exited { name = w.wname; reason });
  Mutex.lock t.stats_lock;
  t.st_restarts <- t.st_restarts + 1;
  Mutex.unlock t.stats_lock;
  (match Resilience.Supervisor.Restarts.record ~now w.gate with
  | `Backoff d ->
      w.state <- Idle { until = now +. d };
      t.on_event (Worker_backoff { name = w.wname; delay_s = d })
  | `Give_up ->
      w.state <- Gone;
      t.on_event (Worker_gave_up { name = w.wname });
      (* Nobody is ever coming back for the parked requests: re-dispatch
         fails each with the restart-budget answer. *)
      if all_gone t then flush_parked t ~now);
  (* Cut the dead worker's legs. A request whose only leg it was gets
     re-dispatched — safe to re-send: workers dedup/coalesce identical
     requests and share the verdict cache, so a request the dead
     worker had in fact completed is answered again, cheaply, by its
     successor. A hedged request with a surviving leg elsewhere just
     loses the dead leg. *)
  let orphans =
    Hashtbl.fold
      (fun qid p acc ->
        if List.exists (fun (q, wn) -> q = qid && wn = w.wname) p.legs then
          (qid, p) :: acc
        else acc)
      t.inflight []
  in
  List.iter
    (fun (qid, p) ->
      Hashtbl.remove t.inflight qid;
      p.legs <- List.filter (fun (q, _) -> q <> qid) p.legs)
    orphans;
  let stranded =
    List.fold_left
      (fun acc (_, p) ->
        if p.legs = [] && not (List.memq p acc) then p :: acc else acc)
      [] orphans
  in
  List.iter (dispatch t ~now) stranded

(* ------------------------------------------------------------------ *)
(* Worker lifecycle driven from the loop *)

let spawn_worker t ~now w =
  match
    Worker.spawn ~exe:t.exe
      ~args:([ "--socket"; "127.0.0.1:0" ] @ t.worker_args)
  with
  | proc ->
      w.state <- Starting { proc; out = Buffer.create 256; since = now };
      t.on_event (Worker_spawned { name = w.wname; pid = proc.Worker.pid })
  | exception Unix.Unix_error _ -> worker_death t ~now w "spawn failed"

let worker_ready t ~now w proc out addr =
  match Net.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      worker_death t ~now w
        ("connect to ready worker failed: " ^ Unix.error_message e)
  | wfd ->
      let health =
        Health.create ~interval:t.health_interval ~timeout:t.health_timeout
          ~now w.wname
      in
      w.state <- Live { proc; out; wfd; wbuf = Buffer.create 1024; health };
      (* A restarted worker gets a clean slate: whatever tripped the
         breaker died with the old process. *)
      (match w.breaker with Some b -> Breaker.reset b | None -> ());
      t.on_event
        (Worker_ready { name = w.wname; addr = Net.addr_to_string addr });
      flush_parked t ~now

(* The worker's stdout pipe. While [Starting] it carries the readiness
   line; once [Live] it is banner/diagnostic output, read and
   discarded so the pipe can never fill and block the daemon. EOF
   means the process exited. *)
let handle_worker_stdout t w =
  let now = Unix.gettimeofday () in
  match w.state with
  | Starting { proc; out; _ } -> (
      let ready = ref None in
      match
        Net.read_lines proc.Worker.stdout out (fun line ->
            if !ready = None then ready := Net.parse_ready line)
      with
      | `Error _ -> worker_death t ~now w "stdout read failed"
      | `Eof -> worker_death t ~now w "exited before becoming ready"
      | `Data -> Option.iter (worker_ready t ~now w proc out) !ready)
  | Live { proc; out; _ } -> (
      match Net.read_lines proc.Worker.stdout out ignore with
      | `Data -> ()
      | `Eof | `Error _ -> worker_death t ~now w "process exited")
  | Idle _ | Gone -> ()

(* Deliver [line] (from [worker]) as the answer to [p]: cancel every
   outstanding leg — a late duplicate from a hedge loser then finds no
   inflight entry and is dropped — and write the rewritten response. *)
let deliver t p line ~worker =
  List.iter (fun (q, _) -> Hashtbl.remove t.inflight q) p.legs;
  p.legs <- [];
  match rewrite_response_line ~hedged:p.hedge_sent line ~id:p.orig_id ~worker with
  | Some out -> Net.send p.pclient (out ^ "\n")
  | None -> ()

(* Does this response line blame the *worker* (breaker evidence, and
   worth holding back while a hedge leg may still answer)? Degraded
   answers carry content, but an engine-failed one still marks the
   worker sick. *)
let response_failure line =
  match Protocol.decode_response_line line with
  | Ok (Protocol.Error { code; _ }) -> code = Protocol.code_engine_failed
  | Ok (Protocol.Degraded { code; _ }) -> code = Protocol.code_engine_failed
  | Ok _ -> false
  | Error _ -> false

let process_worker_line t ~now w line =
  match Protocol.request_id_of_line line with
  | None -> ()  (* not attributable; drop *)
  | Some id when Health.is_ping_id id -> (
      (* A pong is the breaker's reachability evidence: an open
         circuit moves to half-open, admitting one probe request. *)
      (match w.breaker with Some b -> Breaker.note_pong b | None -> ());
      match w.state with
      | Live { health; _ } -> Health.pong ~now health id
      | _ -> ())
  | Some qid -> (
      match Hashtbl.find_opt t.inflight qid with
      | None -> ()  (* cancelled hedge loser or re-routed; late duplicate *)
      | Some p ->
          let failure = response_failure line in
          breaker_record t w ~ok:(not failure);
          Hashtbl.remove t.inflight qid;
          p.legs <- List.filter (fun (q, _) -> q <> qid) p.legs;
          (* Content, or every leg failed: answer with the freshest
             failure rather than wait for nothing. A failure while
             another leg is out is dropped: that leg may still answer
             with content. *)
          if (not failure) || p.legs = [] then
            deliver t p line ~worker:w.wname)

let handle_worker_conn t w =
  let now = Unix.gettimeofday () in
  match w.state with
  | Live { wfd; wbuf; _ } -> (
      (* The inbound link hook, applied per line: [drop] discards the
         line (pongs included — that is what a partition looks like
         from this side), [delay] defers its processing to [tick],
         [crash] kills the connection (flagged and applied after the
         chunk, so the buffer stays coherent). *)
      let link_crash = ref false in
      match
        Net.read_lines wfd wbuf (fun line ->
            if not !link_crash then
              match Faults.link t.faults Faults.Link_recv with
              | `Pass -> process_worker_line t ~now w line
              | `Drop -> ()
              | `Delay d ->
                  t.delayed <-
                    (now +. d, Delayed_recv { dworker = w.wname; dline = line })
                    :: t.delayed
              | exception Faults.Injected _ -> link_crash := true)
      with
      | `Error _ -> worker_death t ~now w "connection reset"
      | `Eof -> worker_death t ~now w "connection closed"
      | `Data -> if !link_crash then worker_death t ~now w "link fault")
  | _ -> ()

(* Flush delayed-link messages whose due time has passed. A send whose
   worker died in the meantime is dropped (its leg re-routes via the
   death path); a recv is processed as if it had just arrived. *)
let deliver_delayed t ~now =
  match t.delayed with
  | [] -> ()
  | _ ->
      let due, later = List.partition (fun (at, _) -> at <= now) t.delayed in
      t.delayed <- later;
      List.iter
        (fun (_, msg) ->
          match msg with
          | Delayed_send { dworker; dline } -> (
              let w = worker_named t dworker in
              match w.state with
              | Live { wfd; _ } ->
                  write_worker t ~now w wfd dline ~failed:"write failed"
              | _ -> ())
          | Delayed_recv { dworker; dline } ->
              process_worker_line t ~now (worker_named t dworker) dline)
        (List.rev due)

(* Hedging and the retransmit net, driven from [tick].

   Hedge: a request whose single leg has waited [hedge_s] gets a
   duplicate leg on the next admissible ring worker; the first
   content-bearing answer wins and cancels the other ([deliver]). Safe
   because verdicts are deterministic and workers coalesce by
   fingerprint, so the loser burns at most one cache probe.

   Retransmit: a request none of whose legs has answered for a full
   [3 * health_timeout] has very likely had a line dropped on the
   floor (an injected link fault, or a real lossy network) — without
   this net the client would wait forever, since workers answer every
   request they actually receive. Re-dispatching is safe for the same
   reason hedging is: a merely-slow computation is coalesced on the
   worker, not recomputed, and answers through the fresh leg. *)
let hedge_and_retransmit t ~now =
  let distinct = ref [] in
  Hashtbl.iter
    (fun _ p -> if not (List.memq p !distinct) then distinct := p :: !distinct)
    t.inflight;
  List.iter
    (fun p ->
      if p.legs <> [] && now -. p.sent_at > 3.0 *. t.health_timeout then begin
        List.iter (fun (q, _) -> Hashtbl.remove t.inflight q) p.legs;
        p.legs <- [];
        p.hedge_sent <- false;
        dispatch t ~now p
      end
      else if
        t.hedge_s > 0.
        && (not p.hedge_sent)
        && p.attempts < max_attempts t
        && (match p.legs with [ _ ] -> true | _ -> false)
        && now -. p.sent_at >= t.hedge_s
      then
        let on_leg n = List.exists (fun (_, wn) -> wn = n) p.legs in
        match
          Ring.route
            ~accept:(fun n -> (not (on_leg n)) && admits (worker_named t n))
            t.ring p.pkey
        with
        | None -> ()  (* nowhere to hedge to; the net still applies *)
        | Some name ->
            p.hedge_sent <- true;
            Mutex.lock t.stats_lock;
            t.st_hedged <- t.st_hedged + 1;
            Mutex.unlock t.stats_lock;
            t.on_event (Hedged { id = p.orig_id; worker = name });
            forward t ~now (worker_named t name) p)
    !distinct

(* Time-driven work: respawns due, start timeouts, health probes,
   delayed link messages, hedges/retransmits, and parked requests a
   breaker transition may have unblocked. *)
let tick t ~now =
  Array.iter
    (fun w ->
      match w.state with
      | Idle { until } when until <= now && t.drain_deadline = None ->
          spawn_worker t ~now w
      | Starting { since; _ } when now -. since > t.start_timeout ->
          worker_death t ~now w "start timeout"
      | Live { wfd; health; _ } -> (
          if Health.overdue ~now health then
            worker_death t ~now w "health timeout"
          else
            match Health.next_ping ~now health with
            | None -> ()
            | Some id ->
                (* Pings ride the same link as requests: a dropped ping
                   never pongs, so a partitioned-off worker fails its
                   health check exactly like a dead one. *)
                link_send t ~now w wfd
                  (Json.to_string (Protocol.ping ~id) ^ "\n")
                  ~failed:"ping write failed")
      | _ -> ())
    t.workers;
  deliver_delayed t ~now;
  hedge_and_retransmit t ~now;
  if t.parked <> [] && Array.exists admits t.workers then flush_parked t ~now

(* ------------------------------------------------------------------ *)
(* Client side *)

let handle_request t client line =
  match Protocol.decode_incoming_line line with
  | Error reason ->
      Net.send client
        (Protocol.response_line
           (Protocol.Error
              {
                id = Protocol.request_id_of_line line;
                code = Protocol.code_bad_request;
                reason;
              }))
  | Ok (Protocol.Ping { id }) ->
      (* Answered by the router itself: a pong means the routing tier is
         up, which is what a client probing the cluster asks. *)
      Net.send client (Protocol.response_line (Protocol.Pong { id }))
  | Ok (Protocol.Verify req) ->
      let now = Unix.gettimeofday () in
      dispatch t ~now
        {
          pclient = client;
          orig_id = req.Protocol.id;
          pline = line;
          pkey = routing_key t req.Protocol.cfg;
          attempts = 0;
          legs = [];
          sent_at = now;
          hedge_sent = false;
        }

(* ------------------------------------------------------------------ *)
(* Loop hooks *)

(* The worker descriptors the loop watches besides client sockets. *)
let watched t () =
  Array.to_list t.workers
  |> List.concat_map (fun w ->
         let stdout proc =
           (proc.Worker.stdout, fun () -> handle_worker_stdout t w)
         in
         match w.state with
         | Starting { proc; _ } -> [ stdout proc ]
         | Live { proc; wfd; _ } ->
             [ stdout proc; (wfd, fun () -> handle_worker_conn t w) ]
         | Idle _ | Gone -> [])

let cancel_all t reason =
  (* A hedged request holds one inflight entry per leg; cancel each
     request once. *)
  let cancelled = ref [] in
  let cancel p =
    Net.send p.pclient
      (Protocol.response_line (Protocol.Cancelled { id = p.orig_id; reason }))
  in
  Hashtbl.iter
    (fun _ p ->
      if not (List.memq p !cancelled) then begin
        cancelled := p :: !cancelled;
        cancel p
      end)
    t.inflight;
  Hashtbl.reset t.inflight;
  List.iter cancel t.parked;
  t.parked <- []

(* Stop policy: keep serving until nothing is left to answer, or until
   the grace period runs out, in which case the leftovers get
   cancelled. *)
let keep_draining t () =
  let now = Unix.gettimeofday () in
  let deadline =
    match t.drain_deadline with
    | Some d -> d
    | None ->
        t.drain_deadline <- Some (now +. t.grace);
        now +. t.grace
  in
  if Hashtbl.length t.inflight = 0 && t.parked = [] then false
  else if now > deadline then begin
    cancel_all t "shutting down";
    false
  end
  else true

(* Shut the fleet down once the loop has exited. *)
let terminate_fleet t () =
  Array.iter
    (fun w ->
      match w.state with
      | Starting { proc; _ } -> Worker.terminate proc
      | Live { proc; wfd; _ } ->
          (try Unix.close wfd with Unix.Unix_error _ -> ());
          Worker.terminate proc
      | Idle _ | Gone -> ())
    t.workers

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

type t = { net : Net.t; router : router }

let start ?(vnodes = 512) ?(max_restarts = 5) ?(restart_window_s = 30.0)
    ?(health_interval = 0.5) ?(health_timeout = 3.0) ?(start_timeout = 10.0)
    ?(grace = 10.0) ?kill_after ?(faults = Faults.disabled) ?(hedge_ms = 0)
    ?(breaker_window = 0) ?(on_event = fun (_ : event) -> ()) ~exe
    ~worker_args ~workers addr =
  if workers < 1 then invalid_arg "Router.start: workers < 1";
  if hedge_ms < 0 then invalid_arg "Router.start: hedge_ms < 0";
  if breaker_window < 0 then invalid_arg "Router.start: breaker_window < 0";
  let listener = Net.listen addr in
  let names = List.init workers (Printf.sprintf "w%d") in
  let mk name =
    {
      wname = name;
      state = Idle { until = 0.0 };  (* due immediately *)
      gate =
        Resilience.Supervisor.Restarts.create ~max_restarts
          ~window_s:restart_window_s ();
      breaker =
        (if breaker_window = 0 then None
         else Some (Breaker.create ~window:breaker_window ()));
    }
  in
  let router =
    {
      exe;
      worker_args;
      workers = Array.of_list (List.map mk names);
      ring = Ring.create ~vnodes names;
      inflight = Hashtbl.create 64;
      parked = [];
      qseq = 0;
      keys = Hashtbl.create 16;
      kill_after;
      total_forwarded = 0;
      health_interval;
      health_timeout;
      start_timeout;
      grace;
      drain_deadline = None;
      faults;
      hedge_s = float_of_int hedge_ms /. 1000.;
      delayed = [];
      on_event;
      stats_lock = Mutex.create ();
      st_forwarded = Hashtbl.create 8;
      st_rerouted = 0;
      st_restarts = 0;
      st_hedged = 0;
      st_breaker_opens = 0;
    }
  in
  (* Client connections get no socket faults: the router's chaos
     points are the [link_*] ones, on the worker legs. *)
  let net =
    Net.start ~faults:Faults.disabled ~timeout:0.05
      ~tick:(fun () -> tick router ~now:(Unix.gettimeofday ()))
      ~watch:(watched router) ~on_line:(handle_request router)
      ~drain:(keep_draining router) ~finish:(terminate_fleet router) listener
  in
  { net; router }

let stop t = Net.stop t.net
let wait t = Net.wait t.net
let bound_addr t = Net.bound t.net

let stats { router = t; _ } =
  Mutex.lock t.stats_lock;
  let forwarded =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.st_forwarded [])
  in
  let s =
    {
      forwarded;
      rerouted = t.st_rerouted;
      restarts = t.st_restarts;
      hedged = t.st_hedged;
      breaker_opens = t.st_breaker_opens;
    }
  in
  Mutex.unlock t.stats_lock;
  s
