(* The router's policy as a pure state machine — see the interface. *)

module Protocol = Service.Protocol
module Faults = Resilience.Faults
module Restarts = Resilience.Supervisor.Restarts

type event =
  | Worker_spawned of { name : string; pid : int }
  | Worker_ready of { name : string; addr : string }
  | Worker_exited of { name : string; reason : string }
  | Worker_backoff of { name : string; delay_s : float }
  | Worker_gave_up of { name : string }
  | Forwarded of { id : string; worker : string }
  | Rerouted of { id : string; worker : string }
  | Breaker_opened of { name : string }
  | Breaker_closed of { name : string }
  | Hedged of { id : string; worker : string }

type 'c input =
  | Request of { client : 'c; id : string; line : string; key : string }
  | Line of { worker : string; line : string }
  | Ready of { worker : string; addr : string }
  | Died of { worker : string; reason : string }
  | Tick
  | Drain

type 'c output =
  | Send of { worker : string; line : string }
  | Reply of { client : 'c; line : string }
  | Spawn of string
  | Terminate of string
  | Event of event

(* ------------------------------------------------------------------ *)
(* Line rewriting

   Each forwarded request gets a router-scoped id; the response's id is
   rewritten back and the serving worker's name appended, giving
   clients per-shard attribution for free. *)

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

type 'c pending = {
  client : 'c;
  orig_id : string;
  pline : string;  (** the client's original request line *)
  pkey : string;  (** consistent-hash routing key *)
  mutable attempts : int;
  mutable legs : (string * string) list;
      (** outstanding (router qid, worker name) legs, newest first;
          more than one while a hedge is in flight, never two on one
          worker *)
  mutable sent_at : float;  (** when the newest leg was forwarded *)
  mutable hedge_sent : bool;
}

type wstate =
  | Idle of { until : float }  (** waiting out a restart backoff *)
  | Starting of { since : float }
  | Live of Health.t
  | Gone  (** restart intensity exceeded; never coming back *)

type worker = {
  wname : string;
  mutable state : wstate;
  gate : Restarts.t;
  breaker : Breaker.t option;  (** [None] when --breaker-window is 0 *)
}

(* A router↔worker line a firing [delay] rule holds back until [due].
   It belongs to the worker's connection of the moment and dies with
   it ([worker_death]): a request line written to a respawned
   successor would be computed for nobody, since the dead leg was
   already re-dispatched, and a late pong would answer the successor's
   health probe. *)
type delayed = { due : float; dworker : string; dline : string; outbound : bool }

type 'c t = {
  workers : worker array;
  ring : Ring.t;
  inflight : (string, 'c pending) Hashtbl.t;  (** router id -> pending *)
  mutable parked : 'c pending list;  (** newest first; no live worker yet *)
  mutable qseq : int;
  health_interval : float;
  health_timeout : float;
  grace : float;
  mutable drain_deadline : float option;
      (** set by the first [Drain]: from then on no respawns, and
          leftovers are cancelled at this time *)
  faults : Faults.t;  (** link_send/link_recv chaos on the worker legs *)
  hedge_s : float;  (** 0 = hedging off *)
  mutable delayed : delayed list;  (** unsorted *)
  mutable out : 'c output list;  (** this step's outputs, newest first *)
}

let start_timeout = 10.0
let emit t o = t.out <- o :: t.out
let event t ev = emit t (Event ev)
let is_live w = match w.state with Live _ -> true | _ -> false
let all_gone t = Array.for_all (fun w -> w.state = Gone) t.workers
let busy t = Hashtbl.length t.inflight > 0 || t.parked <> []

(* Routing admission: alive *and* the breaker lets new traffic in. *)
let admits w =
  is_live w
  && match w.breaker with None -> true | Some b -> Breaker.admits b

(* Feed a request outcome to the worker's breaker, reporting state
   transitions as events. *)
let breaker_record t w ~ok =
  match w.breaker with
  | None -> ()
  | Some b -> (
      let before = Breaker.state b in
      Breaker.record b ~ok;
      match (before, Breaker.state b) with
      | (Breaker.Closed | Breaker.Half_open), Breaker.Open ->
          event t (Breaker_opened { name = w.wname })
      | Breaker.Half_open, Breaker.Closed ->
          event t (Breaker_closed { name = w.wname })
      | _ -> ())

(* Worker names are ours and few; linear scan is fine. *)
let worker_named t name =
  Option.get (Array.find_opt (fun w -> w.wname = name) t.workers)

(* Each in-flight request once, however many legs it has out:
   [inflight] holds one entry per leg, and a request is taken at its
   newest. *)
let requests t =
  Hashtbl.fold
    (fun qid p acc ->
      match p.legs with (q, _) :: _ when q = qid -> p :: acc | _ -> acc)
    t.inflight []

(* ------------------------------------------------------------------ *)
(* Dispatch and failover *)

let max_attempts t = (2 * Array.length t.workers) + 2

let reply t p response =
  emit t (Reply { client = p.client; line = Protocol.response_line response })

(* Answer [p]'s client with a structured failure. *)
let fail t p code reason =
  reply t p (Protocol.Error { id = Some p.orig_id; code; reason })

(* Forward one pending request to an admissible worker, or park/fail
   it. Mutually recursive with the death path: a [crash] link fault
   declares the worker dead, which re-dispatches its in-flight
   requests — bounded by [max_attempts] per request and by the restart
   gate per worker. *)
let rec dispatch t ~now p =
  if p.attempts >= max_attempts t then
    fail t p Protocol.code_engine_failed
      "no live worker could serve this request"
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
          fail t p Protocol.code_engine_failed
            "every worker exceeded its restart budget"
        else t.parked <- p :: t.parked
    | Some name -> forward t ~now (worker_named t name) p

(* Both callers pick [w] through [Ring.route ~accept:admits]. *)
and forward t ~now w p =
  t.qseq <- t.qseq + 1;
  let qid = Printf.sprintf "q%d" t.qseq in
  match rewrite_request_id p.pline ~id:qid with
  | None ->
      (* Unreachable for a line that decoded as a request object;
         answer rather than wedge the client. *)
      fail t p Protocol.code_bad_request "request line is not a JSON object"
  | Some line ->
      Hashtbl.replace t.inflight qid p;
      let rerouted = p.attempts > 0 && p.legs = [] in
      p.attempts <- p.attempts + 1;
      p.legs <- (qid, w.wname) :: p.legs;
      p.sent_at <- now;
      (* If this worker is half-open, this request is its probe. *)
      Option.iter Breaker.probe_started w.breaker;
      event t (Forwarded { id = p.orig_id; worker = w.wname });
      if rerouted then event t (Rerouted { id = p.orig_id; worker = w.wname });
      link_send t ~now w (line ^ "\n")

(* The outbound link hook: a firing [drop] loses the line in the
   network (a request's leg stays registered; the retransmit net or a
   hedge recovers it), a [delay] defers the send to [tick], a [crash]
   kills the connection. *)
and link_send t ~now w line =
  match Faults.link t.faults Faults.Link_send with
  | exception Faults.Injected _ -> worker_death t ~now w "link fault"
  | `Drop -> ()
  | `Delay d ->
      t.delayed <-
        { due = now +. d; dworker = w.wname; dline = line; outbound = true }
        :: t.delayed
  | `Pass -> emit t (Send { worker = w.wname; line })

and flush_parked t ~now =
  let parked = List.rev t.parked in
  t.parked <- [];
  List.iter (dispatch t ~now) parked

(* A worker is dead (EOF, failed write, health timeout, startup
   failure): reap it, re-route everything it owed, and schedule the
   respawn — or give up if it is crash-looping faster than the restart
   gate allows. *)
and worker_death t ~now w reason =
  emit t (Terminate w.wname);
  event t (Worker_exited { name = w.wname; reason });
  t.delayed <- List.filter (fun d -> d.dworker <> w.wname) t.delayed;
  (match Restarts.record ~now w.gate with
  | `Backoff d ->
      w.state <- Idle { until = now +. d };
      event t (Worker_backoff { name = w.wname; delay_s = d })
  | `Give_up ->
      w.state <- Gone;
      event t (Worker_gave_up { name = w.wname });
      (* Nobody is ever coming back for the parked requests: re-dispatch
         fails each with the restart-budget answer. *)
      if all_gone t then flush_parked t ~now);
  (* Cut the dead worker's legs. A request whose only leg it was gets
     re-dispatched — safe to re-send: workers dedup/coalesce identical
     requests and share the verdict cache, so a request the dead
     worker had in fact completed is answered again, cheaply, by its
     successor. A hedged request with a surviving leg elsewhere just
     loses the dead leg. *)
  let on_w (_, wn) = wn = w.wname in
  let orphans = List.filter (fun p -> List.exists on_w p.legs) (requests t) in
  List.iter
    (fun p ->
      let dead, live = List.partition on_w p.legs in
      List.iter (fun (q, _) -> Hashtbl.remove t.inflight q) dead;
      p.legs <- live)
    orphans;
  List.iter (fun p -> if p.legs = [] then dispatch t ~now p) orphans

(* ------------------------------------------------------------------ *)
(* Worker lines *)

(* Deliver [line] (from [worker]) as the answer to [p]: cancel every
   outstanding leg — a late duplicate from a hedge loser then finds no
   inflight entry and is dropped — and reply with the rewritten
   response. *)
let deliver t p line ~worker =
  List.iter (fun (q, _) -> Hashtbl.remove t.inflight q) p.legs;
  p.legs <- [];
  match rewrite_response_line ~hedged:p.hedge_sent line ~id:p.orig_id ~worker with
  | Some out -> emit t (Reply { client = p.client; line = out ^ "\n" })
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
      Option.iter Breaker.note_pong w.breaker;
      match w.state with Live health -> Health.pong ~now health id | _ -> ())
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

(* The inbound link hook, applied per line: [drop] discards the line
   (pongs included — that is what a partition looks like from this
   side), [delay] defers its processing to [tick], [crash] kills the
   connection. *)
let link_recv t ~now w line =
  match Faults.link t.faults Faults.Link_recv with
  | `Pass -> process_worker_line t ~now w line
  | `Drop -> ()
  | `Delay d ->
      t.delayed <-
        { due = now +. d; dworker = w.wname; dline = line; outbound = false }
        :: t.delayed
  | exception Faults.Injected _ -> worker_death t ~now w "link fault"

(* ------------------------------------------------------------------ *)
(* Time *)

(* Flush delayed-link messages whose due time has passed: a send goes
   out, a recv is processed as if it had just arrived. Neither kills a
   worker, so every due message still belongs to a live connection. *)
let deliver_delayed t ~now =
  let due, later = List.partition (fun d -> d.due <= now) t.delayed in
  t.delayed <- later;
  List.iter
    (fun d ->
      if d.outbound then emit t (Send { worker = d.dworker; line = d.dline })
      else process_worker_line t ~now (worker_named t d.dworker) d.dline)
    (List.rev due)

(* Hedging and the retransmit net.

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
            event t (Hedged { id = p.orig_id; worker = name });
            forward t ~now (worker_named t name) p)
    (requests t)

(* Respawns due, start timeouts, health probes, delayed link messages,
   hedges/retransmits, and parked requests a breaker transition may
   have unblocked. *)
let tick t ~now =
  Array.iter
    (fun w ->
      match w.state with
      | Idle { until } when until <= now && t.drain_deadline = None ->
          w.state <- Starting { since = now };
          emit t (Spawn w.wname)
      | Starting { since } when now -. since > start_timeout ->
          worker_death t ~now w "start timeout"
      | Live health -> (
          if Health.overdue ~now health then
            worker_death t ~now w "health timeout"
          else
            match Health.next_ping ~now health with
            | None -> ()
            | Some id ->
                (* Pings ride the same link as requests: a dropped ping
                   never pongs, so a partitioned-off worker fails its
                   health check exactly like a dead one. *)
                link_send t ~now w (Json.to_string (Protocol.ping ~id) ^ "\n"))
      | _ -> ())
    t.workers;
  deliver_delayed t ~now;
  hedge_and_retransmit t ~now;
  if t.parked <> [] && Array.exists admits t.workers then flush_parked t ~now

(* Stop policy: keep serving until nothing is left to answer, or until
   the grace period runs out, when the leftovers get cancelled. *)
let drain t ~now =
  let deadline = Option.value t.drain_deadline ~default:(now +. t.grace) in
  t.drain_deadline <- Some deadline;
  if busy t && now > deadline then begin
    let cancel p =
      reply t p (Protocol.Cancelled { id = p.orig_id; reason = "shutting down" })
    in
    List.iter cancel (requests t);
    Hashtbl.reset t.inflight;
    List.iter cancel t.parked;
    t.parked <- []
  end

(* ------------------------------------------------------------------ *)
(* The machine *)

let step t ~now input =
  (match input with
  | Request { client; id; line; key } ->
      dispatch t ~now
        {
          client;
          orig_id = id;
          pline = line;
          pkey = key;
          attempts = 0;
          legs = [];
          sent_at = now;
          hedge_sent = false;
        }
  | Line { worker; line } ->
      (* Lines the shell read after the connection died (later lines
         of the chunk that carried a link crash) are not evidence. *)
      let w = worker_named t worker in
      if is_live w then link_recv t ~now w line
  | Ready { worker; addr } ->
      let w = worker_named t worker in
      w.state <-
        Live
          (Health.create ~interval:t.health_interval
             ~timeout:t.health_timeout ~now worker);
      (* A restarted worker gets a clean slate: whatever tripped the
         breaker died with the old process. *)
      Option.iter Breaker.reset w.breaker;
      event t (Worker_ready { name = worker; addr });
      flush_parked t ~now
  | Died { worker; reason } -> (
      let w = worker_named t worker in
      match w.state with
      | Starting _ | Live _ -> worker_death t ~now w reason
      | Idle _ | Gone -> ())
  | Tick -> tick t ~now
  | Drain -> drain t ~now);
  let out = List.rev t.out in
  t.out <- [];
  out

let create ~vnodes ~max_restarts ~restart_window_s ~health_interval
    ~health_timeout ~grace ~faults ~hedge_ms ~breaker_window ~workers =
  if workers < 1 then invalid_arg "Dispatch.create: workers < 1";
  if hedge_ms < 0 then invalid_arg "Dispatch.create: hedge_ms < 0";
  if breaker_window < 0 then invalid_arg "Dispatch.create: breaker_window < 0";
  let names = List.init workers (Printf.sprintf "w%d") in
  let mk name =
    {
      wname = name;
      state = Idle { until = 0.0 };  (* due at the first tick *)
      gate = Restarts.create ~max_restarts ~window_s:restart_window_s ();
      breaker =
        (if breaker_window = 0 then None
         else Some (Breaker.create ~window:breaker_window ()));
    }
  in
  {
    workers = Array.of_list (List.map mk names);
    ring = Ring.create ~vnodes names;
    inflight = Hashtbl.create 64;
    parked = [];
    qseq = 0;
    health_interval;
    health_timeout;
    grace;
    drain_deadline = None;
    faults;
    hedge_s = float_of_int hedge_ms /. 1000.;
    delayed = [];
    out = [];
  }
