(* The verification daemon's front end: protocol lines from {!Net}'s
   loop to the {!Scheduler} and back — see the interface. *)

type t = Net.t

(* ------------------------------------------------------------------ *)
(* Request handling *)

let verdict_of (o : Scheduler.outcome) =
  match o.Scheduler.result.Portfolio.verdict with
  | Tta_model.Engine.Holds { detail } -> Protocol.Holds { detail }
  | Tta_model.Engine.Unknown { detail } ->
      Protocol.Unknown
        {
          detail;
          reason = (if o.Scheduler.expired then Some "deadline_exceeded" else None);
        }
  | Tta_model.Engine.Violated { trace; _ } ->
      Protocol.Violated
        {
          steps = Array.length trace;
          trace =
            Array.to_list
              (Array.map
                 (fun state ->
                   Array.to_list
                     (Array.map Symkit.Expr.value_to_string state))
                 trace);
        }

let answer_of ~id (o : Scheduler.outcome) =
  let r = o.Scheduler.result in
  (* Graceful degradation: an inconclusive outcome whose warm session
     already certified some depths answers with that content instead
     of a contentless failure — [code] says whether the engine died or
     the deadline ran out. *)
  let degraded code =
    Protocol.Degraded
      {
        id;
        code;
        clean_depth = o.Scheduler.clean_depth;
        engine = Tta_model.Engine.id_to_string r.Portfolio.engine;
        wall_ms = r.Portfolio.wall_s *. 1000.;
        queue_ms = o.Scheduler.queue_ms;
        reused_session = o.Scheduler.reused_session;
        warm_depth = o.Scheduler.warm_depth;
      }
  in
  (* A run in which every engine crashed or hung is not a verdict; it
     is a structured failure the client may retry. *)
  if Portfolio.all_failed r then
    if o.Scheduler.clean_depth >= 0 then degraded Protocol.code_engine_failed
    else
      Protocol.Error
        {
          id = Some id;
          code = Protocol.code_engine_failed;
          reason =
            (match r.Portfolio.verdict with
            | Tta_model.Engine.Unknown { detail } -> detail
            | _ -> "all engines failed");
        }
  else if
    o.Scheduler.expired && o.Scheduler.clean_depth >= 0
    && match r.Portfolio.verdict with
       | Tta_model.Engine.Unknown _ -> true
       | _ -> false
  then degraded Protocol.code_deadline_exceeded
  else
    Protocol.Answer
      {
        id;
        verdict = verdict_of o;
        engine = Tta_model.Engine.id_to_string r.Portfolio.engine;
        cache_hit = r.Portfolio.cache_hit;
        coalesced = o.Scheduler.coalesced;
        wall_ms = r.Portfolio.wall_s *. 1000.;
        queue_ms = o.Scheduler.queue_ms;
        reused_session = o.Scheduler.reused_session;
        warm_depth = o.Scheduler.warm_depth;
      }

let handle_line sched conn line =
  match Protocol.decode_incoming_line line with
  | Error reason ->
      Net.send conn
        (Protocol.response_line
           (Protocol.Error
              {
                id = Protocol.request_id_of_line line;
                code = Protocol.code_bad_request;
                reason;
              }))
  | Ok (Protocol.Ping { id }) ->
      (* Liveness probe: answered inline from the select loop, so a
         pong round-trip measures the daemon's event loop, not its
         verification backlog. *)
      Net.send conn (Protocol.response_line (Protocol.Pong { id }))
  | Ok (Protocol.Verify req) -> (
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
          req.Protocol.deadline_ms
      in
      let id = req.Protocol.id in
      let reply = Net.defer conn in
      let callback o = reply (Protocol.response_line (answer_of ~id o)) in
      match
        Scheduler.submit sched ?deadline ?family:req.Protocol.family
          ~engines:req.Protocol.engines ~max_depth:req.Protocol.max_depth
          ~callback req.Protocol.cfg
      with
      | `Queued | `Coalesced | `Cache_hit -> ()
      | `Shed -> reply (Protocol.response_line (Protocol.Overloaded { id }))
      | `Draining ->
          reply
            (Protocol.response_line
               (Protocol.Cancelled { id; reason = "shutting down" })))

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start ?workers ?queue_cap ?cache ?sessions ?obs
    ?(faults = Resilience.Faults.disabled) ?(grace = 5.0) addr =
  let listener = Net.listen addr in
  let sched =
    Scheduler.create ?workers ?queue_cap ?cache ?sessions ?obs ~faults ()
  in
  (* Stop policy: leave the loop at once — no new connections or
     requests, buffered but unsubmitted bytes discarded — then answer
     every accepted computation (the workers keep writing replies while
     the drain blocks) before the connections close. *)
  Net.start ~faults ~timeout:(-1.) ~on_line:(handle_line sched)
    ~drain:(fun () -> false)
    ~finish:(fun () -> Scheduler.drain ~grace sched)
    listener

let stop = Net.stop
let wait = Net.wait
let bound_addr = Net.bound

let serve ?workers ?queue_cap ?cache ?sessions ?obs ?faults ?grace
    ?(on_ready = fun (_ : t) -> ()) addr =
  let t =
    start ?workers ?queue_cap ?cache ?sessions ?obs ?faults ?grace addr
  in
  Net.stop_on_signals (fun () -> stop t);
  on_ready t;
  wait t
