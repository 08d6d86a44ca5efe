(* Bounded-queue scheduler with coalescing and deadlines — see the
   interface for the design. *)

open Tta_model

type waiter = {
  cb : outcome -> unit;
  wcfg : Configs.t;
      (** the configuration this waiter asked about; it may differ
          from the computation's when both name one transition
          system *)
  wdeadline : float;  (** absolute; [infinity] = none *)
  submitted_at : float;
  joined : bool;  (** coalesced onto an existing computation *)
}

and outcome = {
  result : Portfolio.result;
  coalesced : bool;
  queue_ms : float;
  expired : bool;
  reused_session : bool;
  warm_depth : int;
  clean_depth : int;
      (** largest depth certified counterexample-free by the request's
          warm session ([-1] when none) — what a degraded answer
          reports when the verdict is inconclusive *)
}

type comp = {
  ckey : string;
  cfg : Configs.t;
  engines : Engine.id list;
  max_depth : int;
  family : string option;
  mutable waiters : waiter list;  (** newest first; delivered reversed *)
  deadline : float Atomic.t;
      (** max over the waiters' deadlines ([infinity] dominates);
          written under the scheduler lock, read lock-free by the
          run's cancel hook *)
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : comp Queue.t;
  queue_cap : int;
  inflight : (string, comp) Hashtbl.t;
      (** every accepted computation, queued or running — the
          coalescing window spans the whole run *)
  cache : Portfolio.Cache.t option;
  sessions : Sessions.t option;
  supervisor : Resilience.Supervisor.policy;
  faults : Resilience.Faults.t;
  mutable draining : bool;
  mutable running : int;
  force : bool Atomic.t;  (** drain watchdog: cancel in-flight runs *)
  stopped : bool Atomic.t;
  mutable workers : unit Domain.t array;
  (* stats (under [lock]) *)
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_coalesced : int;
  mutable s_shed : int;
  mutable s_cache_hits : int;
  mutable s_runs : int;
  mutable s_expired : int;
  mutable s_session_reuses : int;
  (* observability ("service" track) *)
  track : Obs.t;
  c_submitted : Obs.cell;
  c_completed : Obs.cell;
  c_coalesced : Obs.cell;
  c_shed : Obs.cell;
  c_cache_hits : Obs.cell;
  c_runs : Obs.cell;
  c_expired : Obs.cell;
  c_session_reuses : Obs.cell;
  g_queue : Obs.cell;
  g_inflight : Obs.cell;
}

let now () = Unix.gettimeofday ()

(* A waiter that joined under another name of the same transition
   system gets its own configuration back, and on a violation its own
   model value, so a name never leaks into another request's answer. *)
let relabel (r : Portfolio.result) cfg =
  if r.Portfolio.config = cfg then r
  else
    let verdict =
      match r.Portfolio.verdict with
      | Engine.Violated { trace; _ } ->
          Engine.Violated { trace; model = Build.model cfg }
      | v -> v
    in
    { r with Portfolio.config = cfg; verdict }

(* The family override is part of the coalescing identity: a waiter
   must never inherit another submitter's session-routing key (its
   attribution — and session bucket — would come from the other
   request's family). *)
let ckey_of ~model ~engines ~max_depth ~family =
  let base =
    String.concat "+"
      (List.map
         (fun e -> Portfolio.Cache.key ~model ~engine:e ~max_depth)
         engines)
  in
  match family with None -> base | Some f -> base ^ "@" ^ f

(* ------------------------------------------------------------------ *)
(* Workers *)

let no_attr = { Sessions.reused = false; warm_depth = 0; clean_depth = -1 }

let deliver t comp ~(result : Portfolio.result) ?(attr = no_attr) ~ran
    ~started_at () =
  Mutex.lock t.lock;
  Hashtbl.remove t.inflight comp.ckey;
  let waiters = List.rev comp.waiters in
  comp.waiters <- [];
  if ran then t.s_runs <- t.s_runs + 1;
  t.s_completed <- t.s_completed + List.length waiters;
  Mutex.unlock t.lock;
  if ran then Obs.tick t.c_runs;
  Obs.add t.c_completed (List.length waiters);
  let conclusive = Portfolio.conclusive result.Portfolio.verdict in
  let at = now () in
  let n_expired = ref 0 in
  List.iter
    (fun w ->
      let expired = (not conclusive) && w.wdeadline < at in
      if expired then incr n_expired;
      let queue_ms = Float.max 0. ((started_at -. w.submitted_at) *. 1000.) in
      w.cb
        {
          result = relabel result w.wcfg;
          coalesced = w.joined;
          queue_ms;
          expired;
          reused_session = attr.Sessions.reused;
          warm_depth = attr.Sessions.warm_depth;
          clean_depth = attr.Sessions.clean_depth;
        })
    waiters;
  if !n_expired > 0 then begin
    Mutex.lock t.lock;
    t.s_expired <- t.s_expired + !n_expired;
    Mutex.unlock t.lock;
    Obs.add t.c_expired !n_expired
  end

let skip_result comp detail =
  {
    Portfolio.config = comp.cfg;
    engine = List.hd comp.engines;
    verdict = Engine.Unknown { detail };
    wall_s = 0.;
    cache_hit = false;
    runs = [];
    failures = [];
  }

(* A request is session-eligible when a pool is attached and it asks
   for SAT BMC alone: the warm-session fast path is an alternative to
   the portfolio chain, not a link inside it. *)
let session_pool t comp =
  match (t.sessions, comp.engines) with
  | Some pool, [ Engine.Sat_bmc ] -> Some pool
  | _ -> None

(* Run the request on a warm session of its family instead of a cold
   portfolio chain, under the same supervision policy and fault hooks
   as the portfolio path. Conclusive verdicts still feed the shared
   cache, so session-path answers are visible to later cache
   lookups. *)
let run_on_session t comp ~pool ~cancel =
  let engine = Engine.Sat_bmc in
  let t0 = now () in
  match
    Sessions.run pool ~engine ~cancel ~supervisor:t.supervisor
      ~faults:t.faults ?family:comp.family ~max_depth:comp.max_depth comp.cfg
  with
  | r, attr ->
      let wall_s = now () -. t0 in
      let verdict = r.Engine.verdict in
      Portfolio.cache_store t.cache ~model:(Build.model comp.cfg) ~engine
        ~max_depth:comp.max_depth verdict;
      if attr.Sessions.reused then begin
        Mutex.lock t.lock;
        t.s_session_reuses <- t.s_session_reuses + 1;
        Mutex.unlock t.lock;
        Obs.tick t.c_session_reuses
      end;
      ( {
          Portfolio.config = comp.cfg;
          engine;
          verdict;
          wall_s;
          cache_hit = false;
          runs = [ (engine, verdict, wall_s) ];
          failures = [];
        },
        attr )
  | exception e ->
      (* Retries exhausted (or a non-engine bug): parity with the
         portfolio path — a recorded failure the protocol layer turns
         into [engine_failed], not an exception unwinding the worker.
         [Engine_failed] additionally carries the best clean depth the
         failed attempts certified, so the answer can degrade with
         content instead of erroring empty-handed. *)
      let msg, clean_depth =
        match e with
        | Sessions.Engine_failed { message; clean_depth } ->
            (message, clean_depth)
        | e -> (Printexc.to_string e, -1)
      in
      ( {
          Portfolio.config = comp.cfg;
          engine;
          verdict = Engine.Unknown { detail = "engine failed: " ^ msg };
          wall_s = now () -. t0;
          cache_hit = false;
          runs = [];
          failures = [ (engine, msg) ];
        },
        { no_attr with Sessions.clean_depth } )

let execute t comp =
  let started_at = now () in
  let skip =
    if Atomic.get t.force then Some "cancelled by shutdown drain"
    else if Atomic.get comp.deadline < started_at then
      Some "deadline expired before the run started"
    else None
  in
  let result, attr, ran =
    match skip with
    | Some detail ->
        (* Never ran — but an idle warm session of the family may
           already have certified depths worth reporting. *)
        let clean_depth =
          match session_pool t comp with
          | Some pool ->
              Sessions.peek_clean_depth pool ?family:comp.family comp.cfg
          | None -> -1
        in
        (skip_result comp detail, { no_attr with Sessions.clean_depth }, false)
    | None ->
        let cancel () =
          Atomic.get t.force || now () > Atomic.get comp.deadline
        in
        let span =
          Obs.start t.track
            ~args:[ ("config", Configs.name comp.cfg) ]
            "service.run"
        in
        let r, attr =
          match session_pool t comp with
          | Some pool -> run_on_session t comp ~pool ~cancel
          | None ->
              (* [submit] already probed the cache for this request, so
                 the chain runs without it and its verdict is stored
                 here. *)
              let r =
                Portfolio.race ~cancel ~engines:comp.engines
                  ~max_depth:comp.max_depth ~supervisor:t.supervisor
                  ~faults:t.faults comp.cfg
              in
              Portfolio.cache_store t.cache ~model:(Build.model comp.cfg)
                ~engine:r.Portfolio.engine ~max_depth:comp.max_depth
                r.Portfolio.verdict;
              (r, no_attr)
        in
        Obs.stop span;
        (r, attr, true)
  in
  deliver t comp ~result ~attr ~ran ~started_at ()

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.draining do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock
    (* draining and nothing left: done *)
  else begin
    let comp = Queue.pop t.queue in
    t.running <- t.running + 1;
    Obs.record t.g_inflight t.running;
    Mutex.unlock t.lock;
    (match execute t comp with
    | () -> ()
    | exception e ->
        (* An engine exception must not kill the worker; answer the
           waiters inconclusively instead of leaving them hanging. *)
        deliver t comp
          ~result:(skip_result comp ("engine exception: " ^ Printexc.to_string e))
          ~ran:true ~started_at:(now ()) ());
    Mutex.lock t.lock;
    t.running <- t.running - 1;
    Mutex.unlock t.lock;
    worker_loop t
  end

(* ------------------------------------------------------------------ *)
(* Construction, submission, drain *)

let create ?workers ?(queue_cap = 64) ?cache ?sessions ?obs
    ?(supervisor = Resilience.Supervisor.default)
    ?(faults = Resilience.Faults.disabled) () =
  let workers_n =
    match workers with
    | None -> Portfolio.Pool.default_domains ()
    | Some n when n < 1 -> invalid_arg "Scheduler.create: workers < 1"
    | Some n -> n
  in
  if queue_cap < 1 then invalid_arg "Scheduler.create: queue_cap < 1";
  let track =
    match obs with
    | None -> Obs.disabled
    | Some col -> Obs.Collector.track col "service"
  in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      queue_cap;
      inflight = Hashtbl.create 64;
      cache;
      sessions;
      supervisor;
      faults;
      draining = false;
      running = 0;
      force = Atomic.make false;
      stopped = Atomic.make false;
      workers = [||];
      s_submitted = 0;
      s_completed = 0;
      s_coalesced = 0;
      s_shed = 0;
      s_cache_hits = 0;
      s_runs = 0;
      s_expired = 0;
      s_session_reuses = 0;
      track;
      c_submitted = Obs.counter track "service.submitted";
      c_completed = Obs.counter track "service.completed";
      c_coalesced = Obs.counter track "service.coalesced";
      c_shed = Obs.counter track "service.shed";
      c_cache_hits = Obs.counter track "service.cache_hits";
      c_runs = Obs.counter track "service.runs";
      c_expired = Obs.counter track "service.expired";
      c_session_reuses = Obs.counter track "service.session_reuses";
      g_queue = Obs.gauge track "service.queue_depth";
      g_inflight = Obs.gauge track "service.inflight";
    }
  in
  t.workers <-
    Array.init workers_n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t ?deadline ?family ~engines ~max_depth ~callback cfg =
  if engines = [] then invalid_arg "Scheduler.submit: empty engine list";
  let dl = match deadline with None -> infinity | Some d -> d in
  let at = now () in
  if Mutex.protect t.lock (fun () -> t.draining) then `Draining
  else begin
    (* The cache probe reads and checks an entry file and, on a hit,
       draws an LRU ticket: file I/O that must not hold [t.lock], which
       the workers need to pop and deliver. A verdict stored between
       this probe and the [inflight] check below costs at most one
       redundant run, never a wrong answer. *)
    let model = Build.model cfg in
    let cached = Portfolio.cache_probe t.cache ~model ~engines ~max_depth in
    let ckey = ckey_of ~model ~engines ~max_depth ~family in
    Mutex.lock t.lock;
    match cached with
    | Some (e, v) ->
        t.s_submitted <- t.s_submitted + 1;
        t.s_cache_hits <- t.s_cache_hits + 1;
        t.s_completed <- t.s_completed + 1;
        Mutex.unlock t.lock;
        Obs.tick t.c_submitted;
        Obs.tick t.c_cache_hits;
        Obs.tick t.c_completed;
        callback
          {
            result =
              {
                Portfolio.config = cfg;
                engine = e;
                verdict = v;
                wall_s = 0.;
                cache_hit = true;
                runs = [];
                failures = [];
              };
            coalesced = false;
            queue_ms = 0.;
            expired = false;
            reused_session = false;
            warm_depth = 0;
            clean_depth = -1;
          };
        `Cache_hit
    | None when t.draining ->
        (* drain began during the probe: the workers may be gone *)
        Mutex.unlock t.lock;
        `Draining
    | None -> (
        let waiter ~joined =
          {
            cb = callback;
            wcfg = cfg;
            wdeadline = dl;
            submitted_at = at;
            joined;
          }
        in
        match Hashtbl.find_opt t.inflight ckey with
        | Some comp ->
            comp.waiters <- waiter ~joined:true :: comp.waiters;
            Atomic.set comp.deadline (Float.max (Atomic.get comp.deadline) dl);
            t.s_submitted <- t.s_submitted + 1;
            t.s_coalesced <- t.s_coalesced + 1;
            Mutex.unlock t.lock;
            Obs.tick t.c_submitted;
            Obs.tick t.c_coalesced;
            `Coalesced
        | None ->
            if Queue.length t.queue >= t.queue_cap then begin
              t.s_shed <- t.s_shed + 1;
              Mutex.unlock t.lock;
              Obs.tick t.c_shed;
              `Shed
            end
            else begin
              let comp =
                {
                  ckey;
                  cfg;
                  engines;
                  max_depth;
                  family;
                  waiters = [ waiter ~joined:false ];
                  deadline = Atomic.make dl;
                }
              in
              Queue.push comp t.queue;
              Hashtbl.add t.inflight ckey comp;
              t.s_submitted <- t.s_submitted + 1;
              let depth = Queue.length t.queue in
              Condition.signal t.nonempty;
              Mutex.unlock t.lock;
              Obs.tick t.c_submitted;
              Obs.record t.g_queue depth;
              `Queued
            end)
  end

let drain ?grace t =
  Mutex.lock t.lock;
  t.draining <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  let watchdog =
    Option.map
      (fun g ->
        Domain.spawn (fun () ->
            let stop_at = now () +. g in
            while (not (Atomic.get t.stopped)) && now () < stop_at do
              Unix.sleepf 0.01
            done;
            Atomic.set t.force true))
      grace
  in
  Array.iter Domain.join t.workers;
  t.workers <- [||];
  Atomic.set t.stopped true;
  Option.iter Domain.join watchdog

type stats = {
  submitted : int;
  completed : int;
  coalesced : int;
  shed : int;
  cache_hits : int;
  runs : int;
  expired : int;
  session_reuses : int;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      submitted = t.s_submitted;
      completed = t.s_completed;
      coalesced = t.s_coalesced;
      shed = t.s_shed;
      cache_hits = t.s_cache_hits;
      runs = t.s_runs;
      expired = t.s_expired;
      session_reuses = t.s_session_reuses;
    }
  in
  Mutex.unlock t.lock;
  s

let queue_depth t =
  Mutex.lock t.lock;
  let d = Queue.length t.queue in
  Mutex.unlock t.lock;
  d

let inflight t =
  Mutex.lock t.lock;
  let r = t.running in
  Mutex.unlock t.lock;
  r
