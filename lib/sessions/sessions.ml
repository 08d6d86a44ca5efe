(* The warm-session pool: live incremental BMC sessions keyed by family
   fingerprint, checked out exclusively and returned after each
   request. A client-supplied family only picks the bucket; every entry
   carries the fingerprint of the model it encodes, verified at
   checkout, so a stale or mismatched override can never serve solver
   state for a different configuration. See sessions.mli and
   doc/sessions.md for the contract. *)

open Symkit
module Engine = Tta_model.Engine

type entry = {
  family : string;  (** pool bucket key: the override, or [fp] *)
  fp : string;
      (** fingerprint of [model] — the state this entry actually
          encodes, verified against the request's at checkout *)
  model : Model.t;
  enc : Enc.t;
  bmc : Bmc.t;
  mutable last_used : int;  (** pool sequence number at last check-in *)
}

type t = {
  lock : Mutex.t;
  capacity : int;
  warm : (string, entry list ref) Hashtbl.t;
  mutable seq : int;
  mutable nidle : int;
  mutable hits : int;
  mutable misses : int;
  mutable mismatches : int;
  mutable evictions : int;
  mutable discards : int;
}

type attribution = { reused : bool; warm_depth : int; clean_depth : int }

exception Engine_failed of { message : string; clean_depth : int }

type stats = {
  hits : int;
  misses : int;
  mismatches : int;
  evictions : int;
  discards : int;
  idle : int;
}

let create ?(capacity = 32) () =
  {
    lock = Mutex.create ();
    capacity = max 1 capacity;
    warm = Hashtbl.create 64;
    seq = 0;
    nidle = 0;
    hits = 0;
    misses = 0;
    mismatches = 0;
    evictions = 0;
    discards = 0;
  }

let family_of cfg = Model.fingerprint (Tta_model.Build.model cfg)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        mismatches = t.mismatches;
        evictions = t.evictions;
        discards = t.discards;
        idle = t.nidle;
      })

(* Pop an idle entry of the family whose fingerprint matches the
   request's model, if any. Exclusive by construction: a popped entry
   is invisible to other workers until checked back in. Entries whose
   fingerprint differs (the bucket was named by a [family] override
   covering other configurations) stay warm for the requests they
   belong to — handing one out would answer for the wrong model. *)
let checkout t ~family ~fp model =
  let cached =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.warm family with
        | Some r -> (
            let rec take acc = function
              | [] -> None
              | e :: rest when e.fp = fp -> Some (e, List.rev_append acc rest)
              | e :: rest -> take (e :: acc) rest
            in
            match take [] !r with
            | Some (e, rest) ->
                r := rest;
                if rest = [] then Hashtbl.remove t.warm family;
                t.nidle <- t.nidle - 1;
                t.hits <- t.hits + 1;
                Some e
            | None ->
                (* The bucket is never empty (removed at last pop), so
                   reaching here means every idle entry under this key
                   encodes a different model. *)
                t.mismatches <- t.mismatches + 1;
                t.misses <- t.misses + 1;
                None)
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match cached with
  | Some e -> (e, true)
  | None ->
      let enc = Enc.create (Bdd.create_manager ()) model in
      let bmc = Bmc.create enc in
      ({ family; fp; model; enc; bmc; last_used = 0 }, false)

(* Drop the globally least-recently-used idle entry. Called with the
   lock held. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun family r ->
      List.iter
        (fun e ->
          match !victim with
          | Some (_, v) when v.last_used <= e.last_used -> ()
          | _ -> victim := Some (family, e))
        !r)
    t.warm;
  match !victim with
  | None -> ()
  | Some (family, v) ->
      let r = Hashtbl.find t.warm family in
      r := List.filter (fun e -> e != v) !r;
      if !r = [] then Hashtbl.remove t.warm family;
      t.nidle <- t.nidle - 1;
      t.evictions <- t.evictions + 1

let checkin t e =
  Mutex.protect t.lock (fun () ->
      t.seq <- t.seq + 1;
      e.last_used <- t.seq;
      (match Hashtbl.find_opt t.warm e.family with
      | Some r -> r := e :: !r
      | None -> Hashtbl.add t.warm e.family (ref [ e ]));
      t.nidle <- t.nidle + 1;
      while t.nidle > t.capacity do
        evict_lru t
      done)

let discard t _e = Mutex.protect t.lock (fun () -> t.discards <- t.discards + 1)

(* Read an idle entry's certified clean depth for [bad] without
   checking it out — a lock-held memo peek, so a request that never
   got to run (deadline already past) can still report certified
   content. [-1] when no matching idle entry exists. *)
let peek_clean_depth t ?family cfg =
  let model = Tta_model.Build.model cfg in
  let fp = Model.fingerprint model in
  let family = match family with Some f -> f | None -> fp in
  let bad =
    Tta_model.Props.integrated_node_frozen ~nodes:cfg.Tta_model.Configs.nodes
  in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.warm family with
      | None -> -1
      | Some r ->
          List.fold_left
            (fun acc e ->
              if e.fp = fp then max acc (Bmc.clean_depth e.bmc ~bad) else acc)
            (-1) !r)

let flush obs pairs = List.iter (fun (n, v) -> Obs.incr_by obs n v) pairs

(* Per-query counter deltas: the pooled session's counters are
   cumulative over its whole life, so diff a snapshot taken at
   checkout. *)
let delta before after =
  List.map
    (fun (name, v1) ->
      let v0 = try List.assoc name before with Not_found -> 0 in
      (name, v1 - v0))
    after

let run t ~engine ?cancel ?obs ?family ?supervisor ?faults ~max_depth cfg =
  (match engine with
  | Engine.Sat_bmc | Engine.Sat_induction -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Sessions.run: %s is not session-backed"
           (Engine.id_to_string engine)));
  let model = Tta_model.Build.model cfg in
  let fp = Model.fingerprint model in
  (* The override only names the bucket (e.g. a per-tenant key); the
     fingerprint carried by every entry is what guarantees the
     checked-out state encodes this request's model. *)
  let family = match family with Some f -> f | None -> fp in
  let bad =
    Tta_model.Props.integrated_node_frozen ~nodes:cfg.Tta_model.Configs.nodes
  in
  let name = Engine.id_to_string engine in
  let obs =
    match obs with
    | Some o when Obs.enabled o -> o
    | _ -> Obs.Collector.track (Obs.Collector.create ()) name
  in
  (* Best certified clean depth across failed attempts — read before
     each failed session is discarded, so exhausted retries can still
     answer with content (the degraded verdict). *)
  let best_clean = ref (-1) in
  (* One attempt: checkout, solve, then check-in — or discard when the
     solve raised. Retrying it is Resilience.Supervisor's job. *)
  let attempt ~cancel =
    let entry, reused = checkout t ~family ~fp model in
    let warm_depth = Bmc.depth entry.bmc in
    let c0 = Bmc.counters entry.bmc in
    let verdict =
      try
        let sp = Obs.start obs ~args:[ ("engine", name) ] "engine.run" in
        Fun.protect
          ~finally:(fun () -> Obs.stop sp)
          (fun () ->
            match engine with
            | Engine.Sat_bmc -> (
                match
                  Bmc.check_session ~max_depth ~cancel ~obs entry.bmc ~bad
                with
                | Bmc.Counterexample trace ->
                    Engine.Violated { trace; model = entry.model }
                | Bmc.No_counterexample (Some d) when d >= max_depth ->
                    Engine.Holds
                      {
                        detail =
                          Printf.sprintf "no counterexample up to depth %d" d;
                      }
                | Bmc.No_counterexample (Some d) ->
                    (* Cancelled mid-scan: the bounded claim stops short
                       of the requested bound — demoted exactly as the
                       portfolio demotes a cancelled BMC run. *)
                    Engine.Unknown
                      {
                        detail =
                          Printf.sprintf
                            "cancelled: no counterexample up to depth %d \
                             (bound %d)"
                            d max_depth;
                      }
                | Bmc.No_counterexample None ->
                    Engine.Unknown
                      { detail = "cancelled before depth 0 completed" })
            | Engine.Sat_induction -> (
                (* A fresh step session per request; the base case runs
                   on the pooled warm BMC session (and deepens its memo
                   for future BMC queries of the family). *)
                let ind = Induction.create ~base:entry.bmc entry.enc ~bad in
                let r =
                  Induction.check_session ~max_k:max_depth ~cancel ~obs ind
                in
                flush obs (Induction.step_counters ind);
                match r with
                | Induction.Refuted trace ->
                    Engine.Violated { trace; model = entry.model }
                | Induction.Proved k ->
                    Engine.Holds
                      { detail = Printf.sprintf "k-inductive at k = %d" k }
                | Induction.Unknown k ->
                    Engine.Unknown
                      {
                        detail =
                          Printf.sprintf
                            "not k-inductive up to k = %d (and no \
                             counterexample)"
                            k;
                      })
            | _ -> assert false)
      with e ->
        (* A raised run may leave the session in an inconsistent state:
           never return it to the pool — but read off how far it got
           first; the memo is plain data and survives any solver
           corruption the raise implies. *)
        best_clean := max !best_clean (Bmc.clean_depth entry.bmc ~bad);
        discard t entry;
        raise e
    in
    flush obs (delta c0 (Bmc.counters entry.bmc));
    Obs.incr_by obs "session.reused" (if reused then 1 else 0);
    Obs.incr_by obs "session.warm_depth" warm_depth;
    checkin t entry;
    ( verdict,
      { reused; warm_depth; clean_depth = Bmc.clean_depth entry.bmc ~bad } )
  in
  let o =
    Resilience.Supervisor.retry ?policy:supervisor ?faults ~obs ?cancel attempt
  in
  match o.Resilience.Supervisor.result with
  | Ok (verdict, attr) ->
      ({ Engine.verdict; counters = Obs.counters obs }, attr)
  | Error (Resilience.Supervisor.Crashed { last_error; _ }) ->
      (* Exhausted retries surface as [Engine_failed] so the caller can
         recover the best certified depth along with the cause. *)
      raise
        (Engine_failed { message = last_error; clean_depth = !best_clean })
