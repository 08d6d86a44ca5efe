(* The cluster router's IO shell — see the interface. Every routing
   decision is Dispatch's; this file owns the descriptors, the worker
   processes and the counters. *)

module Net = Service.Net
module Protocol = Service.Protocol

type event = Dispatch.event =
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

type stats = {
  forwarded : (string * int) list;
  rerouted : int;
  restarts : int;
  hedged : int;
  breaker_opens : int;
}

let rewrite_request_id = Dispatch.rewrite_request_id
let rewrite_response_line = Dispatch.rewrite_response_line

(* A worker process the shell has spawned and not yet terminated. *)
type proc = {
  proc : Worker.proc;
  out : Buffer.t;  (** partial line of the worker's stdout *)
  mutable link : (Unix.file_descr * Buffer.t) option;
      (** the connection to its socket, once it announced one *)
}

type shell = {
  core : Net.conn Dispatch.t;
  exe : string;
  worker_args : string list;
  procs : (string, proc) Hashtbl.t;  (** by worker name *)
  on_event : event -> unit;
  stats : stats Atomic.t;
      (** replaced by the loop domain on each counted event; read from
          any domain *)
}

let emit t ev =
  let s = Atomic.get t.stats in
  let bump w l =
    List.sort compare
      ((w, 1 + Option.value ~default:0 (List.assoc_opt w l))
      :: List.remove_assoc w l)
  in
  Atomic.set t.stats
    (match ev with
    | Forwarded { worker; _ } -> { s with forwarded = bump worker s.forwarded }
    | Rerouted _ -> { s with rerouted = s.rerouted + 1 }
    | Worker_exited _ -> { s with restarts = s.restarts + 1 }
    | Hedged _ -> { s with hedged = s.hedged + 1 }
    | Breaker_opened _ -> { s with breaker_opens = s.breaker_opens + 1 }
    | _ -> s);
  t.on_event ev

(* Step the core now and carry out what it asks for. A failure to
   carry one out is itself an input. *)
let rec feed t input =
  List.iter (run t) (Dispatch.step t.core ~now:(Unix.gettimeofday ()) input)

and died t worker reason = feed t (Dispatch.Died { worker; reason })

and run t = function
  | Dispatch.Send { worker; line } -> (
      match Hashtbl.find_opt t.procs worker with
      | Some { link = Some (fd, _); _ } -> (
          try Net.write_all fd line
          with Unix.Unix_error _ -> died t worker "write failed")
      | _ -> ()  (* died earlier in this batch; the core cut the leg *))
  | Dispatch.Reply { client; line } -> Net.send client line
  | Dispatch.Spawn worker -> (
      match
        Worker.spawn ~exe:t.exe
          ~args:([ "--socket"; "127.0.0.1:0" ] @ t.worker_args)
      with
      | proc ->
          Hashtbl.replace t.procs worker
            { proc; out = Buffer.create 256; link = None };
          emit t (Worker_spawned { name = worker; pid = proc.Worker.pid })
      | exception Unix.Unix_error _ -> died t worker "spawn failed")
  | Dispatch.Terminate worker ->
      Option.iter
        (fun p ->
          Hashtbl.remove t.procs worker;
          (* A short grace: the process is usually already dead (EOF
             got us here); a wedged one (health timeout) gets a brief
             chance at SIGTERM before the SIGKILL. Reaping it means a
             restarting fleet never accumulates zombies. *)
          close p ~grace_s:0.2)
        (Hashtbl.find_opt t.procs worker)
  | Dispatch.Event ev -> emit t ev

and close p ~grace_s =
  Option.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    p.link;
  Worker.terminate ~grace_s p.proc

(* ------------------------------------------------------------------ *)
(* Worker descriptors. Handlers look the worker up by name when they
   run: an earlier handler of the same loop turn may have terminated
   it, and its descriptor numbers may already be reused. *)

let connect t worker p addr =
  match Net.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      died t worker ("connect to ready worker failed: " ^ Unix.error_message e)
  | fd ->
      p.link <- Some (fd, Buffer.create 1024);
      feed t (Dispatch.Ready { worker; addr = Net.addr_to_string addr })

(* The worker's stdout pipe. Until the worker is connected it carries
   the readiness line; after that it is banner/diagnostic output, read
   and discarded so the pipe can never fill and block the daemon. EOF
   means the process exited. *)
let on_stdout t worker () =
  match Hashtbl.find_opt t.procs worker with
  | None -> ()
  | Some p -> (
      let ready = ref None in
      match
        Net.read_lines p.proc.Worker.stdout p.out (fun line ->
            if p.link = None && !ready = None then
              ready := Net.parse_ready line)
      with
      | (`Eof | `Error _) when p.link = None ->
          died t worker "exited before becoming ready"
      | `Eof | `Error _ -> died t worker "process exited"
      | `Data -> Option.iter (connect t worker p) !ready)

let on_link t worker () =
  match Hashtbl.find_opt t.procs worker with
  | Some { link = Some (fd, buf); _ } -> (
      match
        Net.read_lines fd buf (fun line -> feed t (Dispatch.Line { worker; line }))
      with
      | `Data -> ()
      | `Eof -> died t worker "connection closed"
      | `Error _ -> died t worker "connection reset")
  | _ -> ()

let watched t () =
  Hashtbl.fold
    (fun worker p acc ->
      let acc = (p.proc.Worker.stdout, on_stdout t worker) :: acc in
      match p.link with Some (fd, _) -> (fd, on_link t worker) :: acc | None -> acc)
    t.procs []

(* ------------------------------------------------------------------ *)
(* Client side *)

(* Requests shard by the *model* they ask about — Model.fingerprint of
   the compiled configuration — not by request id: repeats of the same
   model land on the same worker, whose scheduler coalesces them and
   whose engines stay warm for it. Engine and depth intentionally do
   not enter the key. *)
let routing_key cfg = Symkit.Model.fingerprint (Tta_model.Build.model cfg)

let on_line t client line =
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
      feed t
        (Dispatch.Request
           {
             client;
             id = req.Protocol.id;
             line;
             key = routing_key req.Protocol.cfg;
           })

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

type t = { net : Net.t; shell : shell }

let start ?(vnodes = 512) ?(max_restarts = 5) ?(restart_window_s = 30.0)
    ?(health_interval = 0.5) ?(health_timeout = 3.0) ?(grace = 10.0)
    ?(faults = Resilience.Faults.disabled) ?(hedge_ms = 0)
    ?(breaker_window = 0) ?(on_event = fun (_ : event) -> ()) ~exe
    ~worker_args ~workers addr =
  let core =
    Dispatch.create ~vnodes ~max_restarts ~restart_window_s ~health_interval
      ~health_timeout ~grace ~faults ~hedge_ms ~breaker_window ~workers
  in
  let listener = Net.listen addr in
  let t =
    {
      core;
      exe;
      worker_args;
      procs = Hashtbl.create 8;
      on_event;
      stats =
        Atomic.make
          { forwarded = []; rerouted = 0; restarts = 0; hedged = 0;
            breaker_opens = 0 };
    }
  in
  let finish () = Hashtbl.iter (fun _ p -> close p ~grace_s:2.0) t.procs in
  (* Client connections get no socket faults: the router's chaos
     points are the [link_*] ones, on the worker legs. *)
  let net =
    Net.start ~faults:Resilience.Faults.disabled ~timeout:0.05
      ~tick:(fun () -> feed t Dispatch.Tick)
      ~watch:(watched t) ~on_line:(on_line t)
      ~drain:(fun () ->
        feed t Dispatch.Drain;
        Dispatch.busy t.core)
      ~finish listener
  in
  { net; shell = t }

let stop t = Net.stop t.net
let wait t = Net.wait t.net
let bound_addr t = Net.bound t.net

let stats t = Atomic.get t.shell.stats
