(* Sockets, framing and the select loop — see the interface. *)

module Faults = Resilience.Faults

type addr = Unix_socket of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      (* Port 0 is the kernel's "pick one": [listen] returns the bound
         port and the daemon's readiness line announces it. *)
      | Some p when p >= 0 && p < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "invalid port in %S" s))
  | None -> Ok (Unix_socket s)

let addr_to_string = function
  | Unix_socket p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* ------------------------------------------------------------------ *)
(* Endpoints *)

let sockaddr = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))

(* A socket that is closed again if [setup] fails, so a failed bind or
   connect leaks no descriptor. *)
let socket_for addr setup =
  let domain, sa = sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  match setup fd sa with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let listen addr =
  (match addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let fd =
    socket_for addr (fun fd sa ->
        if Unix.domain_of_sockaddr sa = Unix.PF_INET then
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd sa;
        Unix.listen fd 64)
  in
  match (addr, Unix.getsockname fd) with
  | Tcp (host, 0), Unix.ADDR_INET (_, port) -> (fd, Tcp (host, port))
  | _ -> (fd, addr)

let connect addr = socket_for addr Unix.connect

let write_all fd s =
  let rec go off len =
    if len > 0 then
      match Unix.write_substring fd s off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* A signal mid-write is not a failed write; resume where the
             syscall left off. *)
          go off len
  in
  go 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Framing *)

let split_lines buf k =
  let s = Buffer.contents buf in
  let n = String.length s in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from s !start '\n' in
       k (String.sub s !start (i - !start));
       start := i + 1
     done
   with Not_found -> ());
  if !start > 0 then begin
    Buffer.clear buf;
    if !start < n then Buffer.add_substring buf s !start (n - !start)
  end

(* One read buffer per domain: the loops and the blocking readers run
   on several domains at once, and every chunk is copied into its
   line buffer before any callback runs. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let read_lines fd buf k =
  let b = Domain.DLS.get scratch in
  match Unix.read fd b 0 (Bytes.length b) with
  | 0 -> `Eof
  | n ->
      Buffer.add_subbytes buf b 0 n;
      split_lines buf k;
      `Data
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Data
  | exception Unix.Unix_error (e, _, _) -> `Error e

type reader = { rfd : Unix.file_descr; rbuf : Buffer.t; lines : string Queue.t }

let reader fd = { rfd = fd; rbuf = Buffer.create 512; lines = Queue.create () }

let rec read_line r =
  match Queue.take_opt r.lines with
  | Some l -> Some l
  | None -> (
      match read_lines r.rfd r.rbuf (fun l -> Queue.push l r.lines) with
      | `Data -> read_line r
      | `Eof | `Error _ ->
          if Buffer.length r.rbuf = 0 then None
          else begin
            let last = Buffer.contents r.rbuf in
            Buffer.clear r.rbuf;
            Some last
          end)

(* ------------------------------------------------------------------ *)
(* Readiness *)

let ready_line a =
  Json.to_string
    (Json.Obj
       (("ready", Json.Bool true)
       :: ("socket", Json.String (addr_to_string a))
       ::
       (match a with
       | Tcp (_, port) -> [ ("port", Json.Int port) ]
       | Unix_socket _ -> [])))

let parse_ready line =
  match Json.of_string (String.trim line) with
  | Ok j when Option.bind (Json.member "ready" j) Json.bool_value = Some true
    ->
      Option.bind
        (Option.bind (Json.member "socket" j) Json.string_value)
        (fun s -> Result.to_option (addr_of_string s))
  | Ok _ | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Connections

   [closed] means "no further writes" (the peer hung up or a write
   failed); the descriptor itself is closed by the loop's sweep once
   [pending] deferred replies have all been sent. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  wlock : Mutex.t;
  faults : Faults.t;
  mutable closed : bool;
  mutable fd_open : bool;
  mutable pending : int;
}

(* Half-close the socket without releasing the descriptor (the loop's
   sweep still owns the [Unix.close]): the peer sees EOF immediately —
   even while the select loop is parked — instead of waiting forever
   for a reply that will never come. Call under [wlock]. *)
let abort c =
  c.closed <- true;
  if c.fd_open then
    try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send c line =
  Mutex.lock c.wlock;
  (if not c.closed then
     match
       Faults.hit c.faults Faults.Sock_send;
       Faults.corrupt c.faults Faults.Sock_send line
     with
     | exception Faults.Injected _ ->
         (* Injected send failure: the reply is lost exactly as if the
            kernel had dropped the connection mid-write. *)
         abort c
     | s -> (
         (* EPIPE/ECONNRESET (SIGPIPE is ignored): the peer hung up
            mid-write. The loop and its other connections are
            unaffected. *)
         try write_all c.fd s with Unix.Unix_error _ -> abort c));
  Mutex.unlock c.wlock

let add_pending c d =
  Mutex.lock c.wlock;
  c.pending <- c.pending + d;
  Mutex.unlock c.wlock

let defer c =
  add_pending c 1;
  fun line ->
    send c line;
    add_pending c (-1)

let close c =
  Mutex.lock c.wlock;
  c.closed <- true;
  if c.fd_open then begin
    c.fd_open <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock c.wlock

let read_conn on_line c =
  match
    Faults.hit c.faults Faults.Sock_recv;
    read_lines c.fd c.buf (fun line ->
        let line = String.trim line in
        if line <> "" then on_line c line)
  with
  | exception Faults.Injected _ ->
      (* Injected receive failure: drop the connection as a flaky NIC
         would. The client reconnects and retries. *)
      Mutex.lock c.wlock;
      abort c;
      Mutex.unlock c.wlock
  | `Data -> ()
  | `Eof | `Error _ -> c.closed <- true

(* ------------------------------------------------------------------ *)
(* The loop *)

type t = {
  listen_fd : Unix.file_descr;
  bound : addr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  finished : bool Atomic.t;  (** loop domain exited ([finish] included) *)
  join_lock : Mutex.t;
  mutable domain : unit Domain.t option;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run t ~faults ~timeout ~tick ~watch ~on_line ~drain ~finish =
  let conns = ref [] in
  let listening = ref true in
  let running = ref true in
  while !running do
    (* Sweep connections that hung up and owe no more replies. *)
    let dead, live =
      List.partition (fun c -> c.closed && c.pending = 0) !conns
    in
    List.iter close dead;
    conns := live;
    if Atomic.get t.stopping then begin
      if !listening then begin
        listening := false;
        close_quietly t.listen_fd
      end;
      running := drain ()
    end;
    if !running then begin
      tick ();
      let watched = watch () in
      let read_fds =
        (t.wake_r :: (if !listening then [ t.listen_fd ] else []))
        @ List.map fst watched
        @ List.filter_map (fun c -> if c.closed then None else Some c.fd) live
      in
      match Unix.select read_fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          if List.mem t.wake_r ready then
            (* The stop byte: the next iteration sees [stopping]. *)
            ignore
              (try Unix.read t.wake_r (Bytes.create 1) 0 1
               with Unix.Unix_error _ -> 0)
          else begin
            (if !listening && List.mem t.listen_fd ready then
               match Unix.accept ~cloexec:true t.listen_fd with
               | exception Unix.Unix_error _ -> ()
               | fd, _ ->
                   conns :=
                     {
                       fd;
                       buf = Buffer.create 256;
                       wlock = Mutex.create ();
                       faults;
                       closed = false;
                       fd_open = true;
                       pending = 0;
                     }
                     :: !conns);
            List.iter (fun (fd, k) -> if List.mem fd ready then k ()) watched;
            List.iter
              (fun c ->
                if (not c.closed) && List.mem c.fd ready then
                  read_conn on_line c)
              live
          end
    end
  done;
  finish ();
  List.iter close !conns;
  close_quietly t.wake_r;
  close_quietly t.wake_w

let start ~faults ~timeout ?(tick = ignore) ?(watch = fun () -> []) ~on_line
    ~drain ~finish (listen_fd, bound) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      listen_fd;
      bound;
      wake_r;
      wake_w;
      stopping = Atomic.make false;
      finished = Atomic.make false;
      join_lock = Mutex.create ();
      domain = None;
    }
  in
  t.domain <-
    Some
      (Domain.spawn (fun () ->
           Fun.protect
             ~finally:(fun () -> Atomic.set t.finished true)
             (fun () ->
               run t ~faults ~timeout ~tick ~watch ~on_line ~drain ~finish)));
  t

let bound t = t.bound

let stop t =
  if not (Atomic.exchange t.stopping true) then
    try ignore (Unix.write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  (* Poll rather than block straight into [Domain.join]: only the main
     domain runs OCaml signal handlers, and only at safepoints — a
     main domain parked inside [join] would never execute the SIGTERM
     handler that is supposed to stop the loop. The sleep loop reaches
     a safepoint every iteration (and immediately after a signal
     interrupts the sleep). *)
  while not (Atomic.get t.finished) do
    Unix.sleepf 0.05
  done;
  Mutex.lock t.join_lock;
  (match t.domain with
  | None -> ()
  | Some d ->
      t.domain <- None;
      Domain.join d);
  Mutex.unlock t.join_lock

let stop_on_signals stop =
  let handler = Sys.Signal_handle (fun _ -> stop ()) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler
