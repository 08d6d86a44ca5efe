(** Sockets and the event loop of the serving stack.

    The daemon ({!Server}), the cluster router, the load generator and
    the synthesis client all speak newline-delimited JSON over a
    Unix-domain or TCP stream socket. This module is the one place
    that opens, frames and loops over those sockets (stdlib [Unix]
    only — no async runtime).

    {b Close-on-exec.} Every descriptor opened here — listeners,
    accepted and outgoing connections, the loop's wake pipe — is
    close-on-exec. The router spawns worker daemons from the same
    process; an inherited listener would let an orphaned worker keep
    the router's port after the router dies. *)

type addr =
  | Unix_socket of string  (** path; unlinked and rebound by {!listen} *)
  | Tcp of string * int
      (** host and port; port [0] asks the kernel for an ephemeral
          port — {!listen} returns the resolved address *)

val addr_of_string : string -> (addr, string) result
(** ["HOST:PORT"] becomes {!Tcp} (port [0] allowed, an empty host
    means [127.0.0.1]); anything else is a {!Unix_socket} path. *)

val addr_to_string : addr -> string

(** {1 Endpoints} *)

val listen : addr -> Unix.file_descr * addr
(** Bind and listen; returns the listener and the address actually
    bound (a TCP port [0] resolved to the kernel-assigned one).
    @raise Unix.Unix_error if the address cannot be bound. *)

val connect : addr -> Unix.file_descr
(** @raise Unix.Unix_error if the peer cannot be reached. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, resuming after [EINTR].
    @raise Unix.Unix_error on any other write failure. *)

(** {1 Framing} *)

val split_lines : Buffer.t -> (string -> unit) -> unit
(** Hand every complete line in the buffer (without its ['\n']) to the
    callback, in order, and keep the trailing partial line buffered
    for the next chunk. *)

val read_lines :
  Unix.file_descr ->
  Buffer.t ->
  (string -> unit) ->
  [ `Data | `Eof | `Error of Unix.error ]
(** One [Unix.read] into the buffer followed by {!split_lines}. An
    [EINTR] reads nothing and reports [`Data]. *)

type reader
(** A blocking line reader over one descriptor (single consumer). *)

val reader : Unix.file_descr -> reader

val read_line : reader -> string option
(** The next line. At end of stream a final unterminated line is
    returned as a line; after that, [None]. A read error other than
    [EINTR] counts as end of stream. *)

(** {1 Readiness}

    A daemon announces the address it bound with one JSON line on
    stdout, e.g. [{"ready":true,"socket":"127.0.0.1:7171","port":7171}]
    ([port] only for TCP). The router, CI and the benchmark parse it. *)

val ready_line : addr -> string
(** The readiness line, without its newline. *)

val parse_ready : string -> addr option
(** [Some addr] for a readiness line, [None] for any other output
    (banner lines, partial reads). *)

(** {1 Connections} *)

type conn
(** An accepted client connection. The loop domain is its only reader
    and only closer; any domain may write to it. Writes are serialised
    by a per-connection lock. A connection whose peer hung up, or
    whose write failed, takes no further writes; its descriptor is
    closed only once every {!defer}red reply has been sent, so a
    recycled descriptor never receives another client's reply. The
    loop's [faults] arm the [Sock_send] and [Sock_recv] points of every
    connection: an injected fault aborts that one connection (the peer
    sees EOF) without touching the loop. *)

val send : conn -> string -> unit
(** Write one newline-terminated line; a failed write aborts the
    connection. *)

val defer : conn -> string -> unit
(** [defer c] reserves one reply on [c] and returns the function that
    sends it. Call that function exactly once. *)

(** {1 The loop} *)

type t
(** A listener served by one [Unix.select] loop on its own domain:
    accept, read, split into lines, dispatch, sweep closed
    connections. *)

val start :
  faults:Resilience.Faults.t ->
  timeout:float ->
  ?tick:(unit -> unit) ->
  ?watch:(unit -> (Unix.file_descr * (unit -> unit)) list) ->
  on_line:(conn -> string -> unit) ->
  drain:(unit -> bool) ->
  finish:(unit -> unit) ->
  Unix.file_descr * addr ->
  t
(** Run the loop over a {!listen}ed socket. Each iteration runs
    [tick], then waits up to [timeout] seconds (negative: block) for
    input. Every non-blank line a connection sends is trimmed and
    passed to [on_line]. [watch] lists extra descriptors, recomputed
    every iteration, each with the handler to run when it is readable.

    Once {!stop} is called the listener closes, and from then on each
    iteration first asks [drain] whether to keep serving: [false]
    leaves the loop. Then [finish] runs on the loop domain, and the
    connections and the wake pipe close. [faults] arms the socket
    fault points of every accepted connection. SIGPIPE is ignored for
    the process, so a peer that hangs up costs a failed write. *)

val bound : t -> addr

val stop : t -> unit
(** Ask the loop to stop (idempotent; safe from a signal handler or any
    domain). Returns at once — {!wait} for the loop to exit. *)

val wait : t -> unit
(** Block until the loop, [finish] included, has exited. *)

val stop_on_signals : (unit -> unit) -> unit
(** Install SIGTERM and SIGINT handlers that call the function. *)
