(** Spawning and reaping one [tta_served] worker process.

    The router runs each worker as a child process with stdin on
    [/dev/null], stdout on a pipe back to the router (to read the
    daemon's machine-readable readiness line and drain its banner
    output), and stderr inherited so worker diagnostics land in the
    router's own stderr stream. The readiness line is parsed by
    {!Service.Net.parse_ready}. *)

type proc = { pid : int; stdout : Unix.file_descr }

val spawn : exe:string -> args:string list -> proc
(** Fork/exec [exe args]. The caller owns [stdout] (close it after the
    process is gone) and must eventually reap the pid.
    @raise Unix.Unix_error when the exec setup fails. *)

val terminate : ?grace_s:float -> proc -> unit
(** SIGTERM (triggering the daemon's graceful drain), wait up to
    [grace_s] (default 2 s), then SIGKILL; reaps the child and closes
    its stdout pipe. Idempotent on an already-dead child. *)
