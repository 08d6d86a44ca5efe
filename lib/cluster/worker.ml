(* Worker process lifecycle — see the interface. *)

type proc = { pid : int; stdout : Unix.file_descr }

let spawn ~exe ~args =
  let out_r, out_w = Unix.pipe () in
  Unix.set_close_on_exec out_r;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    try
      Unix.create_process exe
        (Array.of_list (exe :: args))
        devnull out_w Unix.stderr
    with e ->
      Unix.close out_r;
      Unix.close out_w;
      Unix.close devnull;
      raise e
  in
  Unix.close out_w;
  Unix.close devnull;
  { pid; stdout = out_r }

let kill_if_alive p signal =
  try Unix.kill p.pid signal with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let terminate ?(grace_s = 2.0) p =
  kill_if_alive p Sys.sigterm;
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.02;
          wait ()
        end
        else begin
          (* Past the grace period a drain is no longer graceful. *)
          kill_if_alive p Sys.sigkill;
          ignore (Unix.waitpid [] p.pid)
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  try Unix.close p.stdout with Unix.Unix_error _ -> ()
