(* Per-worker liveness bookkeeping — see the interface. *)

type t = {
  name : string;
  interval : float;
  timeout : float;
  mutable seq : int;  (** the last probe issued *)
  mutable floor : int;  (** probes up to here predate the last [reset] *)
  mutable last_ping : float;  (** when the last probe was issued *)
  mutable last_seen : float;  (** last pong (or [reset]) *)
}

let create ?(interval = 1.0) ?(timeout = 3.0) ~now name =
  if timeout <= interval then
    invalid_arg "Health.create: timeout must exceed interval";
  {
    name;
    interval;
    timeout;
    seq = 0;
    floor = 0;
    last_ping = now;
    last_seen = now;
  }

let prefix t = "hb:" ^ t.name ^ ":"

let is_ping_id id =
  String.length id >= 3 && String.sub id 0 3 = "hb:"

(* A probe every [interval], answered or not: a lost ping or pong then
   costs one interval of evidence, not the worker. *)
let next_ping ~now t =
  if now -. t.last_ping >= t.interval then begin
    t.seq <- t.seq + 1;
    t.last_ping <- now;
    Some (prefix t ^ string_of_int t.seq)
  end
  else None

let pong ~now t id =
  let p = prefix t in
  if String.starts_with ~prefix:p id then
    match
      int_of_string_opt
        (String.sub id (String.length p) (String.length id - String.length p))
    with
    | Some n when n > t.floor && n <= t.seq -> t.last_seen <- now
    | _ -> ()

let overdue ~now t = now -. t.last_seen > t.timeout

let reset ~now t =
  t.floor <- t.seq;
  t.last_ping <- now;
  t.last_seen <- now
