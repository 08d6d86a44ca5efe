(* Supervised engine execution: the one bounded retry loop, with
   deterministic backoff, that engines and warm sessions share. See
   supervisor.mli. *)

module Engine = Tta_model.Engine

type policy = {
  retries : int;
  backoff_s : float;
  backoff_max_s : float;
  jitter : float;
  seed : int;
}

let default =
  { retries = 2; backoff_s = 0.05; backoff_max_s = 2.0; jitter = 0.5; seed = 0 }

(* Delay before attempt [k + 2]: capped exponential with deterministic
   jitter (reused decision hash — the salt just separates the jitter
   stream from any fault rule). *)
let backoff_delay policy k =
  let base =
    Float.min policy.backoff_max_s (policy.backoff_s *. (2. ** float_of_int k))
  in
  base *. (1. +. (policy.jitter *. Faults.hash_float ~seed:policy.seed ~salt:0x5eed k))

let backoff_schedule policy =
  List.init (max 0 policy.retries) (backoff_delay policy)

(* Process-level supervision: an Erlang-style restart-intensity gate.
   Each [record] call notes one death of the supervised process; deaths
   older than [window_s] roll off. Within the window the k-th death is
   granted the same deterministic capped-exponential backoff the
   in-process supervisor uses between engine attempts under the
   default policy; one death past [max_restarts] means the process is
   beyond help and the supervisor should stop resurrecting it. *)
module Restarts = struct
  type t = {
    max_restarts : int;
    window_s : float;
    mutable deaths : float list;  (** newest first, within the window *)
  }

  let create ?(max_restarts = 5) ?(window_s = 30.0) () =
    if max_restarts < 1 then invalid_arg "Restarts.create: max_restarts < 1";
    if window_s <= 0.0 then invalid_arg "Restarts.create: window_s <= 0";
    { max_restarts; window_s; deaths = [] }

  let record ?now t =
    let now = match now with Some n -> n | None -> Unix.gettimeofday () in
    let live = List.filter (fun ts -> now -. ts <= t.window_s) t.deaths in
    let deaths = now :: live in
    t.deaths <- deaths;
    let n = List.length deaths in
    if n > t.max_restarts then `Give_up
    else `Backoff (backoff_delay default (n - 1))

  let count t = List.length t.deaths
end

type failure = Crashed of { attempts : int; last_error : string }

let failure_to_string (Crashed { attempts; last_error }) =
  Printf.sprintf "crashed after %d attempt(s): %s" attempts last_error

type 'a outcome = {
  result : ('a, failure) result;
  attempts : int;
  backoffs_s : float list;
  counters : (string * int) list;
}

(* Sleep in short chunks so an external cancellation (the race already
   has a winner, the request's deadline passed) cuts the backoff
   short. *)
let interruptible_sleep d cancel =
  let rec go remaining =
    if remaining > 0. && not (cancel ()) then begin
      let step = Float.min 0.01 remaining in
      Unix.sleepf step;
      go (remaining -. step)
    end
  in
  go d

let retry ?(policy = default) ?(faults = Faults.disabled) ?obs
    ?(cancel = fun () -> false) attempt =
  let retries_c = ref 0 and crashes_c = ref 0 in
  let tick c name =
    incr c;
    Option.iter (fun o -> Obs.incr_by o name 1) obs
  in
  (* The attempt's cooperative safepoint doubles as the Engine_step
     fault hook: an injected crash surfaces as an exception mid-run, an
     injected stall as an attempt that stopped making progress. *)
  let step_cancel () =
    Faults.hit faults Faults.Engine_step;
    cancel ()
  in
  let backoffs = ref [] in
  let rec go attempt_no =
    match
      Faults.hit faults Faults.Engine_start;
      attempt ~cancel:step_cancel
    with
    | r -> (Ok r, attempt_no)
    | exception e ->
        tick crashes_c "supervisor.crashes";
        let give_up () =
          ( Error
              (Crashed
                 { attempts = attempt_no; last_error = Printexc.to_string e }),
            attempt_no )
        in
        if attempt_no > policy.retries || cancel () then give_up ()
        else begin
          let d = backoff_delay policy (attempt_no - 1) in
          backoffs := d :: !backoffs;
          tick retries_c "supervisor.retries";
          interruptible_sleep d cancel;
          if cancel () then give_up () else go (attempt_no + 1)
        end
  in
  let result, attempts = go 1 in
  let counters =
    List.filter
      (fun (_, v) -> v > 0)
      [ ("supervisor.retries", !retries_c); ("supervisor.crashes", !crashes_c) ]
  in
  { result; attempts; backoffs_s = List.rev !backoffs; counters }

let run ?policy ?faults ?obs ?cancel ?max_depth (engine : Engine.t) cfg =
  retry ?policy ?faults ?obs ?cancel (fun ~cancel ->
      engine.Engine.run ~cancel ?obs ?max_depth cfg)
