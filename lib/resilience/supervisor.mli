(** Supervised engine execution: the one retry loop.

    {!retry} owns the engine-crash failure class for the whole stack:
    the portfolio's racers ({!run}) and the warm-session path
    ([Sessions.run]) both hand it their attempt, so both spend the
    same attempt budget under the same backoff and fault hooks:

    - an attempt exception (including an injected {!Faults.Injected}
      crash) is retried up to [retries] times, with capped exponential
      backoff and seeded jitter between attempts;
    - the external [cancel] (a race already won, a request deadline, a
      drain force-cancel) cuts a pending backoff short and stops
      further retries. Hangs are not retried: that cancellation,
      which is cooperative, is what stops them.

    The jitter and therefore the whole backoff sequence are a pure
    function of the policy ({!backoff_schedule}), keeping supervised
    runs as reproducible as the engines they wrap. *)

type policy = {
  retries : int;  (** extra attempts after the first (0 = fail fast) *)
  backoff_s : float;  (** base delay before attempt 2 *)
  backoff_max_s : float;  (** cap on the exponential growth *)
  jitter : float;
      (** delay is multiplied by [1 + jitter * u], [u] uniform in
          [\[0,1)] derived from [seed] — deterministic, not sampled *)
  seed : int;
}

val default : policy
(** 2 retries, 50ms base backoff capped at 2s, jitter 0.5, seed 0. *)

val backoff_schedule : policy -> float list
(** The exact delays (seconds) [retry] sleeps before attempts
    [2 .. retries + 1]: [min backoff_max_s (backoff_s * 2^k) * (1 +
    jitter * u_k)]. Exposed so tests can assert the observed backoffs
    against it. *)

val backoff_delay : policy -> int -> float
(** [backoff_delay policy k] is the single delay before attempt
    [k + 2] — [List.nth (backoff_schedule policy) k], but defined for
    any [k >= 0] (the cap makes the tail constant up to jitter). *)

(** Process-level supervision hook: a restart-intensity gate in the
    Erlang supervisor tradition. The cluster router records one
    {!Restarts.record} per worker-process death; the gate answers with
    the deterministic backoff to wait before respawning, or [`Give_up]
    once more than [max_restarts] deaths land inside the sliding
    [window_s] — a process crash-looping that fast is a permanent
    failure, not a transient one. *)
module Restarts : sig
  type t

  val create : ?max_restarts:int -> ?window_s:float -> unit -> t
  (** Defaults: 5 restarts per 30 s window. The backoff curve is fixed:
      {!backoff_delay} of {!default}.
      @raise Invalid_argument if [max_restarts < 1] or [window_s <= 0]. *)

  val record : ?now:float -> t -> [ `Backoff of float | `Give_up ]
  (** Note one death at [now] (default: the current time; injectable
      for deterministic tests). [`Backoff d] grants a respawn after [d]
      seconds — the k-th death in the window gets
      [backoff_delay default (k - 1)]. *)

  val count : t -> int
  (** Deaths within the window as of the last {!record}. *)
end

type failure =
  | Crashed of { attempts : int; last_error : string }
      (** every attempt raised; [last_error] is [Printexc.to_string] of
          the final one *)

val failure_to_string : failure -> string

type 'a outcome = {
  result : ('a, failure) result;
  attempts : int;  (** total attempts made (>= 1) *)
  backoffs_s : float list;  (** the delays actually slept, in order *)
  counters : (string * int) list;
      (** the supervisor's own telemetry — [supervisor.retries] and
          [supervisor.crashes] — nonzero entries only, disjoint from
          the attempt's counters *)
}

val retry :
  ?policy:policy ->
  ?faults:Faults.t ->
  ?obs:Obs.t ->
  ?cancel:(unit -> bool) ->
  (cancel:(unit -> bool) -> 'a) ->
  'a outcome
(** [retry attempt] runs [attempt ~cancel] until it returns, retrying
    an exception per [policy] (default {!default}). Before every
    attempt it hits {!Faults.Engine_start} of [faults]; the [cancel]
    handed to the attempt hits {!Faults.Engine_step} and then polls
    the external [cancel], so the attempt's cooperative safepoints are
    the step fault points. An attempt that raised must leave no state
    behind that the next one could trip over. [obs] receives live
    [supervisor.*] counter increments when enabled; the same values
    are always returned in [outcome.counters]. *)

val run :
  ?policy:policy ->
  ?faults:Faults.t ->
  ?obs:Obs.t ->
  ?cancel:(unit -> bool) ->
  ?max_depth:int ->
  Tta_model.Engine.t ->
  Tta_model.Configs.t ->
  Tta_model.Engine.result outcome
(** Supervised [engine.run]: {!retry} with the engine run as the
    attempt, [obs] and [max_depth] passed through. *)
