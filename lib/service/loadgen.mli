(** Synthetic load for the verification daemon.

    Replays a seeded stream of {!Protocol} requests sampled from the
    Section 5 configuration matrix against a running {!Server}, in one
    of two classic load-generation shapes:

    - {b open loop} ([Open_loop rate]): one connection; requests are
      sent at the target rate regardless of completions (the
      arrival-driven regime where queueing and shedding appear), while
      a reader collects responses as they come.
    - {b closed loop} ([Closed_loop c]): [c] connections, each its own
      domain, each keeping exactly one request outstanding — the
      fixed-concurrency regime, which measures service capacity.

    The stream is deterministic for a given seed, so distinct requests
    repeat — exercising the daemon's coalescing and cache paths on
    purpose. The report carries throughput, latency percentiles over
    the answered requests, and the outcome/dedup breakdown.

    {b Retries.} A dropped connection (ECONNRESET/EPIPE/EOF — e.g. the
    daemon's chaos mode aborting a socket) or an [engine_failed] error
    response does not forfeit the request: the loadgen reconnects with
    capped exponential backoff and resends, spending up to
    [retry_budget] retries per request. Only a request whose budget is
    exhausted counts as a protocol error. [retries] and
    [engine_failed] in the report count the resends and the
    engine-failure responses observed across all attempts;
    [conn_retries]/[engine_retries] split the resends by cause, so a
    chaos run can tell link loss from engine failure. *)

type mode = Open_loop of float  (** target requests/second *)
          | Closed_loop of int  (** concurrent in-flight requests *)

type report = {
  requests : int;  (** sent *)
  ok : int;  (** [status:"ok"] responses *)
  degraded : int;
      (** [status:"degraded"] responses — partial answers carrying a
          certified [clean_depth] (see {!Protocol}); counted apart from
          [ok] and never retried *)
  holds : int;
  violated : int;
  unknown : int;
  deadline_exceeded : int;  (** subset of [unknown] *)
  overloaded : int;
  cancelled : int;
  protocol_errors : int;
      (** [status:"error"] responses plus undecodable response lines
          and requests still unanswered after the retry budget *)
  retries : int;  (** resends after connection loss or engine failure
                      ([conn_retries + engine_retries], kept for
                      back-compat) *)
  conn_retries : int;
      (** resends caused by a lost/garbled connection (e.g. a
          [drop]-injected link fault downstream) *)
  engine_retries : int;
      (** resends caused by an [engine_failed] error response *)
  engine_failed : int;
      (** [code:"engine_failed"] responses seen (retried ones included) *)
  cache_hits : int;
  coalesced : int;
  session_reuses : int;
      (** answers flagged [reused_session] — served from a warm pooled
          solver session (always [0] against a daemon without
          [--sessions]) *)
  hedged : int;
      (** answers flagged ["hedged":true] — won by a duplicate leg the
          router raced (always [0] against a plain daemon) *)
  breaker_opens : int;
      (** circuit-breaker trips — not observable over the wire, so [0]
          here; in-process bench drivers override it from
          router stats *)
  wall_s : float;  (** first send to last response *)
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;  (** percentiles/max over answered requests *)
  per_worker : (string * int) list;
      (** answered requests per serving cluster worker, sorted by
          name, from the router's [worker] response annotation; empty
          against a plain daemon *)
  imbalance : float;
      (** max/mean of [per_worker] counts ([1.0] = perfectly even;
          [0.0] when no worker annotations were seen) *)
}

val run :
  ?seed:int ->
  ?exhaustive:bool ->
  ?nodes:int ->
  ?depth:int ->
  ?nodes_choices:int list ->
  ?depths:int list ->
  ?deadline_ms:int ->
  ?configs:string list ->
  ?engines:string list ->
  ?retry_budget:int ->
  mode:mode ->
  requests:int ->
  Net.addr ->
  report
(** Defaults: [seed 1], [nodes 2], [depth 24], no deadline, all four
    feature sets, engine ["bdd"], [retry_budget 2] (per request; [0]
    disables retries). [engines] entries are request [engine] values,
    so ["race"] is allowed. [nodes_choices]/[depths], when non-empty,
    override [nodes]/[depth] with per-request sampling — distinct
    (config, nodes) pairs hash to distinct cluster shards and distinct
    depths defeat coalescing, so a widened stream can keep many
    workers busy at once.

    The stream samples iid by default — duplicates arrive on purpose
    and exercise dedup. [~exhaustive:true] instead enumerates the full
    configs x engines x nodes x depths cross product in a seeded
    shuffle (cycling when [requests] exceeds it): no duplicate
    requests, so each cluster shard's work is a deterministic function
    of the workload — what a scaling bench needs, since duplicates of
    inconclusive (uncacheable) verdicts only coalesce when they race
    into the same in-flight window, making total work vary run to run.
    @raise Unix.Unix_error when the daemon cannot be reached. *)

val report_to_json : mode:mode -> report -> Json.t
val pp_report : Format.formatter -> report -> unit
