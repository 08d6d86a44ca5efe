(** The verification daemon's wire protocol.

    JSON lines in both directions: a client writes one request object
    per line, the daemon answers one response object per line (not
    necessarily in request order — responses carry the request's [id]).

    A {b request}:
    {v
{"id":"r1","config":"full-shifting","nodes":4,"engine":"bdd",
 "depth":24,"deadline_ms":5000}
    v}
    [id] and [config] are required; [nodes] is 2 to 8 (a larger
    cluster's model takes too long to build on the select loop);
    [engine] is a single engine name or ["race"] (the default) for the
    {!Portfolio.default_engines} chain; [depth] defaults to
    24; [deadline_ms], when present, bounds the request's wall clock —
    an inconclusive answer past the deadline reports
    [reason:"deadline_exceeded"]. [forbid_cold_start_duplication]
    (bool) selects the paper's second full-shifting counterexample.
    [family] (string, optional) overrides the session-pool family key —
    normally the daemon derives it from the compiled model's
    fingerprint; a client that already knows its traffic's family can
    pin it explicitly. The override is a routing hint only: the pool
    verifies each entry's model fingerprint at checkout, so a stale or
    wrong [family] costs a cold start, never a verdict computed
    against a different model; requests with different [family] values
    are never coalesced together.

    A {b response} is one of:
    - [status:"ok"] — a verdict ([holds]/[violated]/[unknown]) with the
      winning engine, wall and queue milliseconds, and whether it was
      served from the cache or coalesced onto another in-flight
      request. A [violated] answer carries the counterexample trace,
      value-rendered per state. [reused_session]/[warm_depth] attribute
      warm-session reuse: whether the run checked out a live solver
      session from the pool, and how deep that session's unrolling
      already was (see doc/sessions.md).
    - [status:"degraded"] — the request could not be answered in full
      ([code] says why: [deadline_exceeded] or [engine_failed]) but
      its warm BMC session had already certified some depths, so the
      answer still carries content: [clean_depth] is the largest [k]
      with no counterexample up to depth [k] (see doc/sessions.md and
      doc/cluster.md). Strictly better than a bare error: a client
      that only needed a shallow guarantee may be done.
    - [status:"overloaded"] — shed by admission control (bounded
      queue full). The request was {e not} and will not be run.
    - [status:"cancelled"] — accepted but abandoned, e.g. by a
      shutdown drain; [reason] says why.
    - [status:"error"] — the line was not a valid request
      ([code:"bad_request"]) or every engine of an accepted request
      failed ([code:"engine_failed"]); [reason] explains, [id] is
      echoed when one could be parsed.

    Every non-[ok] response additionally carries a machine-readable
    [code] — one of [overloaded], [draining], [bad_request],
    [engine_failed], [deadline_exceeded] — so clients can branch on
    the cause (e.g. retry on [engine_failed], back off on
    [overloaded]) without parsing the human-oriented [reason].

    Decoding is total: every malformed input maps to [Error _], never
    an exception. *)

type request = {
  id : string;
  cfg : Tta_model.Configs.t;
  engines : Tta_model.Engine.id list;
      (** singleton for a named engine; {!Portfolio.default_engines}
          for ["race"] or no [engine] *)
  max_depth : int;
  deadline_ms : int option;
  family : string option;
      (** optional session-pool family override (model structure modulo
          bound/property); [None] means "derive from the fingerprint" *)
}

val request :
  id:string ->
  config:string ->
  ?nodes:int ->
  ?engine:string ->
  ?depth:int ->
  ?deadline_ms:int ->
  ?family:string ->
  ?forbid_cold_start_duplication:bool ->
  unit ->
  Json.t
(** Build a request object for the wire — the client-side encoder used
    by the load generator and the tests. Performs no validation; the
    daemon's decoder is the single validator. *)

val decode_request : Json.t -> (request, string) result
(** Validate a request object into a runnable form (the feature-set
    name becomes the Section 5 configuration via the named
    constructors, so a served instance is exactly the experiment
    one). *)

val decode_request_line : string -> (request, string) result
(** [decode_request] after parsing; a parse failure is an [Error]
    carrying the parser's message. *)

val request_id_of_line : string -> string option
(** Best-effort [id] extraction from a line that may fail validation —
    for echoing the id in an [error] response. (Responses carry [id]
    in the same position, so the cluster router also uses this to
    attribute worker response lines.) *)

(** {1 Incoming classification}

    Besides verification requests the daemon answers {b health pings}:
    [{"id":"h1","op":"ping"}] is answered immediately with
    [{"id":"h1","status":"pong"}], bypassing the scheduler. The
    cluster router pings its workers with these; any client may use
    them as a liveness probe. *)

type incoming =
  | Verify of request
  | Ping of { id : string }

val ping : id:string -> Json.t
(** Build a ping request object for the wire. *)

val decode_incoming : Json.t -> (incoming, string) result
val decode_incoming_line : string -> (incoming, string) result
(** Classify one incoming line: a [{"op":"ping"}] object becomes
    {!Ping}; anything else must validate as a {!request}. *)

(** {1 Responses} *)

type verdict =
  | Holds of { detail : string }
  | Violated of { steps : int; trace : string list list }
      (** one rendered value per model variable per state *)
  | Unknown of { detail : string; reason : string option }
      (** [reason] is a machine-readable cause
          ([Some "deadline_exceeded"]) on top of the human [detail] *)

type response =
  | Answer of {
      id : string;
      verdict : verdict;
      engine : string;
      cache_hit : bool;
      coalesced : bool;
      wall_ms : float;
      queue_ms : float;
      reused_session : bool;
          (** the run checked out a warm solver session from the pool
              (always [false] when the daemon runs without
              [--sessions]) *)
      warm_depth : int;
          (** the checked-out session's unrolling depth before the run
              (0 on a cold session) *)
    }
  | Degraded of {
      id : string;
      code : string;
          (** {!code_deadline_exceeded} or {!code_engine_failed} *)
      clean_depth : int;
          (** largest depth certified counterexample-free before the
              run failed or timed out *)
      engine : string;
      wall_ms : float;
      queue_ms : float;
      reused_session : bool;
      warm_depth : int;
    }  (** wire [status:"degraded"] — a partial answer with content *)
  | Overloaded of { id : string }  (** wire [code]: [overloaded] *)
  | Cancelled of { id : string; reason : string }
      (** wire [code]: [draining] *)
  | Error of { id : string option; code : string; reason : string }
      (** [code] is {!code_bad_request} or {!code_engine_failed} *)
  | Pong of { id : string }
      (** wire [status:"pong"] — the answer to an [op:"ping"] probe *)

val code_overloaded : string
val code_draining : string
val code_bad_request : string
val code_engine_failed : string
val code_deadline_exceeded : string
(** The machine-readable rejection/degradation codes; see the format
    notes above. *)

val response_id : response -> string option

val encode_response : response -> Json.t

val response_line : response -> string
(** The encoded response as one newline-terminated wire line. *)

val decode_response : Json.t -> (response, string) result
val decode_response_line : string -> (response, string) result
