(** The unified verification-engine interface.

    Every engine — BDD fixpoint reachability, SAT bounded model
    checking and the explicit-state BFS cross-check —
    is exposed as one value of type {!t} with a common [run] signature,
    so the portfolio, the CLIs and the benchmark harness drive all of
    them through the same code path. Each run returns its {!verdict}
    together with an open-ended counter set; passing [?obs] additionally
    streams spans and metrics into a live {!Obs.Collector} track. *)

type id = Bdd_reach | Sat_bmc | Explicit_bfs

val id_to_string : id -> string
(** The engine's long name, e.g. ["bdd-reachability"]. *)

val id_of_string : string -> id option
(** Accepts both the short names of {!short_names} and the long names
    of {!id_to_string}. *)

type verdict =
  | Holds of { detail : string }
      (** proved safe (BDD fixpoint, exhaustive BFS) or no
          counterexample up to the bound (BMC) *)
  | Violated of { trace : Symkit.Model.state array; model : Symkit.Model.t }
  | Unknown of { detail : string }

type result = {
  verdict : verdict;
  counters : (string * int) list;
      (** the run's effort counters and gauge high-water marks, sorted
          by name — e.g. [sat.conflicts], [reach.peak_nodes],
          [explicit.states], [bdd.cache_hits], [gc.minor_collections].
          The set is open: engines add entries without an interface
          change. *)
}

type t = {
  id : id;
  name : string;  (** = [id_to_string id] *)
  doc : string;  (** one-line description for [--help] listings *)
  run :
    ?cancel:(unit -> bool) ->
    ?obs:Obs.t ->
    ?max_depth:int ->
    Configs.t ->
    result;
      (** Check the paper's safety property against a configuration.
          [max_depth] (default 24) bounds BMC unrolling / BDD fixpoint
          iterations / BFS depth. [cancel] is the
          cooperative-cancellation hook polled by every engine's outer
          loop; a cancelled run returns its engine's inconclusive
          variant. [obs] names the track spans and metrics are written
          to; when absent (or {!Obs.disabled}), counters are still
          collected — on a private track that is dropped once
          [result.counters] has been read — but no trace is kept. *)
}

val all : t list
(** Every engine, in the portfolio's default priority order. *)

val get : id -> t

val short_names : string list
(** The short spellings of {!all}, in order: [["bdd"; "bmc";
    "explicit"]] — the one source of every "accepted engines" list in
    help texts and error messages. *)

val of_string : string -> t option
(** The engine named by a short or long name. *)

val explicit_max_states : int
(** Memory bound of the explicit-state engine: past it the verdict
    degrades to {!Unknown} rather than claiming exhaustion. *)

(** {1 Engine-independent helpers} *)

val witness :
  ?max_depth:int -> Configs.t -> Symkit.Expr.t ->
  (Symkit.Model.state array * Symkit.Model.t) option
(** Shortest trace reaching a probe condition, if one exists within the
    bound. *)

val describe_trace :
  Symkit.Model.t -> Symkit.Model.state array -> nodes:int -> string
(** Compact human-oriented rendering: per step, each node's protocol
    state and slot plus the coupler fault activity. *)

val export_smv : Configs.t -> string -> unit
(** Write the configuration's model to a file in the SMV input
    language, with the safety property as an INVARSPEC — for inspection
    in the paper's original notation or independent validation by an
    external SMV implementation. *)
