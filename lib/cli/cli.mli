(** Shared command-line vocabulary for the [bin/] executables.

    One place defines the flag spellings every tool uses — [--config]
    (alias [--feature-set]), [--engine]/[--engines], [--nodes],
    [--depth], [--json], [--trace]/[--metrics] — plus the uniform
    parsers (which exit with code 2 and the same wording everywhere)
    and the observability plumbing that turns [--trace FILE] /
    [--metrics] into an {!Obs.Collector} and exports it on exit. *)

(** {1 Common flag terms} *)

val config : ?default:string -> unit -> string Cmdliner.Term.t
(** [-c]/[--config] (aliases [-f]/[--feature-set]): the star-coupler
    feature set. *)

val engine : ?default:string -> unit -> string Cmdliner.Term.t
(** [-e]/[--engine]: one verification engine ([bdd], [bmc],
    [induction], [explicit], or a long name). *)

val engines : ?default:string -> unit -> string Cmdliner.Term.t
(** [--engines]: a comma-separated engine list, tried in order by
    {!Portfolio.race}; defaults to {!Portfolio.default_engines}. *)

val nodes : ?default:int -> unit -> int Cmdliner.Term.t
(** [-n]/[--nodes]: cluster size (paper: 4). *)

val depth : ?default:int -> unit -> int Cmdliner.Term.t
(** [-d]/[--depth]: unrolling/iteration bound. *)

val cache_max_entries : unit -> int option Cmdliner.Term.t
(** [--cache-max-entries N]: cap the persistent verdict cache at [N]
    entries (LRU eviction); unbounded when omitted. Pass the result to
    [Portfolio.Cache.create]. *)

val json : unit -> string option Cmdliner.Term.t
(** [--json FILE]: machine-readable output. *)

val partitioned : unit -> bool Cmdliner.Term.t
(** [--partitioned] (default) / [--monolithic]: whether the BDD engine
    folds images over the conjunctively partitioned transition relation
    with early quantification, or uses one monolithic relprod. *)

val gc_watermark : unit -> int option Cmdliner.Term.t
(** [--gc-watermark N]: sweep dead BDD nodes at iteration boundaries
    after [N] allocations ([0] disables); the engine's default when
    omitted. *)

val no_restrict : unit -> bool Cmdliner.Term.t
(** [--no-restrict]: turn off Coudert–Madre frontier minimization. *)

val reach_tuning_of :
  partitioned:bool -> gc_watermark:int option -> no_restrict:bool ->
  Symkit.Reach.tuning
(** Combine the three flags into the BDD engine's tuning record
    (starting from {!Symkit.Reach.default_tuning} or
    {!Symkit.Reach.monolithic_tuning} according to [partitioned]).
    Rejects a negative [gc_watermark] with exit code 2. *)

val chaos : unit -> string option Cmdliner.Term.t
(** [--chaos SEED[:SPEC]]: arm deterministic fault injection (see
    {!Resilience.Faults.of_spec} for the grammar). Parse the result
    with {!faults_of_chaos}. *)

(** {1 Uniform parsers}

    All of these print one standard diagnostic to stderr and [exit 2]
    on unknown input, so every tool rejects a typo identically. *)

val feature_set_of_config : string -> Guardian.Feature_set.t
val engine_of_name : string -> Tta_model.Engine.t
val engine_ids_of_names : string -> Tta_model.Engine.id list
(** Comma-separated, e.g. ["bdd,explicit"]; rejects the empty list. *)

val faults_of_chaos : string option -> Resilience.Faults.t
(** The parsed [--chaos] value as a fault-injection registry;
    {!Resilience.Faults.disabled} when the flag was absent. *)

val socket_addr : exe:string -> string -> Service.Net.addr
(** A [--socket] address; the diagnostic is prefixed with [exe]. *)

val cannot_listen : exe:string -> Service.Net.addr -> Unix.error -> 'a
(** Report an address the daemon could not bind, and exit 2 like a
    malformed one. *)

(** {1 Observability} *)

type obs
(** The tool's observability context: the parsed [--trace]/[--metrics]
    flags and, when either was given, a live collector. *)

val obs : unit -> obs Cmdliner.Term.t
(** [--trace FILE] (write a Chrome [trace_event] file on exit) and
    [--metrics] (print the collected metrics table on exit). *)

val obs_collector : obs -> Obs.Collector.t option
(** [Some] iff [--trace] or [--metrics] was given — pass to
    [Portfolio.race]/[run_matrix]. *)

val obs_track : obs -> string -> Obs.t
(** A named track of the context's collector, or {!Obs.disabled} when
    observability is off — pass to an engine or campaign. *)

val obs_finish : obs -> unit
(** Export: write the Chrome trace (announcing the path on stdout)
    and/or print the metrics table. A no-op when neither flag was
    given — default output stays byte-identical. *)

(** {1 JSON output} *)

val write_json : string -> Json.t -> unit
(** Write pretty-printed JSON plus a trailing newline to a file — the
    one emission path every tool's [--json] uses. *)
