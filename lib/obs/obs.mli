(** Structured tracing and metrics for the verification engines.

    One observability surface for everything that used to report effort
    through ad-hoc channels (the runner's option-triple, the solver's
    stats strings): hierarchical {b spans} timed against a shared
    clock, typed {b counters} and max-retaining {b gauges}, collected
    per {b track} (one track per engine run, worker or campaign) into a
    thread-safe {!Collector} that aggregates across the portfolio's
    domains.

    {b Disabled by default, near-zero overhead.} Instrumented code
    receives an {!t} handle; the {!disabled} handle is a no-op sink —
    {!tick}/{!add} on a cell obtained from it are non-allocating
    constant-time calls, and {!with_span} runs its thunk directly. The
    hot paths therefore keep their instrumentation unconditionally and
    the CLIs switch it on with [--trace]/[--metrics].

    {b Hot-path pattern.} Intern a cell once per run, then bump it in
    the loop:
    {[
      let conflicts = Obs.counter obs "sat.conflicts" in
      ... Obs.tick conflicts ...
    ]}

    {b Concurrency.} A track is written by one domain at a time (each
    engine run gets its own), but cells are [Atomic.t]-backed, so
    concurrent increments from several domains are sound; the collector
    itself is mutex-guarded.

    Three exporters: a human table, JSON-lines, and the Chrome
    [trace_event] format — load the latter in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} for a flamegraph-style view of
    a portfolio matrix. See [doc/observability.md]. *)

type t
(** An observability handle: either the no-op sink or a live track of a
    {!Collector}. *)

val disabled : t
(** The no-op sink: every operation through it is a cheap no-op and
    allocates nothing. *)

val enabled : t -> bool
(** [false] exactly for {!disabled} — for guarding work that is only
    worth doing when somebody is listening (e.g. formatting span
    arguments). *)

(** {1 Counters and gauges} *)

type cell
(** An interned metric cell: a named counter or gauge on one track (or
    a no-op cell from {!disabled}). *)

val counter : t -> string -> cell
(** Intern a monotonically increasing counter, e.g.
    ["bdd.cache_hits"]. Idempotent: the same name on the same handle
    returns the same cell. *)

val gauge : t -> string -> cell
(** Intern a max-retaining gauge (high-water mark), e.g.
    ["pool.queue_depth"]. *)

val tick : cell -> unit
(** Increment a counter by one. No-op (and non-allocating) on a
    disabled cell; on a gauge it behaves like [record c 1]. *)

val add : cell -> int -> unit
(** Increment a counter by [n]. *)

val record : cell -> int -> unit
(** Record a gauge observation: the cell retains the maximum. *)

val incr_by : t -> string -> int -> unit
(** One-shot [add (counter t name) n] — for cold paths (end-of-run
    summaries) where interning a cell first is noise. *)

val set_max : t -> string -> int -> unit
(** One-shot [record (gauge t name) v]. *)

val counters : t -> (string * int) list
(** Snapshot of this track's cells, sorted by name. [[]] on
    {!disabled}. *)

(** {1 Spans} *)

type span
(** An open span (or a no-op span from {!disabled}). *)

val null_span : span

val start : t -> ?args:(string * string) list -> string -> span
(** Open a span. Spans on one track nest: a span started while another
    is open is its child (rendered one level deeper, and contained
    within it on the trace timeline). *)

val stop : span -> unit
(** Close the span. Closing {!null_span} (or closing twice) is a
    no-op. *)

val with_span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span, closing it whether
    [f] returns or raises. On {!disabled} this is just [f ()]. *)

val instant : t -> ?args:(string * string) list -> string -> unit
(** A zero-duration point event ("cancellation observed", "cache
    hit"). *)

(** {1 The collector} *)

module Collector : sig
  type handle := t

  type t
  (** A thread-safe collector: tracks, their spans and their cells.
      Multiple domains may create tracks and write to them
      concurrently. *)

  val create : ?clock:(unit -> float) -> unit -> t
  (** [clock] returns seconds (monotone within the run); it defaults to
      [Unix.gettimeofday]. Injecting a deterministic clock makes the
      exporters' output reproducible (used by the golden tests). *)

  val track : t -> string -> handle
  (** Open a new named track, e.g. ["E4 full-shifting/sat-bmc"]. Track
      ids are assigned in creation order. *)

  val totals : t -> (string * int) list
  (** All cells aggregated across tracks by name (counters summed,
      gauges maxed), sorted by name. *)

  val pp_table : Format.formatter -> t -> unit
  (** Human rendering: per track, its spans aggregated by name (count,
      total and max duration) and its cells; then the cross-track
      totals. *)

  val to_jsonl : t -> string
  (** One JSON object per line: a [track] line per track, a [span]/
      [instant] line per event (microsecond timestamps relative to the
      collector's creation), a [counter]/[gauge] line per cell. *)

  val chrome_trace : t -> Json.t
  (** The Chrome [trace_event] JSON object: one [thread_name] metadata
      record per track, an ["X"] (complete) event per span, an ["i"]
      (instant) event per point event and a ["C"] (counter) event per
      cell. *)

  val write_chrome_trace : t -> string -> unit
  (** Write {!chrome_trace} (pretty-printed) to a file. *)

  val write_jsonl : t -> string -> unit
end
