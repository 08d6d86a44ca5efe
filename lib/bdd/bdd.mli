(** Hash-consed reduced ordered binary decision diagrams (ROBDDs).

    This is the symbolic backbone of the model checker: every boolean
    function over the model's state bits is represented canonically, so
    equality is handle equality and fixpoint detection is O(1).

    Variables are identified by nonnegative integers; the variable order
    is the natural integer order (smaller index = closer to the root).
    All operations on two diagrams require that they were created by the
    same manager.

    A diagram is a small integer handle into its manager's node store:
    {!id} of a node, issued in allocation order and never reused. The
    store keeps every node for as long as the manager lives; a sweep
    ({!gc}) bounds the unique and computed tables, not the store.

    Both tables are flat [int] arrays laid out so that a probe touches
    one cache line. A computed-table slot is four adjacent words: three
    keys (the first carries the operation) and the result. A
    unique-table slot packs a 30-bit tag of the node's hash beside its
    32-bit handle, so a probe reads a node only behind an equal tag and
    growing the table reads no node. The layout changes speed only: the
    same operations allocate the same nodes with the same ids and count
    the same computed-table hits and misses.

    {b Limit:} a handle must fit the 32-bit field beside the tag, so a
    manager issues at most 2{^ 32} − 2 internal nodes (ids 2 to
    2{^ 32} − 1), counting nodes swept by {!gc}; the operation that
    would create one more raises [Failure]. *)

type manager
(** Mutable state shared by a family of diagrams: the node store, the
    unique-node table and the computed table that memoizes operations. *)

type t
(** A BDD node handle. Diagrams are immutable and maximally shared. *)

val create_manager : ?gc_watermark:int -> unit -> manager
(** [create_manager ()] returns a fresh manager with small, empty
    tables that size themselves: the computed table (direct-mapped and
    lossy) grows with the unique table up to a fixed cap, keeping its
    entries.
    [gc_watermark] (default [0] = never collect) arms {!maybe_gc}. *)

val clear_caches : manager -> unit
(** Empty the computed table (the unique table is kept, so existing
    diagrams stay valid). Useful between unrelated fixpoint runs. *)

(** {1 Root registry and table sweeps}

    Hash-consing alone never forgets a node: a long fixpoint run grows
    the unique table with every intermediate result. The root registry
    names the diagrams a client still holds; {!gc} then sweeps every
    unregistered node out of the unique table and computed table, so
    both stay the size of the live diagrams. The node store is not
    swept: a handle is never reused, so every handle keeps denoting its
    function, and the store's memory lasts as long as the manager.

    {b Client obligation:} when {!gc}/{!maybe_gc} runs, every diagram
    that will be used afterwards as canonical must be reachable from a
    registered root — an unrooted diagram that survives in an OCaml
    variable across a sweep is semantically intact but loses canonicity
    (a later rebuild of an equal function may be a distinct node with a
    new id). Collection only ever happens inside {!gc}/{!maybe_gc}, so
    code that never calls them is unaffected. *)

val ref : manager -> t -> unit
(** Register a diagram as a GC root (refcounted; constants are
    implicit roots). *)

val deref : manager -> t -> unit
(** Drop one reference. @raise Invalid_argument if the diagram is not
    currently registered. *)

val with_root : manager -> t -> (unit -> 'a) -> 'a
(** [with_root m d f] runs [f] with [d] registered, dropping the
    reference on return or exception. *)

val gc : manager -> unit
(** Mark from the registered roots and sweep: the unique table is
    rebuilt from the marked nodes alone, and the computed table is
    cleared (it may hold swept nodes). Node storage is left as it is,
    so it grows for as long as the manager lives. Rooted diagrams
    remain valid and canonical; unrooted ones remain valid. *)

val maybe_gc : manager -> unit
(** Run {!gc} iff the manager has a positive watermark and at least
    that many nodes were allocated since the last sweep. The safepoint
    hook for fixpoint loops: cheap to call every iteration. *)

val set_gc_watermark : manager -> int -> unit
(** Set the allocation watermark ([0] disables collection).
    @raise Invalid_argument on a negative value. *)

val live_nodes : manager -> int
(** Current unique-table population. *)

val peak_nodes : manager -> int
(** Largest unique-table population ever observed (across sweeps). *)

val gc_count : manager -> int
(** Number of mark-and-sweep collections performed. *)

(** {1 Constants and variables} *)

val zero : t
val one : t
val is_zero : t -> bool
val is_one : t -> bool

val var : manager -> int -> t
(** [var m i] is the diagram of the projection function on variable [i]. *)

val nvar : manager -> int -> t
(** [nvar m i] is the negation of variable [i]. *)

(** {1 Boolean connectives} *)

val dnot : manager -> t -> t
val dand : manager -> t -> t -> t
val dor : manager -> t -> t -> t
val xor : manager -> t -> t -> t
val iff : manager -> t -> t -> t
val imp : manager -> t -> t -> t
val ite : manager -> t -> t -> t -> t

val conj : manager -> t list -> t
(** Conjunction of a list ([one] for the empty list). *)

val disj : manager -> t list -> t
(** Disjunction of a list ([zero] for the empty list). *)

(** {1 Structure} *)

val equal : t -> t -> bool
(** Canonical equality: equal functions are the same handle. *)

val id : t -> int
(** Unique id of the node: [0] for {!zero}, [1] for {!one}, and from
    [2] up in allocation order for internal nodes. An id is never
    reused within a manager, so every id issued after another is
    larger. *)

val top_var : manager -> t -> int
(** Root variable. @raise Invalid_argument on a constant. *)

val low : manager -> t -> t
val high : manager -> t -> t

val size : manager -> t -> int
(** Number of distinct internal nodes reachable from the root. *)

val support : manager -> t -> int list
(** Sorted list of variables the function actually depends on.

    Both walk the diagram by stamping its nodes with a generation kept
    in the manager, so like every other operation they must not run on
    one manager from two domains at once; walks of different managers
    from different domains are fine. *)

(** {1 Quantification and substitution} *)

type varset
(** A set of variables prepared for quantification, with its own identity
    so repeated quantifications over the same set hit the cache. *)

val varset : manager -> int list -> varset

val exists : manager -> varset -> t -> t
(** Existential quantification over a variable set. *)

val forall : manager -> varset -> t -> t

val and_exists : manager -> varset -> t -> t -> t
(** [and_exists m vs a b] computes [exists m vs (dand m a b)] without
    building the full conjunction first (the relational product at the
    heart of image computation). *)

val rename : manager -> (int -> int) -> t -> t
(** [rename m f d] substitutes variable [i] by variable [f i].
    [f] must be strictly monotonic on the support of [d] (it must
    preserve the variable order); this is checked lazily and violations
    raise [Invalid_argument]. [f] runs during a walk of [m], so it must
    not call {!size}, {!support}, [rename] or {!sat_count} on [m]. *)

val restrict : manager -> t -> t -> t
(** [restrict m f c] is the Coudert–Madre generalized cofactor: a
    (usually smaller) diagram agreeing with [f] wherever the care set
    [c] holds and unconstrained elsewhere, so
    [dand m (restrict m f c) c] equals [dand m f c]. Used to minimize
    the reachability frontier against the reached set before an image
    step. [restrict m f zero] is [f]. Note: the result is not
    guaranteed smaller on adversarial inputs — size-guard at the call
    site when it matters. *)

(** {1 Satisfying assignments} *)

val any_sat : manager -> t -> (int * bool) list
(** One satisfying assignment as (variable, value) pairs, mentioning only
    the variables on the chosen path. @raise Not_found on [zero]. *)

val sat_count : manager -> nvars:int -> t -> float
(** Number of satisfying assignments over a space of [nvars] variables
    (as a float, since counts overflow 63 bits quickly). *)

val iter_sat : manager -> nvars:int -> t -> (bool array -> unit) -> unit
(** Enumerate all satisfying assignments over variables [0..nvars-1],
    calling the function with a full assignment array each time. Only
    usable for small spaces; intended for tests. *)

(** {1 Diagnostics} *)

val counters : manager -> (string * int) list
(** Effort counters as an open counter set, sorted by name: node
    allocations ([bdd.nodes_allocated]), operation-cache hits and
    misses of the computed table ([bdd.cache_hits]/[bdd.cache_misses]),
    cache sweeps ([bdd.cache_sweeps], one per {!clear_caches}) and
    mark-and-sweep collections ([bdd.gc_count]). Monotone counters
    only — the {!live_nodes}/{!peak_nodes} populations are gauges and
    are surfaced separately by the engine instrumentation. Consumed by
    the {!Obs}-based engine instrumentation; the names are pinned by a
    golden test. *)

val stats : manager -> string
(** Human-readable statistics: unique-table population and slots,
    computed-table slots, and the effort counters. *)
