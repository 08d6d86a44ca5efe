(** The formal model of Section 4: a TTP/C cluster on a star topology
    with two redundant star couplers, transliterated from the paper's
    SMV constraints into the symkit DSL.

    One transition of the model corresponds to one TDMA slot. Node ids
    and slot numbers are 1-based, as in the paper. Frames on a channel
    are abstracted to their type ([none], [cold_start], [c_state],
    [bad_frame], [other]) plus the slot id they claim.

    Where the paper elides rules, the reconstruction is documented in
    the implementation header and in DESIGN.md: clique-counter updates,
    the judgment of noise-only slots, forced passive-to-active
    promotion, and the absence of host-initiated demotion. *)

val node_var : int -> string -> string
(** [node_var i field] is the state-variable name of node [i]'s
    [field], e.g. [node_var 2 "state"] = ["n2_state"]. *)

val states : string list
(** The nine protocol states, as enum values. *)

val frame_types : string list
(** The channel-frame abstraction: none, cold_start, c_state,
    bad_frame, other. *)

val model : Configs.t -> Symkit.Model.t
(** The full symbolic model for a configuration. Built once per
    configuration and kept for the life of the process: structurally
    equal configurations get the physically equal model, so its
    memoized {!Symkit.Model.fingerprint} is computed once for every
    caller. Safe to call from several domains. *)

val var_order_strategies : Configs.t -> (string * string list) list
(** Named BDD variable-order strategies (each a permutation of the
    model's variables), compared by the benchmark harness. *)
