(** An immutable per-generation state bundle — the unit of MVCC in the
    serving layer.

    A snapshot owns everything a reader needs to answer improvement
    queries against one generation of the dataset: the frozen
    {!Query_index} (whose {!Instance} and flat column slabs it shares
    structurally with neighbouring generations) and a per-target
    evaluator cache. Writers never patch a published snapshot —
    {!Iq.Engine} builds the next generation through the functional
    [Query_index.with_*] paths and publishes it atomically, so a reader
    holding a snapshot can keep searching it unsynchronised while any
    number of mutations land.

    The evaluator cache (a hash table) is a {e cache of pure functions
    of the frozen index}: filling it late never changes an answer, only
    its cost. It is filled under the snapshot's own lock, so no two
    domains prepare the same target at once; the engine is the only
    caller of the [locked]/[find_entry]/[set_entry] group below, which
    exists so the prepare machinery (backend chains, failover,
    accounting) can stay in [Engine] without re-exposing the cache as
    public mutable state. *)

(** A cached per-target evaluator. Unlike the pre-MVCC engine cache
    there is no generation stamp: an entry lives in exactly one
    snapshot and is valid for that snapshot's whole lifetime. [e_pos]
    records which link of the backend fallback chain served it. *)
type entry = {
  e_eval : Evaluator.t;
  e_state : Ese.state option;
  e_pos : int;
  e_bname : string;
}

type t

val root : ?generation:int -> Query_index.t -> t
(** A root snapshot over a freshly built (or adopted) index.
    [generation] defaults to 0; recovery passes the generation the
    persisted checkpoint was taken at, so a replayed engine counts on
    from where the crashed one stopped. *)

val next : t -> Query_index.t -> t
(** The successor generation over a functionally-updated index: the
    generation counter advances by one and the evaluator cache starts
    empty (mutations move objects, so no evaluator survives). *)

val generation : t -> int

val index : t -> Query_index.t

val instance : t -> Instance.t

val size_words : t -> int
(** Approximate footprint in machine words of state {e owned} by this
    generation (the index; shared instance slabs are counted once per
    snapshot holding them — an upper bound for the pinned-memory
    ceiling the serve suite's admission test checks). *)

(** {2 Engine-internal cache protocol}

    Callers outside [Engine] should treat a snapshot as opaque. *)

val locked : t -> (unit -> 'a) -> 'a
(** Run under the snapshot's cache lock. Prepares serialise per
    snapshot (as they did per engine before MVCC); searches on already
    prepared entries run outside the lock. *)

val find_entry : t -> int -> entry option
(** Cached evaluator for a target. Call under {!locked}. *)

val set_entry : t -> int -> entry -> unit
(** Install a target's evaluator. Call under {!locked}. *)

val eval_total : t -> int
(** Sum of the cached evaluators' evaluation counters (takes the
    lock). The engine folds this into its process-total accounting
    when the snapshot is retired. *)
