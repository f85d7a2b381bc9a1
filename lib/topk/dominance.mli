(** Dominance-layer index — our stand-in for the Dominant Graph [26]
    (Zou & Chen), the state-of-the-art top-k index the paper benchmarks
    its indexing cost against (Figure 4).

    Minimization convention: object [p] dominates [q] when [p <= q] on
    every attribute and [p < q] on at least one; no non-negative linear
    utility can then rank [q] above [p]. Objects are stratified into
    layers by repeated skyline peeling (sort-filter-skyline); an object
    in layer [j] has [j] dominators chained above it, hence rank
    [>= j+1], so a top-k query only needs the first [k] layers. *)

type t

val build : ?with_edges:bool -> Geom.Vec.t array -> t
(** [with_edges] (default false) also materializes parent-child
    dominance edges between consecutive layers, as the Dominant Graph
    proper does; this is only needed for index-size accounting. *)

val layer_count : t -> int

val layers : t -> int array array
(** [layers t].(j) = ids in layer [j]. *)

val layer_of : t -> int -> int
(** Layer index of an object id. *)

val layer_table : t -> int array
(** The whole [layer_of] table, indexed by object id. Shared, not a
    copy: callers must not mutate it. *)

val edge_count : t -> int
(** Number of materialized dominance edges (0 unless [with_edges]). *)

val size_words : t -> int
(** Approximate index footprint in machine words (ids + edges). *)

val top_k : t -> data:Geom.Vec.t array -> weights:Geom.Vec.t -> k:int -> int list
(** Exact top-k for non-negative weights, visiting only the first [k]
    layers. Agrees with {!Eval.top_k} (same tie-break).
    @raise Invalid_argument on negative weights. *)

val dominates : Geom.Vec.t -> Geom.Vec.t -> bool
