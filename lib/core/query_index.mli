(** The Efficient-IQ query index (Section 4.1, scalable path).

    Queries are grouped by their {e ranking signature} — the ordered
    prefix of the best [depth] object ids — which is the subdomain
    equivalence relation restricted to the intersections that can ever
    affect a top-k result (see DESIGN.md). Each group caches that
    ordered prefix once ("at most one query needs to be evaluated per
    subdomain"); an R-tree over the query points supports the
    affected-subspace slab searches of Equations 4–5. *)

open Geom

type group = {
  gid : int;
  prefix : int array;  (** ordered best-object ids, shared by the group *)
  members : int array;  (** query indices *)
}

type t

val build : ?depth_slack:int -> ?pool:Parallel.pool -> Instance.t -> t
(** Prefix depth is [max_k + 1 + depth_slack] (slack defaults to 0; a
    positive slack keeps signatures valid under deeper perturbations).
    Each prefix is a bounded-selection scan over the feature rows.

    [pool] shards the per-query prefix computation across a
    {!Parallel} Domain pool. {b Safe-sharing invariant:} the scan is
    read-only over frozen data — it reads only the immutable
    [Instance] feature array. Each task returns its query's prefix
    through [Parallel.map_array], and the grouping/R-tree phases that
    follow run sequentially on the caller. The built index is
    byte-identical for every pool size. *)

val instance : t -> Instance.t

val depth : t -> int

val groups : t -> group array

val group_of : t -> int -> group
(** Group containing a query index. *)

val n_groups : t -> int

val rtree : t -> int Rtree.t
(** Query-point R-tree; payloads are query indices. *)

val candidate_rivals : t -> int array
(** Object ids appearing in at least one cached prefix — the only
    possible swap partners whose intersections with a target can change
    any query's result (the Fact-2 elimination of Section 4.1). *)

val build_seconds : t -> float
(** Wall time of {!build}, read from the monotonic-guarded
    {!Resilience.now_ms} clock, so never negative. *)

val size_words : t -> int
(** Approximate index footprint in machine words (R-tree nodes, group
    prefixes, membership arrays). *)

val kth_other : t -> q:int -> target:int -> int option
(** The object at rank [k_q] once [target] is removed — Equation 6's
    threshold object [p_{j,k}]. [None] when fewer than [k] others exist
    in the prefix (implies the target always hits). *)

val member : t -> q:int -> int -> bool
(** Whether object [id] is in query [q]'s top-k (from the cache). *)

val slab_queries :
  t -> rival:Vec.t -> before:Vec.t -> after:Vec.t -> (int -> unit) -> unit
(** Visit every query index [q] under which the positions [before] and
    [after] do not both score strictly on one side of [rival] — the
    affected subspace between an intersection and its post-strategy
    image (Section 4.1), closed: a query on either hyperplane is a
    score tie that object ids decide, so it is always visited. Scores
    are [Vec.dot w p], the float operation sequence every evaluator
    ranks by, so the slab agrees with them exactly at ties and near
    ties. Uses R-tree pruning via per-node score ranges. *)

(** {2 Data updating — Section 4.3}

    Every update is copy-on-write: the input index is left fully intact
    and a successor index is returned, so a reader holding the original
    can keep searching against a consistent snapshot while a writer
    builds the next generation. Unchanged prefix arrays and the
    instance's untouched column slabs are shared structurally between
    the two. Evaluator/ESE states prepared on the input describe the
    input only; prepare fresh ones against the successor. *)

val with_query_added : t -> Topk.Query.t -> t * int
(** Insert a top-k query, returning the successor and the query's
    index. The nearest existing query's subdomain is tried first (the
    paper's kNN shortcut) and verified against its boundaries; only on
    mismatch is the prefix recomputed from scratch.
    @raise Invalid_argument when the query's [k] exceeds the index
    depth (rebuild with [depth_slack] instead). *)

val with_query_removed : t -> int -> t
(** Remove the query at an index; later query indices shift down. *)

val with_object_added : t -> Vec.t -> t * int
(** Insert an object (raw attributes), returning the successor and the
    object id. Subdomain boundaries move only where the new function
    cuts into a cached prefix; those prefixes are updated by sorted
    insertion, everything else is shared with the parent. *)

val with_object_updated : t -> int -> Vec.t -> t
(** Replace object [id]'s raw attributes keeping its id. Only
    subdomains whose cached prefix contains [id] (found via the
    {!prefix_filter} Bloom filter) or that the moved object now cuts
    into recompute their prefixes; everything else is shared with the
    parent. *)

val with_object_removed : t -> int -> t
(** Remove an object id (later ids shift down). The Bloom filter over
    prefix membership ({!prefix_filter}) short-circuits the search for
    affected subdomains; only those recompute their prefixes. *)

val prefix_filter : t -> int Bloom.t
(** Bloom filter over object ids that bound some populated subdomain
    (appear in a cached prefix) — Section 4.3's structure. *)

val hint_stats : t -> int * int
(** [(hits, misses)] of the kNN subdomain shortcut across the
    {!with_query_added} calls that led from the built index to this
    one. A successor carries its parent's counts forward; the parent's
    never move. *)

(** {2 Persistence}

    Snapshots store plain data only — raw attributes, feature vectors,
    effective query weights and the cached prefixes; the utility's
    feature map (a closure) is not stored. A loaded index works in
    feature space, which is where all IQ processing happens; for linear
    utilities this is a perfect round trip. *)

val save : t -> string -> unit
(** Write a binary index snapshot. *)

val load : string -> t
(** Load a snapshot written by {!save}. The loaded instance's objects
    are the saved feature vectors (weights already in the minimizing
    convention). @raise Invalid_argument on a non-snapshot file. *)
