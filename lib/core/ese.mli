(** Efficient Strategy Evaluation — Algorithm 2.

    Given a target object, the per-target state caches the target's
    current hit set ([TP(p_i)]). Evaluating a candidate strategy [s]
    then touches only the queries inside some affected subspace — the
    slab between an intersection involving the target and its
    post-strategy image (Equations 4–5) — and re-scores each such query
    in O(d) using the cached rank-k rival ("switch the rank of f_i and
    f_l" rather than re-evaluating the query). A pruned state narrows
    that to the queries whose k-th threshold the strategy can reach
    (see {!prepare}). *)

open Geom

type state

val prepare : ?prune:bool -> Query_index.t -> target:int -> state
(** Compute the target's base memberships from the index cache, plus
    the per-query rank-k rival and threshold (so {!member_after} and
    {!hit_constraint} run in O(d) with no index walk).

    With [prune] (the default) [prepare] also computes each query's
    reach, a lower bound on the [‖s‖∞] of any strategy that can move
    the target across the query's k-th threshold, and sorts the
    queries by it (O(m·d + m log m)). The bound holds for any weight
    signs, so every instance of dimension at most 1024 gets the
    pruned path. [~prune:false], or a dimension above 1024, keeps the
    paper's Algorithm 2 (the slab search over every cached rival).
    Both paths return bit-for-bit identical counts. *)

val base_hits : state -> int
(** [H(p_i)] before any improvement. *)

val member : state -> q:int -> bool
(** Base membership of the target in query [q]'s result. *)

val evaluate : state -> s:Strategy.t -> int
(** [H(p_i + s)] — Algorithm 2. [s] lives in feature space. A pruned
    state re-scores, with {!member_after}, only the queries whose reach
    is within [‖s‖∞] (a NaN coordinate reaches every query) and
    allocates O(1) words; an unpruned one re-scores the slab search's
    affected subspaces. *)

val member_after : state -> s:Strategy.t -> q:int -> bool
(** Whether the improved target hits query [q]; O(d) via the cached
    threshold rival. *)

val hit_constraint :
  state -> q:int -> current:Vec.t -> (Vec.t * float) option
(** The linear constraint [(a, b)] such that a step [s] from [current]
    (the target's current feature vector) makes the target hit query
    [q] iff [a . s <= b] (Equation 14, with a small strict-inequality
    margin). [None] when the target hits [q] unconditionally (fewer
    than k other objects). *)

val dirty_queries : state -> s:Strategy.t -> int list
(** The paper's affected-subspace query set for [s]: the R-tree slab
    search over every cached rival, on pruned and unpruned states
    alike. Sorted ascending. *)

val dirty_between :
  state -> s_from:Strategy.t -> s_to:Strategy.t -> int list
(** Queries whose result can differ between the target improved by
    [s_from] and by [s_to]. Incremental searches (Section 5.1) use this
    to keep per-target membership caches exact across accumulated
    steps. An unpruned state returns the slab between the two strategy
    positions, sorted ascending; a pruned one the queries whose reach
    is within [max ‖s_from‖∞ ‖s_to‖∞], by ascending reach. Neither
    lists a query twice. *)

val evaluations : state -> int
(** Number of [evaluate] calls so far (benchmark instrumentation). *)

val pruned : state -> bool
(** Whether this state evaluates through the reach band: [prune] was
    set at {!prepare} time and the dimension is at most 1024. *)

val rival_count : state -> int
(** The rivals that decide the target's memberships: the distinct
    rank-k rivals when pruned, the full cached prefix set otherwise.
    Computed on each call (O(m log m) when pruned). *)
