(** View-based top-k evaluation (PREFER-style, [Hristidis et al. 01] /
    [Das et al. 06] — the view-based family of Section 2).

    A materialized view stores the objects sorted by a reference weight
    vector [v]. A query with weights [w] scans the view in [v]-score
    order, maintaining the current top-k under [w]; since
    [|w.p - v.p| <= |w - v| * |p|], once the view score exceeds the
    current k-th best by more than [|w - v| * R] (with [R] the largest
    object norm) no later object can improve the result, and the scan
    stops. With several views, the one nearest the query answers it. *)

type t

val build : views:Geom.Vec.t list -> Geom.Vec.t array -> t
(** Materialize one sorted view per reference vector.
    @raise Invalid_argument on an empty view list or arity mismatch. *)

val view_count : t -> int

val top_k : t -> weights:Geom.Vec.t -> k:int -> int list
(** Exact top-k (minimizing convention, {!Eval.top_k} tie-break). *)

val top_k_stats : t -> weights:Geom.Vec.t -> k:int -> int list * int
(** Also reports how many view entries were scanned. *)
