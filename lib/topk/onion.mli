(** The Onion technique — layer-based top-k indexing [Chang et al. 00],
    one of the related-work index families (Section 2).

    Objects are organized into convex-hull layers: the minimum of any
    linear utility over the dataset is attained at a vertex of the
    outer hull, and more generally the rank of an object is at least
    its layer index + 1. A top-k query therefore only evaluates the
    first [k] layers.

    Exact hull peeling is implemented for 2-D data; higher dimensions
    fall back to dominance-layer peeling, which preserves the rank
    bound for non-negative weights (a dominated object can never
    outrank its dominator). The [kind] accessor reports which
    construction was used. *)

type t

type kind = Convex_hull_2d | Dominance_fallback

val build : Geom.Vec.t array -> t

val kind : t -> kind

val layer_of : t -> int -> int

val layers : t -> int array array

val top_k : t -> data:Geom.Vec.t array -> weights:Geom.Vec.t -> k:int -> int list
(** Exact top-k under the minimizing convention. 2-D hull layers accept
    arbitrary weights; the dominance fallback requires non-negative
    weights. Agrees with {!Eval.top_k}.
    @raise Invalid_argument on negative weights in fallback mode. *)
