(** Fagin's Threshold Algorithm over per-dimension sorted lists.

    This is the classical view-based top-k evaluator the RTA baseline
    leans on: every dimension keeps its objects sorted by attribute
    value, sorted accesses proceed in lockstep, and the scan stops once
    the k-th best found score strictly beats the threshold
    [sum_j w_j * last_j]. Exact for non-negative weights and minimizing
    scores; agrees with {!Eval.top_k}. *)

type t

val build : Geom.Vec.t array -> t

val top_k : t -> weights:Geom.Vec.t -> k:int -> int list
(** @raise Invalid_argument on negative weights or arity mismatch. *)

val top_k_stats : t -> weights:Geom.Vec.t -> k:int -> int list * int
(** Also reports the number of sorted-access rounds (depth scanned),
    for benchmark instrumentation. *)
