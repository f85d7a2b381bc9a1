(** Exact top-k evaluation by scan, with partial selection.

    Scores are minimized (the paper's Section 3.2 convention). Ties are
    broken by object id, ascending, so all evaluators in this library
    agree on results. The dataset is an array of feature vectors; object
    ids are array indices. *)

val better : float -> int -> float -> int -> bool
(** [better s1 i1 s2 i2]: the entry with score [s1] and id [i1] ranks
    before the one with [s2] and [i2] — a strictly lower score, or an
    equal score and a lower id. The one rank order of every evaluator
    in the tree. Comparisons follow IEEE rules: a NaN score ranks
    before nothing and after nothing. *)

val top_k : Geom.Vec.t array -> weights:Geom.Vec.t -> k:int -> int list
(** The [k] best (lowest-scoring) object ids, best first. One bounded
    selection over unboxed score/id buffers for every [k]: O(n) scoring
    plus an insertion per entrant, no sort of the whole dataset. *)

val top_k_scored :
  Geom.Vec.t array -> weights:Geom.Vec.t -> k:int -> (int * float) list
(** {!top_k} with each id's score. *)

val rank : Geom.Vec.t array -> weights:Geom.Vec.t -> int -> int
(** 1-based rank of an object under the tie-break order. *)

val kth_score_excluding :
  Geom.Vec.t array -> weights:Geom.Vec.t -> k:int -> excl:int -> (int * float) option
(** The object and score at rank [k] once [excl] is removed from the
    dataset — the hit threshold [f_{j,k}] of Equation 6: the improved
    target hits the query iff its score beats (is below, or ties with a
    smaller id than) this. [None] when fewer than [k] other objects
    exist (then the target always hits). *)

val hits : Geom.Vec.t array -> weights:Geom.Vec.t -> k:int -> int -> bool
(** Whether the object is in the query's top-k. *)

val hit_count :
  Geom.Vec.t array -> queries:Query.t list -> int -> int
(** [H(p)]: number of queries whose top-k contains the object. *)
