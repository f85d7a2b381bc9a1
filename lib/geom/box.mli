(** Axis-aligned bounding boxes in [R^d]; the R-tree's key geometry. *)

type t = { lo : Vec.t; hi : Vec.t }

val make : lo:Vec.t -> hi:Vec.t -> t
(** @raise Invalid_argument if dimensions differ or some [lo.(j) > hi.(j)]. *)

val of_point : Vec.t -> t
(** Degenerate box covering a single point. *)

val of_points : Vec.t list -> t
(** Smallest box covering the points. @raise Invalid_argument on []. *)

val dim : t -> int

val union : t -> t -> t

val union_many : t list -> t
(** @raise Invalid_argument on []. *)

val intersects : t -> t -> bool

val contains_point : t -> Vec.t -> bool

val contains_box : t -> t -> bool
(** [contains_box outer inner]. *)

val area : t -> float
(** Product of side lengths (hyper-volume). *)

val margin : t -> float
(** Sum of side lengths (used by split heuristics). *)

val enlargement : t -> t -> float
(** [enlargement b b'] is [area (union b b') - area b]. *)

val overlap_area : t -> t -> float

val center : t -> Vec.t

val min_dist2 : t -> Vec.t -> float
(** Squared Euclidean distance from a point to the box (0 inside);
    the kNN lower bound. *)

val unit : int -> t
(** [unit d] is [\[0,1\]^d] — the normalized query-weight domain. *)

val equal : ?eps:float -> t -> t -> bool
