(** Hyperplanes in [R^d], written as [{ x | normal . x = offset }].

    In the improvement-query setting a hyperplane is the intersection of
    two object functions [f_i] and [f_l] inside the query-weight domain:
    [normal = p_i - p_l] and [offset = 0] (Equation 2 of the paper). The
    "above" side is where [normal . x >= offset], i.e. where [f_i] scores
    at least as high as [f_l]. *)

type t = private { normal : Vec.t; offset : float }

type side = Above | Below | On

val make : normal:Vec.t -> offset:float -> t
(** @raise Invalid_argument if [normal] is the zero vector. *)

val of_points : Vec.t -> Vec.t -> t option
(** [of_points p_i p_l] is the intersection hyperplane of the two object
    functions, [None] when the objects coincide (no intersection). *)

val eval : t -> Vec.t -> float
(** [eval h x] is [normal . x - offset]; positive on the above side. *)

val side : ?eps:float -> t -> Vec.t -> side
(** Which side of [h] the point lies on, with tolerance [eps]
    (default [1e-12]). Points within [eps] are [On]. *)

val above_or_on : ?eps:float -> t -> Vec.t -> bool
(** The paper treats on-plane queries as above; this is that predicate. *)

val shift : t -> Vec.t -> t
(** [shift h s] is the hyperplane after the target object is improved by
    [s]: the normal becomes [normal + s] (Equation 3). When the new normal
    is zero the functions coincide; we return a degenerate-free plane by
    raising [Invalid_argument]. Use {!shift_opt} to observe that case. *)

val shift_opt : t -> Vec.t -> t option

val distance : t -> Vec.t -> float
(** Euclidean distance from a point to the hyperplane. *)

val project : t -> Vec.t -> Vec.t
(** Orthogonal projection of a point onto the hyperplane. *)

val box_min_max : t -> lo:Vec.t -> hi:Vec.t -> float * float
(** [box_min_max h ~lo ~hi] is the (min, max) of [normal . x - offset]
    over the axis-aligned box [\[lo, hi\]]; used to prune R-tree nodes
    against halfspaces without visiting their contents. *)

val box_min_max_n : normal:Vec.t -> lo:Vec.t -> hi:Vec.t -> float * float
(** [box_min_max_n ~normal ~lo ~hi] is [box_min_max (make ~normal
    ~offset:0.) ~lo ~hi] without constructing the hyperplane (and without
    the zero-normal check) — bit-for-bit identical results. Hot loops use
    this to range a candidate plane over the weight domain per rival. *)
