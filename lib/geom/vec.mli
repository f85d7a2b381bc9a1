(** Dense vectors over [float], the workhorse of the weight-space geometry.

    A vector is an immutable-by-convention [float array]; all operations
    allocate fresh arrays and never mutate their inputs. *)

type t = float array

val dim : t -> int
(** Number of coordinates. *)

val make : int -> float -> t
(** [make d x] is the [d]-dimensional vector with every coordinate [x]. *)

val zero : int -> t
(** [zero d] is [make d 0.]. *)

val of_list : float list -> t

val copy : t -> t

val basis : int -> int -> t
(** [basis d i] is the [i]-th standard basis vector of [R^d]. *)

val add : t -> t -> t
(** Coordinate-wise sum. @raise Invalid_argument on dimension mismatch. *)

val sub : t -> t -> t
(** Coordinate-wise difference. *)

val scale : float -> t -> t

val neg : t -> t

val mul : t -> t -> t
(** Coordinate-wise (Hadamard) product. *)

val dot : t -> t -> float
(** Inner product. @raise Invalid_argument on dimension mismatch. *)

val norm2 : t -> float
(** Squared Euclidean norm. *)

val norm : t -> float
(** Euclidean norm. *)

val l1_norm : t -> float

val linf_norm : t -> float

val dist : t -> t -> float
(** Euclidean distance. *)

val dist2 : t -> t -> float
(** Squared Euclidean distance. *)

val normalize : t -> t
(** Scale to unit Euclidean norm. A zero vector is returned unchanged. *)

val normalize_l1 : t -> t
(** Scale so coordinates sum to 1. A zero vector is returned unchanged. *)

val lerp : t -> t -> float -> t
(** [lerp a b t] is [a + t*(b - a)]. *)

val map2 : (float -> float -> float) -> t -> t -> t

val for_all2 : (float -> float -> bool) -> t -> t -> bool

val equal : ?eps:float -> t -> t -> bool
(** Coordinate-wise equality within [eps] (default [1e-9]). *)

val is_zero : ?eps:float -> t -> bool

val clamp : lo:t -> hi:t -> t -> t
(** Coordinate-wise clamp into the box [\[lo, hi\]]. *)

val pp : Format.formatter -> t -> unit
