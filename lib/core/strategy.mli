(** Improvement strategies (Definition 1) and their validity limits.

    A strategy is a vector [s] added to the target object's attributes.
    The paper requires strategies to be {e valid}: the improved object
    must stay inside the allowed attribute ranges, and the query issuer
    may forbid adjusting some attributes altogether (the [s_i = 0]
    constraint of Section 4.2.1). *)

open Geom

type t = Vec.t
(** The adjustment vector [s]. *)

type limits = {
  adjust_lo : Vec.t;  (** least allowed per-attribute adjustment *)
  adjust_hi : Vec.t;  (** greatest allowed per-attribute adjustment *)
  value_lo : Vec.t;  (** least allowed attribute value after applying *)
  value_hi : Vec.t;  (** greatest allowed attribute value after applying *)
}

val unrestricted : int -> limits
(** No limits in [R^d]. *)

val within_values : lo:Vec.t -> hi:Vec.t -> limits
(** Only attribute-range limits (e.g. keep normalized data in [0,1]). *)

val freeze : limits -> int -> limits
(** Forbid adjusting attribute [i]. *)

val freeze_all_but : limits -> int list -> limits
(** Only the listed attributes may change. *)

val bounds_for : limits -> p:Vec.t -> Lp.Projection.bounds
(** Effective per-coordinate bounds on [s] for an object at [p]:
    the adjustment limits intersected with what the value range leaves
    available. *)

val is_valid : limits -> p:Vec.t -> t -> bool

val apply : Vec.t -> t -> Vec.t
(** [apply p s = p + s] (the improved object [p']). *)

val zero : int -> t
