(** A top-k query: a point in the (possibly feature-augmented) weight
    domain plus the number of results to return. *)

type t = { weights : Geom.Vec.t; k : int; id : int }

val make : ?id:int -> k:int -> Geom.Vec.t -> t
(** @raise Invalid_argument when [k <= 0]. *)
