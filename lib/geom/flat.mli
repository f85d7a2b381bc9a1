(** Structure-of-arrays geometry slab.

    All rows of a point set live contiguously in one unboxed
    [float array], dim-strided: row [i] occupies offsets
    [i * dim .. i * dim + dim - 1]. Hot loops (slab classification,
    candidate evaluation) index into {!data} directly instead of
    chasing per-row boxed vectors.

    Slabs are immutable: the patch operations return fresh slabs, in
    step with the functional updates of [Iq.Instance]. *)

type t

(** Build a slab from boxed rows. All rows must share one dimension.
    @raise Invalid_argument on ragged input. *)
val of_rows : Vec.t array -> t

val dim : t -> int
val rows : t -> int

(** The backing array. Row [i] starts at [offset t i] and spans
    [dim t] cells. Read-only by convention — slabs are shared. *)
val data : t -> float array

(** Materialize row [i] as a fresh boxed vector. *)
val row : t -> int -> Vec.t

(** [dot t i w] is [Vec.dot w (row t i)] with identical operand order
    and accumulation sequence (bit-for-bit equal results). *)
val dot : t -> int -> Vec.t -> float

val append_row : t -> Vec.t -> t
val update_row : t -> int -> Vec.t -> t
val remove_row : t -> int -> t
