(** In-memory tables: a schema plus a growable array of rows.

    Rows are [Value.t array]s whose arity matches the schema. The IQ tool
    stores the object dataset in such a table and converts numeric
    columns to geometry points via {!to_points}. *)

type row = Value.t array

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val length : t -> int

val insert : t -> row -> unit
(** @raise Invalid_argument on arity or (non-Null) type mismatch. *)

val get : t -> int -> row
(** @raise Invalid_argument when out of range. *)

val set : t -> int -> row -> unit
(** Replace row [i] in place (used by UPDATE). *)

val delete_where : t -> (row -> bool) -> int
(** Remove matching rows, returning how many were removed. *)

val iter : t -> (row -> unit) -> unit

val iteri : t -> (int -> row -> unit) -> unit

val to_list : t -> row list

val to_points : t -> string list -> Geom.Vec.t array
(** [to_points t cols] extracts the named numeric columns as points,
    one per row, in row order.
    @raise Invalid_argument on unknown column or non-numeric value. *)

val of_points :
  ?prefix:string -> Geom.Vec.t array -> t
(** Build a table with columns [prefix0 .. prefix(d-1)] (default prefix
    ["a"]) from a point cloud; used by generators and examples. *)
