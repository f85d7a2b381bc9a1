(** Table schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty }

type t

val make : column list -> t
(** @raise Invalid_argument on duplicate (case-insensitive) names. *)

val columns : t -> column list

val arity : t -> int

val index_of : t -> string -> int option
(** Case-insensitive column lookup. *)

val column_at : t -> int -> column

val names : t -> string list
