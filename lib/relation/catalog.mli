(** The database catalog: a mutable namespace of tables. *)

type t

val create : unit -> t

val add : t -> string -> Table.t -> unit
(** @raise Invalid_argument when the (case-insensitive) name exists. *)

val drop : t -> string -> bool

val find : t -> string -> Table.t option

val names : t -> string list
(** Sorted table names. *)

(** {2 Secondary indexes}

    The catalog owns index definitions; builds are cached and refreshed
    lazily after table writes ({!invalidate_indexes}). *)

val create_index :
  t -> index_name:string -> table:string -> column:string -> unit
(** @raise Invalid_argument on duplicate index name, unknown table or
    unknown column. *)

val drop_index : t -> string -> bool

val invalidate_indexes : t -> string -> unit
(** Mark every index on a table stale (called after writes). *)

val index_on : t -> table:string -> column:string -> Hash_index.t option
(** A fresh index over [table.column] if one is defined — rebuilt on
    demand when stale. *)

val index_names : t -> string list
