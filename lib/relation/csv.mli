(** Minimal CSV codec (RFC-4180 quoting) for loading datasets into the
    DBMS and persisting benchmark inputs. *)

val parse_line : string -> string list
(** Split one CSV record; supports double-quoted fields with embedded
    commas and escaped quotes. *)

val render_line : string list -> string

val table_of_string : ?header:bool -> string -> Table.t
(** Build a table, inferring column types from the first data row.
    When [header] (default true) the first record names the columns;
    otherwise columns are [c0, c1, ...]. *)

val string_of_table : ?header:bool -> Table.t -> string

val load_file : ?header:bool -> string -> Table.t

val save_file : ?header:bool -> string -> Table.t -> unit
