(** SQL executor over the {!Relation} catalog.

    A deliberately simple volcano-free evaluator: full scan, filter,
    optional grouping/aggregation, sort, limit, project. This is the
    integration point the paper's analytic tool uses to let query
    issuers pick target objects with a SELECT statement. *)

exception Error of string

type result =
  | Rows of { columns : string list; rows : Relation.Value.t array list }
  | Affected of int  (** INSERT / UPDATE / DELETE row counts *)
  | Done  (** DDL *)

val query : Relation.Catalog.t -> string -> result
(** Parse then execute one statement. *)

val query_rows :
  Relation.Catalog.t -> string -> string list * Relation.Value.t array list
(** Like {!query} but insists the statement is row-returning.
    @raise Error otherwise. *)

val pp_result : Format.formatter -> result -> unit
