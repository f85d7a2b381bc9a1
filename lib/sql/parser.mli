(** Recursive-descent SQL parser. *)

exception Error of string

val parse : string -> Ast.statement
(** Parse a single statement (optional trailing semicolon).
    @raise Error on syntax errors. *)

val parse_expr : string -> Ast.expr
(** Parse a standalone expression (used for cost-function and predicate
    snippets in the analytic tool). *)
