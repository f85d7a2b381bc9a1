(** SQL values for the in-memory DBMS substrate. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Text of string

type ty = TBool | TInt | TFloat | TText

val type_of : t -> ty option
(** [None] for [Null]. *)

val ty_name : ty -> string

val compare : t -> t -> int
(** Total order: [Null] sorts first; [Int]s and [Float]s compare
    numerically across the two representations. *)

val equal : t -> t -> bool

val to_float : t -> float option
(** Numeric view: ints and floats; booleans as 0/1; [None] otherwise. *)

val to_int : t -> int option

val to_bool : t -> bool option
(** SQL truthiness: [Bool b]; nonzero numerics are true; [None] for
    [Null] and text. *)

val of_string_typed : ty -> string -> t
(** Parse a literal of the given type; empty string parses to [Null].
    @raise Failure on malformed input. *)

val infer_of_string : string -> t
(** Best-effort literal inference used by the CSV loader: int, then
    float, then bool, else text. Empty string is [Null]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val is_null : t -> bool
