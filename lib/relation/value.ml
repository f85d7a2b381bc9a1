type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Text of string

type ty = TBool | TInt | TFloat | TText

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Text _ -> Some TText

let ty_name = function
  | TBool -> "BOOLEAN"
  | TInt -> "INTEGER"
  | TFloat -> "REAL"
  | TText -> "TEXT"

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Text _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Text x, Text y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1. else 0.)
  | Null | Text _ -> None

let to_int = function
  | Int i -> Some i
  | Float f -> Some (int_of_float f)
  | Bool b -> Some (if b then 1 else 0)
  | Null | Text _ -> None

let to_bool = function
  | Bool b -> Some b
  | Int i -> Some (i <> 0)
  (* iqlint: allow float-exact-compare — SQL truthiness of a float is exact non-zero by definition *)
  | Float f -> Some (f <> 0.)
  | Null | Text _ -> None

let of_string_typed ty s =
  let s = String.trim s in
  if s = "" then Null
  else
    match ty with
    | TInt -> Int (int_of_string s)
    | TFloat -> Float (float_of_string s)
    | TBool -> (
        match String.lowercase_ascii s with
        | "true" | "t" | "1" -> Bool true
        | "false" | "f" | "0" -> Bool false
        | _ -> failwith ("Value.of_string_typed: bad boolean " ^ s))
    | TText -> Text s

let infer_of_string s =
  let s' = String.trim s in
  if s' = "" then Null
  else
    match int_of_string_opt s' with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s' with
        | Some f -> Float f
        | None -> (
            match String.lowercase_ascii s' with
            | "true" -> Bool true
            | "false" -> Bool false
            | _ -> Text s))

let to_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.12g" f
  | Text s -> s

let pp ppf v =
  match v with
  | Null -> Format.pp_print_string ppf "NULL"
  | Text s -> Format.fprintf ppf "%S" s
  | v -> Format.pp_print_string ppf (to_string v)

let is_null = function Null -> true | _ -> false
