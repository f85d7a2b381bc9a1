open Relation

exception Error of string

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Done

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let num2 name f g a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (f x y)
  | _ -> (
      match (Value.to_float a, Value.to_float b) with
      | Some x, Some y -> Value.Float (g x y)
      | _ -> fail "%s: non-numeric operand" name)

let eval_binop op a b =
  let open Ast in
  match op with
  | Add -> num2 "+" ( + ) ( +. ) a b
  | Sub -> num2 "-" ( - ) ( -. ) a b
  | Mul -> num2 "*" ( * ) ( *. ) a b
  | Div -> (
      match (a, b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | _ -> (
          match (Value.to_float a, Value.to_float b) with
          | Some _, Some 0. -> fail "division by zero"
          | Some x, Some y -> Value.Float (x /. y)
          | _ -> fail "/: non-numeric operand"))
  | Mod -> (
      match (a, b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | _ -> (
          match (Value.to_int a, Value.to_int b) with
          | Some _, Some 0 -> fail "modulo by zero"
          | Some x, Some y -> Value.Int (x mod y)
          | _ -> fail "%%: non-integer operand"))
  | Eq | Neq | Lt | Le | Gt | Ge -> (
      match (a, b) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | _ ->
          let c = Value.compare a b in
          let r =
            match op with
            | Eq -> c = 0
            | Neq -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
            | _ ->
                (* iqlint: allow forbidden-escape — only comparison operators reach this match *)
                assert false
          in
          Value.Bool r)
  | And -> (
      match (Value.to_bool a, Value.to_bool b) with
      | Some false, _ | _, Some false -> Value.Bool false
      | Some true, Some true -> Value.Bool true
      | _ -> Value.Null)
  | Or -> (
      match (Value.to_bool a, Value.to_bool b) with
      | Some true, _ | _, Some true -> Value.Bool true
      | Some false, Some false -> Value.Bool false
      | _ -> Value.Null)

(* SQL LIKE with % (any run) and _ (any char). *)
let like_match pattern text =
  let np = String.length pattern and nt = String.length text in
  let rec go pi ti =
    if pi >= np then ti >= nt
    else
      match pattern.[pi] with
      | '%' ->
          let rec try_from t = t <= nt && (go (pi + 1) t || try_from (t + 1)) in
          try_from ti
      | '_' -> ti < nt && go (pi + 1) (ti + 1)
      | c -> ti < nt && Char.lowercase_ascii text.[ti] = Char.lowercase_ascii c
                        && go (pi + 1) (ti + 1)
  in
  go 0 0

let call_function name args =
  let one () = match args with [ v ] -> v | _ -> fail "%s expects 1 arg" name in
  let two () =
    match args with [ a; b ] -> (a, b) | _ -> fail "%s expects 2 args" name
  in
  let numeric f =
    match Value.to_float (one ()) with
    | Some x -> Value.Float (f x)
    | None -> if Value.is_null (one ()) then Value.Null else fail "%s: non-numeric" name
  in
  match name with
  | "ABS" -> (
      match one () with
      | Value.Int i -> Value.Int (abs i)
      | v -> (
          match Value.to_float v with
          | Some x -> Value.Float (abs_float x)
          | None -> if Value.is_null v then Value.Null else fail "ABS: non-numeric"))
  | "SQRT" -> numeric sqrt
  | "EXP" -> numeric exp
  | "LN" -> numeric log
  | "FLOOR" -> numeric floor
  | "CEIL" | "CEILING" -> numeric ceil
  | "ROUND" -> numeric Float.round
  | "POWER" | "POW" -> (
      let a, b = two () in
      match (Value.to_float a, Value.to_float b) with
      | Some x, Some y -> Value.Float (x ** y)
      | _ ->
          if Value.is_null a || Value.is_null b then Value.Null
          else fail "POWER: non-numeric")
  | "LENGTH" -> (
      match one () with
      | Value.Text s -> Value.Int (String.length s)
      | Value.Null -> Value.Null
      | _ -> fail "LENGTH: not text")
  | "UPPER" -> (
      match one () with
      | Value.Text s -> Value.Text (String.uppercase_ascii s)
      | Value.Null -> Value.Null
      | _ -> fail "UPPER: not text")
  | "LOWER" -> (
      match one () with
      | Value.Text s -> Value.Text (String.lowercase_ascii s)
      | Value.Null -> Value.Null
      | _ -> fail "LOWER: not text")
  | "COALESCE" -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> Value.Null)
  | _ -> fail "unknown function %s" name

let rec eval ~schema ~row expr =
  let open Ast in
  match expr with
  | Lit v -> v
  | Col name -> (
      match Schema.index_of schema name with
      | Some i -> row.(i)
      | None -> fail "unknown column %s" name)
  | Unary (Neg, e) -> (
      match eval ~schema ~row e with
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | Value.Null -> Value.Null
      | _ -> fail "unary minus on non-numeric")
  | Unary (Not, e) -> (
      match Value.to_bool (eval ~schema ~row e) with
      | Some b -> Value.Bool (not b)
      | None -> Value.Null)
  | Binary (op, a, b) -> eval_binop op (eval ~schema ~row a) (eval ~schema ~row b)
  | Call (f, args) -> call_function f (List.map (eval ~schema ~row) args)
  | Agg _ -> fail "aggregate in row context"
  | Between (e, lo, hi) ->
      let v = eval ~schema ~row e in
      let l = eval ~schema ~row lo and h = eval ~schema ~row hi in
      if Value.is_null v || Value.is_null l || Value.is_null h then Value.Null
      else Value.Bool (Value.compare l v <= 0 && Value.compare v h <= 0)
  | In_list (e, items) ->
      let v = eval ~schema ~row e in
      if Value.is_null v then Value.Null
      else
        Value.Bool
          (List.exists (fun i -> Value.equal v (eval ~schema ~row i)) items)
  | Like (e, pat) -> (
      match eval ~schema ~row e with
      | Value.Text s -> Value.Bool (like_match pat s)
      | Value.Null -> Value.Null
      | _ -> fail "LIKE on non-text")
  | Is_null (e, negated) ->
      let isnull = Value.is_null (eval ~schema ~row e) in
      Value.Bool (if negated then not isnull else isnull)

let truthy ~schema ~row expr =
  match Value.to_bool (eval ~schema ~row expr) with
  | Some b -> b
  | None -> false

(* Aggregate evaluation over a group of rows. Non-aggregate subtrees are
   evaluated against the group's representative (first) row, which is
   correct for GROUP BY keys and follows the usual lenient semantics. *)
let rec eval_agg ~schema ~group expr =
  let open Ast in
  match expr with
  | Agg (a, arg) -> (
      let values =
        match arg with
        | None -> List.map (fun _ -> Value.Int 1) group
        | Some e ->
            List.filter_map
              (fun row ->
                let v = eval ~schema ~row e in
                if Value.is_null v then None else Some v)
              group
      in
      match a with
      | Count -> Value.Int (List.length values)
      | Sum | Avg -> (
          match values with
          | [] -> Value.Null
          | _ ->
              let total =
                List.fold_left
                  (fun acc v ->
                    match Value.to_float v with
                    | Some f -> acc +. f
                    | None -> fail "SUM/AVG over non-numeric")
                  0. values
              in
              if a = Sum then Value.Float total
              else Value.Float (total /. float_of_int (List.length values)))
      | Min -> (
          match values with
          | [] -> Value.Null
          | v :: rest ->
              List.fold_left
                (fun acc x -> if Value.compare x acc < 0 then x else acc)
                v rest)
      | Max -> (
          match values with
          | [] -> Value.Null
          | v :: rest ->
              List.fold_left
                (fun acc x -> if Value.compare x acc > 0 then x else acc)
                v rest))
  | Lit _ | Col _ -> (
      match group with
      | row :: _ -> eval ~schema ~row expr
      | [] -> Value.Null)
  | Unary (op, e) -> (
      let v = eval_agg ~schema ~group e in
      match op with
      | Neg -> (
          match v with
          | Value.Int i -> Value.Int (-i)
          | Value.Float f -> Value.Float (-.f)
          | Value.Null -> Value.Null
          | _ -> fail "unary minus on non-numeric")
      | Not -> (
          match Value.to_bool v with
          | Some b -> Value.Bool (not b)
          | None -> Value.Null))
  | Binary (op, a, b) ->
      eval_binop op (eval_agg ~schema ~group a) (eval_agg ~schema ~group b)
  | Call (f, args) ->
      call_function f (List.map (eval_agg ~schema ~group) args)
  | Between _ | In_list _ | Like _ | Is_null _ -> (
      match group with
      | row :: _ -> eval ~schema ~row expr
      | [] -> Value.Null)

let rec contains_agg expr =
  let open Ast in
  match expr with
  | Agg _ -> true
  | Lit _ | Col _ -> false
  | Unary (_, e) -> contains_agg e
  | Binary (_, a, b) -> contains_agg a || contains_agg b
  | Call (_, args) -> List.exists contains_agg args
  | Between (a, b, c) -> contains_agg a || contains_agg b || contains_agg c
  | In_list (e, items) -> contains_agg e || List.exists contains_agg items
  | Like (e, _) -> contains_agg e
  | Is_null (e, _) -> contains_agg e

(* Resolve bare column names against a (possibly qualified) schema:
   exact match wins; otherwise a unique ".name" suffix match does. *)
let rec resolve_expr schema expr =
  let open Ast in
  let r = resolve_expr schema in
  match expr with
  | Col name -> (
      match Schema.index_of schema name with
      | Some _ -> expr
      | None when String.contains name '.' -> (
          (* A qualified name over an unqualified (single-table) schema:
             accept the bare suffix when the schema has no dotted names. *)
          let plain_schema =
            not
              (List.exists
                 (fun c -> String.contains c.Schema.name '.')
                 (Schema.columns schema))
          in
          if plain_schema then begin
            let bare =
              match String.rindex_opt name '.' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name
            in
            match Schema.index_of schema bare with
            | Some _ -> Col bare
            | None -> expr
          end
          else expr)
      | None -> (
          let suffix = "." ^ String.lowercase_ascii name in
          let matches =
            List.filter
              (fun c ->
                let cn = String.lowercase_ascii c.Schema.name in
                String.length cn > String.length suffix
                && String.sub cn
                     (String.length cn - String.length suffix)
                     (String.length suffix)
                   = suffix)
              (Schema.columns schema)
          in
          match matches with
          | [ c ] -> Col c.Schema.name
          | [] -> expr (* unresolved: evaluation will report it *)
          | _ -> fail "ambiguous column %s" name))
  | Lit _ -> expr
  | Unary (op, e) -> Unary (op, r e)
  | Binary (op, a, b) -> Binary (op, r a, r b)
  | Call (f, args) -> Call (f, List.map r args)
  | Agg (a, e) -> Agg (a, Option.map r e)
  | Between (e, lo, hi) -> Between (r e, r lo, r hi)
  | In_list (e, items) -> In_list (r e, List.map r items)
  | Like (e, p) -> Like (r e, p)
  | Is_null (e, n) -> Is_null (r e, n)

let qualified_schema name schema =
  Schema.make
    (List.map
       (fun c -> { c with Schema.name = name ^ "." ^ c.Schema.name })
       (Schema.columns schema))

(* Nested-loop inner joins; the combined schema qualifies every column
   with its table name. *)
let join_source catalog base_name (joins : Ast.join list) =
  let table name =
    match Catalog.find catalog name with
    | Some t -> t
    | None -> fail "no such table: %s" name
  in
  let base = table base_name in
  match joins with
  | [] -> (Table.schema base, Table.to_list base)
  | _ ->
      let schema = ref (qualified_schema base_name (Table.schema base)) in
      let rows = ref (Table.to_list base) in
      List.iter
        (fun (j : Ast.join) ->
          let right = table j.Ast.table in
          let right_schema =
            qualified_schema j.Ast.table (Table.schema right)
          in
          let combined =
            Schema.make (Schema.columns !schema @ Schema.columns right_schema)
          in
          let on = resolve_expr combined j.Ast.on in
          let joined = ref [] in
          List.iter
            (fun left_row ->
              Table.iter right (fun right_row ->
                  let row = Array.append left_row right_row in
                  match Value.to_bool (eval ~schema:combined ~row on) with
                  | Some true -> joined := row :: !joined
                  | Some false | None -> ()))
            !rows;
          schema := combined;
          rows := List.rev !joined)
        joins;
      (!schema, !rows)

let projection_name i = function
  | Ast.Star -> fail "internal: star survived expansion"
  | Ast.Expr (_, Some alias) -> alias
  | Ast.Expr (Ast.Col c, None) -> c
  | Ast.Expr (e, None) ->
      ignore i;
      Format.asprintf "%a" Ast.pp_expr e

(* First equality conjunct [col = literal] usable by an index. *)
let rec conjuncts e =
  match e with
  | Ast.Binary (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let indexable_equality catalog table where =
  match where with
  | None -> None
  | Some w ->
      List.find_map
        (fun c ->
          match c with
          | Ast.Binary (Ast.Eq, Ast.Col col, Ast.Lit v)
          | Ast.Binary (Ast.Eq, Ast.Lit v, Ast.Col col) -> (
              match Catalog.index_on catalog ~table ~column:col with
              | Some idx -> Some (idx, v)
              | None -> None)
          | _ -> None)
        (conjuncts w)

let run_select catalog (s : Ast.select) =
  let schema, source_rows =
    match (s.joins, indexable_equality catalog s.table s.where) with
    | [], Some (idx, v) ->
        (* Index lookup shrinks the scan; the full WHERE still runs. *)
        let table =
          match Catalog.find catalog s.table with
          | Some t -> t
          | None -> fail "no such table: %s" s.table
        in
        ( Table.schema table,
          List.map (Relation.Table.get table) (Relation.Hash_index.lookup idx v)
        )
    | _ -> join_source catalog s.table s.joins
  in
  (* Expand stars, then resolve bare columns against the source. *)
  let projections =
    List.concat_map
      (function
        | Ast.Star ->
            List.map (fun n -> Ast.Expr (Ast.Col n, None)) (Schema.names schema)
        | p -> [ p ])
      s.projections
    |> List.map (function
         | Ast.Expr (e, alias) -> Ast.Expr (resolve_expr schema e, alias)
         | Ast.Star -> Ast.Star)
  in
  let s =
    {
      s with
      Ast.where = Option.map (resolve_expr schema) s.Ast.where;
      Ast.group_by = List.map (resolve_expr schema) s.Ast.group_by;
      Ast.having = Option.map (resolve_expr schema) s.Ast.having;
      Ast.order_by =
        List.map
          (fun (o : Ast.order) -> { o with Ast.key = resolve_expr schema o.Ast.key })
          s.Ast.order_by;
    }
  in
  let filtered =
    List.filter
      (fun row ->
        match s.where with
        | Some w -> truthy ~schema ~row w
        | None -> true)
      source_rows
  in
  let aggregate_mode =
    s.group_by <> []
    || List.exists
         (function Ast.Expr (e, _) -> contains_agg e | Ast.Star -> false)
         projections
    || Option.fold ~none:false ~some:contains_agg s.having
  in
  let columns = List.mapi projection_name projections in
  let result_rows =
    if aggregate_mode then begin
      let groups =
        if s.group_by = [] then (match filtered with [] -> [ [] ] | _ -> [ filtered ])
        else begin
          let tbl = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun row ->
              let key =
                List.map (fun e -> eval ~schema ~row e) s.group_by
                |> List.map Value.to_string
                |> String.concat "\x00"
              in
              match Hashtbl.find_opt tbl key with
              | Some rows -> Hashtbl.replace tbl key (row :: rows)
              | None ->
                  Hashtbl.add tbl key [ row ];
                  order := key :: !order)
            filtered;
          List.rev_map
            (fun k ->
              match Hashtbl.find_opt tbl k with
              | Some rows -> List.rev rows
              | None -> [])
            !order
          |> List.rev
        end
      in
      let groups =
        match s.having with
        | None -> groups
        | Some h ->
            List.filter
              (fun group ->
                match Value.to_bool (eval_agg ~schema ~group h) with
                | Some b -> b
                | None -> false)
              groups
      in
      List.map
        (fun group ->
          Array.of_list
            (List.map
               (function
                 | Ast.Expr (e, _) -> eval_agg ~schema ~group e
                 | Ast.Star ->
                     (* iqlint: allow forbidden-escape — Star is expanded before projection *)
                     assert false)
               projections))
        groups
    end
    else
      List.map
        (fun row ->
          Array.of_list
            (List.map
               (function
                 | Ast.Expr (e, _) -> eval ~schema ~row e
                 | Ast.Star ->
                     (* iqlint: allow forbidden-escape — Star is expanded before projection *)
                     assert false)
               projections))
        filtered
  in
  let result_rows, distinct_applied =
    if s.distinct then begin
      let seen = Hashtbl.create 16 in
      let deduped =
        List.filter
          (fun row ->
            let key = String.concat "\x00" (List.map Value.to_string (Array.to_list row)) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          result_rows
      in
      (* Source correspondence is lost after dedup: ORDER BY then only
         sees the projected columns. *)
      (deduped, true)
    end
    else (result_rows, false)
  in
  (* ORDER BY: keys may reference projected aliases or source columns.
     We evaluate against the source row when possible, else against the
     projected row. In aggregate mode, only projected columns exist. *)
  let result_rows =
    match s.order_by with
    | [] -> result_rows
    | keys ->
        let proj_schema =
          Schema.make
            (List.map (fun n -> { Schema.name = n; ty = Value.TText }) columns)
        in
        let source_rows =
          if aggregate_mode || distinct_applied then None
          else Some (Array.of_list filtered)
        in
        let indexed = List.mapi (fun i r -> (i, r)) result_rows in
        let key_values (i, projected) (o : Ast.order) =
          let try_proj () =
            try Some (eval ~schema:proj_schema ~row:projected o.key)
            with Error _ -> None
          in
          let try_source () =
            match source_rows with
            | Some rows -> (
                try Some (eval ~schema ~row:rows.(i) o.key) with Error _ -> None)
            | None -> None
          in
          match try_source () with
          | Some v -> v
          | None -> (
              match try_proj () with
              | Some v -> v
              | None -> fail "ORDER BY key not resolvable")
        in
        let cmp a b =
          let rec go = function
            | [] -> 0
            | o :: rest ->
                let va = key_values a o and vb = key_values b o in
                let c = Value.compare va vb in
                let c = if o.Ast.asc then c else -c in
                if c <> 0 then c else go rest
          in
          go keys
        in
        List.map snd (List.stable_sort cmp indexed)
  in
  let result_rows =
    match s.offset with
    | None -> result_rows
    | Some off ->
        let rec drop k = function
          | rest when k = 0 -> rest
          | [] -> []
          | _ :: rest -> drop (k - 1) rest
        in
        drop (Int.max 0 off) result_rows
  in
  let result_rows =
    match s.limit with
    | None -> result_rows
    | Some n ->
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        take (Int.max 0 n) result_rows
  in
  Rows { columns; rows = result_rows }

let coerce_to ty v =
  match (ty, v) with
  | _, Value.Null -> Value.Null
  | Value.TFloat, Value.Int i -> Value.Float (float_of_int i)
  | Value.TInt, Value.Float f when Float.is_integer f ->
      Value.Int (int_of_float f)
  | _ -> v

(* EXPLAIN: a textual execution plan. The evaluator is a straight
   pipeline, so the plan mirrors it — the value is the sargability and
   cardinality annotations. *)
let rec explain catalog stmt =
  let row_count name =
    match Catalog.find catalog name with
    | Some t -> Table.length t
    | None -> -1
  in
  let sargable = function
    | Ast.Binary ((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), Ast.Col _, Ast.Lit _)
    | Ast.Binary ((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), Ast.Lit _, Ast.Col _)
    | Ast.Between (Ast.Col _, Ast.Lit _, Ast.Lit _) ->
        true
    | _ -> false
  in
  match stmt with
  | Ast.Explain inner -> "EXPLAIN" :: explain catalog inner
  | Ast.Select s ->
      let lines = ref [] in
      let emit fmt = Format.kasprintf (fun l -> lines := l :: !lines) fmt in
      (match
         (s.Ast.joins, indexable_equality catalog s.Ast.table s.Ast.where)
       with
      | [], Some (idx, v) ->
          emit "INDEX LOOKUP %s.%s = %s (%d distinct values)" s.Ast.table
            (Relation.Hash_index.table_column idx)
            (Value.to_string v)
            (Relation.Hash_index.cardinality idx)
      | _ -> emit "SCAN %s (%d rows)" s.Ast.table (row_count s.Ast.table));
      List.iter
        (fun (j : Ast.join) ->
          emit "NESTED-LOOP JOIN %s (%d rows) ON %a" j.Ast.table
            (row_count j.Ast.table) Ast.pp_expr j.Ast.on)
        s.Ast.joins;
      Option.iter
        (fun w ->
          List.iter
            (fun c ->
              emit "FILTER %a%s" Ast.pp_expr c
                (if sargable c then "  [sargable]" else ""))
            (conjuncts w))
        s.Ast.where;
      if s.Ast.group_by <> [] then
        emit "GROUP BY %d key(s)%s"
          (List.length s.Ast.group_by)
          (match s.Ast.having with None -> "" | Some _ -> " + HAVING");
      emit "PROJECT %d column(s)%s"
        (List.length s.Ast.projections)
        (if s.Ast.distinct then " DISTINCT" else "");
      if s.Ast.order_by <> [] then
        emit "SORT BY %d key(s)" (List.length s.Ast.order_by);
      (match (s.Ast.limit, s.Ast.offset) with
      | None, None -> ()
      | l, o ->
          emit "LIMIT %s OFFSET %s"
            (match l with Some n -> string_of_int n | None -> "ALL")
            (match o with Some n -> string_of_int n | None -> "0"));
      List.rev !lines
  | Ast.Create_table (name, cols) ->
      [ Printf.sprintf "CREATE TABLE %s (%d columns)" name (List.length cols) ]
  | Ast.Drop_table name -> [ "DROP TABLE " ^ name ]
  | Ast.Insert { table; rows; _ } ->
      [ Printf.sprintf "INSERT %d row(s) INTO %s" (List.length rows) table ]
  | Ast.Update { table; sets; _ } ->
      [ Printf.sprintf "UPDATE %s (%d column(s))" table (List.length sets) ]
  | Ast.Delete { table; _ } ->
      [ Printf.sprintf "DELETE FROM %s (scan %d rows)" table (row_count table) ]
  | Ast.Create_index { index_name; table; column } ->
      [ Printf.sprintf "CREATE INDEX %s ON %s(%s)" index_name table column ]
  | Ast.Drop_index name -> [ "DROP INDEX " ^ name ]

let execute catalog stmt =
  match stmt with
  | Ast.Explain inner ->
      Rows
        {
          columns = [ "plan" ];
          rows =
            List.map (fun l -> [| Value.Text l |]) (explain catalog inner);
        }
  | Ast.Select s -> run_select catalog s
  | Ast.Create_table (name, cols) ->
      (match Catalog.find catalog name with
      | Some _ -> fail "table %s already exists" name
      | None -> ());
      Catalog.add catalog name (Table.create (Schema.make cols));
      Done
  | Ast.Drop_table name ->
      if Catalog.drop catalog name then Done else fail "no such table: %s" name
  | Ast.Insert { table; columns; rows } ->
      let t =
        match Catalog.find catalog table with
        | Some t -> t
        | None -> fail "no such table: %s" table
      in
      let schema = Table.schema t in
      let empty_schema = Schema.make [] in
      let positions =
        match columns with
        | None -> List.init (Schema.arity schema) Fun.id
        | Some cols ->
            List.map
              (fun c ->
                match Schema.index_of schema c with
                | Some i -> i
                | None -> fail "unknown column %s" c)
              cols
      in
      List.iter
        (fun exprs ->
          if List.length exprs <> List.length positions then
            fail "INSERT arity mismatch";
          let row = Array.make (Schema.arity schema) Value.Null in
          List.iter2
            (fun pos e ->
              let v = eval ~schema:empty_schema ~row:[||] e in
              row.(pos) <- coerce_to (Schema.column_at schema pos).Schema.ty v)
            positions exprs;
          try Table.insert t row
          with Invalid_argument msg -> fail "%s" msg)
        rows;
      Catalog.invalidate_indexes catalog table;
      Affected (List.length rows)
  | Ast.Update { table; sets; where } ->
      let t =
        match Catalog.find catalog table with
        | Some t -> t
        | None -> fail "no such table: %s" table
      in
      let schema = Table.schema t in
      let count = ref 0 in
      Table.iteri t (fun i row ->
          let matches =
            match where with None -> true | Some w -> truthy ~schema ~row w
          in
          if matches then begin
            let row' = Array.copy row in
            List.iter
              (fun (col, e) ->
                match Schema.index_of schema col with
                | Some j ->
                    row'.(j) <-
                      coerce_to (Schema.column_at schema j).Schema.ty
                        (eval ~schema ~row e)
                | None -> fail "unknown column %s" col)
              sets;
            (try Table.set t i row'
             with Invalid_argument msg -> fail "%s" msg);
            incr count
          end);
      Catalog.invalidate_indexes catalog table;
      Affected !count
  | Ast.Delete { table; where } ->
      let t =
        match Catalog.find catalog table with
        | Some t -> t
        | None -> fail "no such table: %s" table
      in
      let schema = Table.schema t in
      let removed =
        Table.delete_where t (fun row ->
            match where with None -> true | Some w -> truthy ~schema ~row w)
      in
      Catalog.invalidate_indexes catalog table;
      Affected removed
  | Ast.Create_index { index_name; table; column } -> (
      try
        Catalog.create_index catalog ~index_name ~table ~column;
        Done
      with Invalid_argument m -> fail "%s" m)
  | Ast.Drop_index name ->
      if Catalog.drop_index catalog name then Done
      else fail "no such index: %s" name

let query catalog input =
  let stmt = try Parser.parse input with Parser.Error m -> raise (Error m) in
  execute catalog stmt

let query_rows catalog input =
  match query catalog input with
  | Rows { columns; rows } -> (columns, rows)
  | Affected _ | Done -> fail "statement does not return rows"

let pp_result ppf = function
  | Done -> Format.pp_print_string ppf "OK"
  | Affected n -> Format.fprintf ppf "%d row(s) affected" n
  | Rows { columns; rows } ->
      Format.fprintf ppf "@[<v>%s@," (String.concat " | " columns);
      List.iter
        (fun row ->
          Format.fprintf ppf "%s@,"
            (String.concat " | "
               (List.map Value.to_string (Array.to_list row))))
        rows;
      Format.fprintf ppf "(%d rows)@]" (List.length rows)
