open Ast

exception Error of string

type state = { mutable toks : Lexer.token list }

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok what =
  let t = next st in
  if t <> tok then fail "expected %s, found %a" what Lexer.pp_token t

let keyword_is st kw =
  match Lexer.keyword (peek st) with Some k -> k = kw | None -> false

let eat_keyword st kw =
  if keyword_is st kw then begin
    advance st;
    true
  end
  else false

let expect_keyword st kw =
  if not (eat_keyword st kw) then
    fail "expected %s, found %a" kw Lexer.pp_token (peek st)

let expect_ident st what =
  match next st with
  | Lexer.IDENT s -> s
  | t -> fail "expected %s, found %a" what Lexer.pp_token t

let aggregates = [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let agg_of_string = function
  | "COUNT" -> Count
  | "SUM" -> Sum
  | "AVG" -> Avg
  | "MIN" -> Min
  | "MAX" -> Max
  | s -> fail "unknown aggregate %s" s

(* Expression grammar, loosest to tightest:
   or_expr := and_expr (OR and_expr)*
   and_expr := not_expr (AND not_expr)*
   not_expr := NOT not_expr | predicate
   predicate := additive ((=|<>|<|<=|>|>=) additive
                | BETWEEN additive AND additive
                | [NOT] IN (list) | [NOT] LIKE string | IS [NOT] NULL)?
   additive := multiplicative ((plus|minus) multiplicative)...
   multiplicative := unary ((star|slash|percent) unary)...
   unary := - unary | primary
   primary := literal | ident | ident(args) | (or_expr) *)

let rec parse_or st =
  let lhs = parse_and st in
  if eat_keyword st "OR" then Binary (Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if eat_keyword st "AND" then Binary (And, lhs, parse_and st) else lhs

and parse_not st =
  if eat_keyword st "NOT" then Unary (Not, parse_not st) else parse_predicate st

and parse_predicate st =
  let lhs = parse_additive st in
  match peek st with
  | Lexer.EQ ->
      advance st;
      Binary (Eq, lhs, parse_additive st)
  | Lexer.NEQ ->
      advance st;
      Binary (Neq, lhs, parse_additive st)
  | Lexer.LT ->
      advance st;
      Binary (Lt, lhs, parse_additive st)
  | Lexer.LE ->
      advance st;
      Binary (Le, lhs, parse_additive st)
  | Lexer.GT ->
      advance st;
      Binary (Gt, lhs, parse_additive st)
  | Lexer.GE ->
      advance st;
      Binary (Ge, lhs, parse_additive st)
  | _ ->
      if eat_keyword st "BETWEEN" then begin
        let lo = parse_additive st in
        expect_keyword st "AND";
        let hi = parse_additive st in
        Between (lhs, lo, hi)
      end
      else if keyword_is st "NOT" then begin
        advance st;
        if eat_keyword st "IN" then Unary (Not, parse_in st lhs)
        else if eat_keyword st "LIKE" then Unary (Not, parse_like st lhs)
        else fail "expected IN or LIKE after NOT"
      end
      else if eat_keyword st "IN" then parse_in st lhs
      else if eat_keyword st "LIKE" then parse_like st lhs
      else if eat_keyword st "IS" then begin
        let negated = eat_keyword st "NOT" in
        expect_keyword st "NULL";
        Is_null (lhs, negated)
      end
      else lhs

and parse_in st lhs =
  expect st Lexer.LPAREN "(";
  let rec items acc =
    let e = parse_or st in
    if peek st = Lexer.COMMA then begin
      advance st;
      items (e :: acc)
    end
    else List.rev (e :: acc)
  in
  let list = items [] in
  expect st Lexer.RPAREN ")";
  In_list (lhs, list)

and parse_like st lhs =
  match next st with
  | Lexer.STRING pat -> Like (lhs, pat)
  | t -> fail "expected pattern string after LIKE, found %a" Lexer.pp_token t

and parse_additive st =
  let rec loop lhs =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        loop (Binary (Add, lhs, parse_multiplicative st))
    | Lexer.MINUS ->
        advance st;
        loop (Binary (Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    match peek st with
    | Lexer.STAR ->
        advance st;
        loop (Binary (Mul, lhs, parse_unary st))
    | Lexer.SLASH ->
        advance st;
        loop (Binary (Div, lhs, parse_unary st))
    | Lexer.PERCENT ->
        advance st;
        loop (Binary (Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      Unary (Neg, parse_unary st)
  | Lexer.PLUS ->
      advance st;
      parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  match next st with
  | Lexer.INT i -> Lit (Relation.Value.Int i)
  | Lexer.FLOAT f -> Lit (Relation.Value.Float f)
  | Lexer.STRING s -> Lit (Relation.Value.Text s)
  | Lexer.LPAREN ->
      let e = parse_or st in
      expect st Lexer.RPAREN ")";
      e
  | Lexer.IDENT name -> (
      let upper = String.uppercase_ascii name in
      match upper with
      | "NULL" -> Lit Relation.Value.Null
      | "TRUE" -> Lit (Relation.Value.Bool true)
      | "FALSE" -> Lit (Relation.Value.Bool false)
      | _ ->
          if peek st = Lexer.DOT then begin
            advance st;
            let col = expect_ident st "column name after '.'" in
            Col (name ^ "." ^ col)
          end
          else if peek st = Lexer.LPAREN then begin
            advance st;
            if List.mem upper aggregates then begin
              let agg = agg_of_string upper in
              if peek st = Lexer.STAR then begin
                advance st;
                expect st Lexer.RPAREN ")";
                if agg <> Count then fail "%s(*) is only valid for COUNT" upper;
                Agg (Count, None)
              end
              else begin
                let arg = parse_or st in
                expect st Lexer.RPAREN ")";
                Agg (agg, Some arg)
              end
            end
            else begin
              let rec args acc =
                if peek st = Lexer.RPAREN then List.rev acc
                else begin
                  let e = parse_or st in
                  if peek st = Lexer.COMMA then begin
                    advance st;
                    args (e :: acc)
                  end
                  else List.rev (e :: acc)
                end
              in
              let arguments = args [] in
              expect st Lexer.RPAREN ")";
              Call (upper, arguments)
            end
          end
          else Col name)
  | t -> fail "unexpected token %a in expression" Lexer.pp_token t

let parse_projections st =
  let rec proj acc =
    let item =
      if peek st = Lexer.STAR then begin
        advance st;
        Star
      end
      else begin
        let e = parse_or st in
        let alias =
          if eat_keyword st "AS" then Some (expect_ident st "alias")
          else
            match peek st with
            | Lexer.IDENT name
              when not
                     (List.mem
                        (String.uppercase_ascii name)
                        [
                          "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "LIMIT";
                          "OFFSET"; "JOIN"; "INNER"; "ON";
                        ]) ->
                advance st;
                Some name
            | _ -> None
        in
        Expr (e, alias)
      end
    in
    if peek st = Lexer.COMMA then begin
      advance st;
      proj (item :: acc)
    end
    else List.rev (item :: acc)
  in
  proj []

let parse_select st =
  let distinct = eat_keyword st "DISTINCT" in
  let projections = parse_projections st in
  expect_keyword st "FROM";
  let table = expect_ident st "table name" in
  let rec joins acc =
    let inner = keyword_is st "INNER" in
    if inner || keyword_is st "JOIN" then begin
      if inner then begin
        advance st;
        expect_keyword st "JOIN"
      end
      else advance st;
      let jtable = expect_ident st "join table name" in
      expect_keyword st "ON";
      let on = parse_or st in
      joins ({ table = jtable; on } :: acc)
    end
    else List.rev acc
  in
  let joins = joins [] in
  let where = if eat_keyword st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if eat_keyword st "GROUP" then begin
      expect_keyword st "BY";
      let rec keys acc =
        let e = parse_or st in
        if peek st = Lexer.COMMA then begin
          advance st;
          keys (e :: acc)
        end
        else List.rev (e :: acc)
      in
      keys []
    end
    else []
  in
  let having = if eat_keyword st "HAVING" then Some (parse_or st) else None in
  let order_by =
    if eat_keyword st "ORDER" then begin
      expect_keyword st "BY";
      let rec keys acc =
        let e = parse_or st in
        let asc =
          if eat_keyword st "DESC" then false
          else begin
            ignore (eat_keyword st "ASC");
            true
          end
        in
        let item = { key = e; asc } in
        if peek st = Lexer.COMMA then begin
          advance st;
          keys (item :: acc)
        end
        else List.rev (item :: acc)
      in
      keys []
    end
    else []
  in
  let limit =
    if eat_keyword st "LIMIT" then
      match next st with
      | Lexer.INT n -> Some n
      | t -> fail "expected integer after LIMIT, found %a" Lexer.pp_token t
    else None
  in
  let offset =
    if eat_keyword st "OFFSET" then
      match next st with
      | Lexer.INT n -> Some n
      | t -> fail "expected integer after OFFSET, found %a" Lexer.pp_token t
    else None
  in
  Select
    {
      distinct;
      projections;
      table;
      joins;
      where;
      group_by;
      having;
      order_by;
      limit;
      offset;
    }

let type_of_name name =
  match String.uppercase_ascii name with
  | "INT" | "INTEGER" | "BIGINT" -> Relation.Value.TInt
  | "REAL" | "FLOAT" | "DOUBLE" | "NUMERIC" | "DECIMAL" -> Relation.Value.TFloat
  | "TEXT" | "VARCHAR" | "CHAR" | "STRING" -> Relation.Value.TText
  | "BOOL" | "BOOLEAN" -> Relation.Value.TBool
  | other -> fail "unknown column type %s" other

let rec parse_create st =
  if eat_keyword st "INDEX" then begin
    let index_name = expect_ident st "index name" in
    expect_keyword st "ON";
    let table = expect_ident st "table name" in
    expect st Lexer.LPAREN "(";
    let column = expect_ident st "column name" in
    expect st Lexer.RPAREN ")";
    Create_index { index_name; table; column }
  end
  else parse_create_table st

and parse_create_table st =
  expect_keyword st "TABLE";
  let name = expect_ident st "table name" in
  expect st Lexer.LPAREN "(";
  let rec cols acc =
    let cname = expect_ident st "column name" in
    let tyname = expect_ident st "column type" in
    (* Swallow an optional length such as VARCHAR(32). *)
    if peek st = Lexer.LPAREN then begin
      advance st;
      (match next st with
      | Lexer.INT _ -> ()
      | t -> fail "expected length, found %a" Lexer.pp_token t);
      expect st Lexer.RPAREN ")"
    end;
    let col = { Relation.Schema.name = cname; ty = type_of_name tyname } in
    if peek st = Lexer.COMMA then begin
      advance st;
      cols (col :: acc)
    end
    else List.rev (col :: acc)
  in
  let columns = cols [] in
  expect st Lexer.RPAREN ")";
  Create_table (name, columns)

let parse_insert st =
  expect_keyword st "INTO";
  let table = expect_ident st "table name" in
  let columns =
    if peek st = Lexer.LPAREN then begin
      advance st;
      let rec cols acc =
        let c = expect_ident st "column name" in
        if peek st = Lexer.COMMA then begin
          advance st;
          cols (c :: acc)
        end
        else List.rev (c :: acc)
      in
      let cs = cols [] in
      expect st Lexer.RPAREN ")";
      Some cs
    end
    else None
  in
  expect_keyword st "VALUES";
  let parse_tuple () =
    expect st Lexer.LPAREN "(";
    let rec vals acc =
      let e = parse_or st in
      if peek st = Lexer.COMMA then begin
        advance st;
        vals (e :: acc)
      end
      else List.rev (e :: acc)
    in
    let vs = vals [] in
    expect st Lexer.RPAREN ")";
    vs
  in
  let rec tuples acc =
    let t = parse_tuple () in
    if peek st = Lexer.COMMA then begin
      advance st;
      tuples (t :: acc)
    end
    else List.rev (t :: acc)
  in
  Insert { table; columns; rows = tuples [] }

let parse_update st =
  let table = expect_ident st "table name" in
  expect_keyword st "SET";
  let rec sets acc =
    let col = expect_ident st "column name" in
    expect st Lexer.EQ "=";
    let e = parse_or st in
    if peek st = Lexer.COMMA then begin
      advance st;
      sets ((col, e) :: acc)
    end
    else List.rev ((col, e) :: acc)
  in
  let sets = sets [] in
  let where = if eat_keyword st "WHERE" then Some (parse_or st) else None in
  Update { table; sets; where }

let parse_delete st =
  expect_keyword st "FROM";
  let table = expect_ident st "table name" in
  let where = if eat_keyword st "WHERE" then Some (parse_or st) else None in
  Delete { table; where }

let rec parse_statement st =
  if eat_keyword st "EXPLAIN" then Explain (parse_statement st)
  else if eat_keyword st "SELECT" then parse_select st
  else if eat_keyword st "CREATE" then parse_create st
  else if eat_keyword st "DROP" then begin
    if eat_keyword st "INDEX" then Drop_index (expect_ident st "index name")
    else begin
      expect_keyword st "TABLE";
      Drop_table (expect_ident st "table name")
    end
  end
  else if eat_keyword st "INSERT" then parse_insert st
  else if eat_keyword st "UPDATE" then parse_update st
  else if eat_keyword st "DELETE" then parse_delete st
  else fail "expected a statement, found %a" Lexer.pp_token (peek st)

let parse input =
  let st = { toks = Lexer.tokenize input } in
  let stmt = parse_statement st in
  (match peek st with
  | Lexer.SEMI -> advance st
  | _ -> ());
  (match peek st with
  | Lexer.EOF -> ()
  | t -> fail "trailing input: %a" Lexer.pp_token t);
  stmt

let parse_expr input =
  let st = { toks = Lexer.tokenize input } in
  let e = parse_or st in
  (match peek st with
  | Lexer.EOF -> ()
  | t -> fail "trailing input: %a" Lexer.pp_token t);
  e
