type row = Value.t array

type t = {
  schema : Schema.t;
  mutable rows : row array;
  mutable len : int;
}

let create schema = { schema; rows = Array.make 16 [||]; len = 0 }
let schema t = t.schema
let length t = t.len

let check_row t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg "Table.insert: arity mismatch";
  Array.iteri
    (fun i v ->
      match Value.type_of v with
      | None -> ()
      | Some ty ->
          let expected = (Schema.column_at t.schema i).Schema.ty in
          let ok =
            ty = expected
            || (expected = Value.TFloat && ty = Value.TInt)
          in
          if not ok then
            invalid_arg
              (Printf.sprintf "Table.insert: column %s expects %s, got %s"
                 (Schema.column_at t.schema i).Schema.name
                 (Value.ty_name expected) (Value.ty_name ty)))
    row

let grow t =
  if t.len = Array.length t.rows then begin
    let rows = Array.make (2 * Array.length t.rows) [||] in
    Array.blit t.rows 0 rows 0 t.len;
    t.rows <- rows
  end

let insert t row =
  check_row t row;
  grow t;
  t.rows.(t.len) <- Array.copy row;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Table.get: index out of range";
  t.rows.(i)

let set t i row =
  if i < 0 || i >= t.len then invalid_arg "Table.set: index out of range";
  check_row t row;
  t.rows.(i) <- Array.copy row

let delete_where t pred =
  let kept = ref [] and removed = ref 0 in
  for i = t.len - 1 downto 0 do
    if pred t.rows.(i) then incr removed else kept := t.rows.(i) :: !kept
  done;
  let kept = Array.of_list !kept in
  t.rows <- (if Array.length kept = 0 then Array.make 16 [||] else kept);
  t.len <- Array.length kept;
  !removed

let iter t f =
  for i = 0 to t.len - 1 do
    f t.rows.(i)
  done

let iteri t f =
  for i = 0 to t.len - 1 do
    f i t.rows.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc r -> r :: acc))

let to_points t cols =
  let idx =
    List.map
      (fun c ->
        match Schema.index_of t.schema c with
        | Some i -> i
        | None -> invalid_arg ("Table.to_points: unknown column " ^ c))
      cols
  in
  Array.init t.len (fun i ->
      let row = t.rows.(i) in
      Array.of_list
        (List.map
           (fun j ->
             match Value.to_float row.(j) with
             | Some f -> f
             | None ->
                 invalid_arg
                   (Printf.sprintf "Table.to_points: row %d column %d not numeric"
                      i j))
           idx))

let of_points ?(prefix = "a") points =
  let d = if Array.length points = 0 then 0 else Geom.Vec.dim points.(0) in
  let schema =
    Schema.make
      (List.init d (fun j ->
           { Schema.name = Printf.sprintf "%s%d" prefix j; ty = Value.TFloat }))
  in
  let t = create schema in
  Array.iter
    (fun p -> insert t (Array.map (fun x -> Value.Float x) p))
    points;
  t
