type column = { name : string; ty : Value.ty }

type t = { cols : column array; by_name : (string, int) Hashtbl.t }

let key s = String.lowercase_ascii s

let make columns =
  let cols = Array.of_list columns in
  let by_name = Hashtbl.create (Array.length cols) in
  Array.iteri
    (fun i c ->
      let k = key c.name in
      if Hashtbl.mem by_name k then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add by_name k i)
    cols;
  { cols; by_name }

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols
let index_of t name = Hashtbl.find_opt t.by_name (key name)

let column_at t i = t.cols.(i)
let names t = List.map (fun c -> c.name) (columns t)
