type t = {
  tables : (string, Table.t) Hashtbl.t;
  (* index name -> (table key, column, cached build) *)
  indexes : (string, string * string * Hash_index.t option ref) Hashtbl.t;
}

let key = String.lowercase_ascii

let create () = { tables = Hashtbl.create 8; indexes = Hashtbl.create 8 }

let add t name table =
  let k = key name in
  if Hashtbl.mem t.tables k then
    invalid_arg ("Catalog.add: table exists: " ^ name);
  Hashtbl.add t.tables k table

let drop t name =
  let k = key name in
  let existed = Hashtbl.mem t.tables k in
  Hashtbl.remove t.tables k;
  (* Indexes over a dropped table die with it. *)
  let dead =
    Hashtbl.fold
      (fun iname (tbl, _, _) acc -> if tbl = k then iname :: acc else acc)
      t.indexes []
  in
  List.iter (Hashtbl.remove t.indexes) dead;
  existed

let find t name = Hashtbl.find_opt t.tables (key name)

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables []
  |> List.sort String.compare

(* --- secondary indexes ------------------------------------------------ *)

let create_index t ~index_name ~table ~column =
  let iname = key index_name in
  if Hashtbl.mem t.indexes iname then
    invalid_arg ("Catalog.create_index: index exists: " ^ index_name);
  let tkey = key table in
  (match Hashtbl.find_opt t.tables tkey with
  | None -> invalid_arg ("Catalog.create_index: no such table: " ^ table)
  | Some tbl -> (
      match Schema.index_of (Table.schema tbl) column with
      | Some _ -> ()
      | None ->
          invalid_arg ("Catalog.create_index: no such column: " ^ column)));
  Hashtbl.add t.indexes iname (tkey, column, ref None)

let drop_index t index_name =
  let iname = key index_name in
  let existed = Hashtbl.mem t.indexes iname in
  Hashtbl.remove t.indexes iname;
  existed

let invalidate_indexes t table =
  let tkey = key table in
  Hashtbl.iter
    (fun _ (tbl, _, cache) -> if tbl = tkey then cache := None)
    t.indexes

(* Fetch (lazily building or refreshing) an index on [table.column]. *)
let index_on t ~table ~column =
  let tkey = key table in
  let ckey = key column in
  let found = ref None in
  Hashtbl.iter
    (fun _ (tbl, col, cache) ->
      if !found = None && tbl = tkey && key col = ckey then
        match Hashtbl.find_opt t.tables tkey with
        | None -> ()
        | Some table_v ->
            let fresh =
              match !cache with
              | Some idx when Hash_index.row_count idx = Table.length table_v
                -> idx
              | Some _ | None ->
                  let idx = Hash_index.build table_v col in
                  cache := Some idx;
                  idx
            in
            found := Some fresh)
    t.indexes;
  !found

let index_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.indexes []
  |> List.sort String.compare
