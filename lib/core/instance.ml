open Geom

type t = {
  raw : Vec.t array;
  features : Vec.t array;
  flat : Flat.t; (* SoA view of [features]; patched in step with it *)
  utility : Topk.Utility.t;
  order : Topk.Utility.order;
  queries : Topk.Query.t array;
  qflat : Flat.t; (* SoA view of the query weight vectors *)
}

let qweights queries = Array.map (fun q -> q.Topk.Query.weights) queries

let create ?utility ?(order = Topk.Utility.Asc) ~data ~queries () =
  if Array.length data = 0 then invalid_arg "Instance.create: empty data";
  let d_raw = Vec.dim data.(0) in
  let utility =
    match utility with Some u -> u | None -> Topk.Utility.linear d_raw
  in
  if utility.Topk.Utility.dim_in <> d_raw then
    invalid_arg "Instance.create: utility dim_in mismatch";
  Array.iter
    (fun p ->
      if Vec.dim p <> d_raw then
        invalid_arg "Instance.create: ragged object attributes")
    data;
  let features = Array.map utility.Topk.Utility.features data in
  (* Identity feature maps (linear utilities) hand back each row
     itself: then [features] is [raw], one array, and every update
     below keeps it that way instead of copying both. *)
  let features = if Array.for_all2 ( == ) features data then data else features in
  let queries =
    Array.of_list
      (List.map
         (fun (q : Topk.Query.t) ->
           if Vec.dim q.Topk.Query.weights <> utility.Topk.Utility.dim_out
           then invalid_arg "Instance.create: query weight arity mismatch";
           {
             q with
             Topk.Query.weights =
               Topk.Utility.effective_weights order q.Topk.Query.weights;
           })
         queries)
  in
  {
    raw = data;
    features;
    flat = Flat.of_rows features;
    utility;
    order;
    queries;
    qflat = Flat.of_rows (qweights queries);
  }

let n_objects t = Array.length t.features
let n_queries t = Array.length t.queries
let dim t = t.utility.Topk.Utility.dim_out
let dim_raw t = t.utility.Topk.Utility.dim_in

let max_k t =
  Array.fold_left (fun acc q -> Int.max acc q.Topk.Query.k) 1 t.queries

let score t ~q id = Vec.dot t.queries.(q).Topk.Query.weights t.features.(id)
let improved t ~target ~s = Vec.add t.features.(target) s

let shared t = t.features == t.raw

let with_feature t ~target v =
  let features = Array.copy t.features in
  features.(target) <- v;
  let raw =
    if shared t then features
    else if t.utility.Topk.Utility.dim_in = t.utility.Topk.Utility.dim_out
    then begin
      (* Linear utilities: feature space IS raw space. *)
      let raw = Array.copy t.raw in
      raw.(target) <- v;
      raw
    end
    else t.raw
  in
  { t with raw; features; flat = Flat.update_row t.flat target v }

let query_points t = Array.map (fun q -> q.Topk.Query.weights) t.queries

let add_query t (q : Topk.Query.t) =
  if Vec.dim q.Topk.Query.weights <> t.utility.Topk.Utility.dim_out then
    invalid_arg "Instance.add_query: weight arity mismatch";
  let q =
    {
      q with
      Topk.Query.weights =
        Topk.Utility.effective_weights t.order q.Topk.Query.weights;
    }
  in
  {
    t with
    queries = Array.append t.queries [| q |];
    qflat = Flat.append_row t.qflat q.Topk.Query.weights;
  }

let remove_query t i =
  let m = Array.length t.queries in
  if i < 0 || i >= m then invalid_arg "Instance.remove_query: bad index";
  let queries =
    Array.init (m - 1) (fun j -> if j < i then t.queries.(j) else t.queries.(j + 1))
  in
  { t with queries; qflat = Flat.remove_row t.qflat i }

let add_object t raw_attrs =
  if Vec.dim raw_attrs <> t.utility.Topk.Utility.dim_in then
    invalid_arg "Instance.add_object: attribute arity mismatch";
  let feat = t.utility.Topk.Utility.features raw_attrs in
  let raw = Array.append t.raw [| raw_attrs |] in
  let features =
    if shared t && feat == raw_attrs then raw
    else Array.append t.features [| feat |]
  in
  { t with raw; features; flat = Flat.append_row t.flat feat }

let update_object t id raw_attrs =
  let n = Array.length t.features in
  if id < 0 || id >= n then invalid_arg "Instance.update_object: bad id";
  if Vec.dim raw_attrs <> t.utility.Topk.Utility.dim_in then
    invalid_arg "Instance.update_object: attribute arity mismatch";
  let feat = t.utility.Topk.Utility.features raw_attrs in
  let raw = Array.copy t.raw in
  raw.(id) <- raw_attrs;
  let features =
    if shared t && feat == raw_attrs then raw
    else begin
      let features = Array.copy t.features in
      features.(id) <- feat;
      features
    end
  in
  { t with raw; features; flat = Flat.update_row t.flat id feat }

let remove_object t id =
  let n = Array.length t.features in
  if n <= 1 then invalid_arg "Instance.remove_object: last object";
  if id < 0 || id >= n then invalid_arg "Instance.remove_object: bad id";
  let drop arr =
    Array.init (n - 1) (fun j -> if j < id then arr.(j) else arr.(j + 1))
  in
  let raw = drop t.raw in
  let features = if shared t then raw else drop t.features in
  { t with raw; features; flat = Flat.remove_row t.flat id }
