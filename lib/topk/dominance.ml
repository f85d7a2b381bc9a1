type t = {
  layers : int array array;
  layer_of : int array;
  edges : int; (* materialized parent-child edge count *)
}

(* Allocation-free: no closure, no boxed float. *)
let dominates (p : Geom.Vec.t) (q : Geom.Vec.t) =
  let d = Array.length p in
  let j = ref 0 and weak = ref true and strict = ref false in
  while !weak && !j < d do
    let a = p.(!j) and b = q.(!j) in
    if a > b then weak := false else if a < b then strict := true;
    incr j
  done;
  !weak && !strict

(* One pass in ascending (coordinate sum, id) order: a dominator always
   has a strictly smaller sum, so it is placed first. A point joins the
   first layer none of whose members dominates it — exactly where
   pass-by-pass sort-filter-skyline peeling puts it, since pass [j]
   rejects a point iff a layer-[j] member placed before it dominates
   it. Each layer's members are chained through [next] in placement
   order ([head]/[tail] per layer, grown by doubling), so the pass
   allocates no lists and no closures. *)
let build ?(with_edges = false) data =
  let n = Array.length data in
  let sums =
    Array.map
      (fun (p : Geom.Vec.t) ->
        let acc = ref 0. in
        for j = 0 to Array.length p - 1 do
          acc := !acc +. p.(j)
        done;
        !acc)
      data
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare sums.(a) sums.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let layer_of = Array.make n (-1) in
  let next = Array.make n (-1) in
  let head = ref (Array.make 16 (-1)) and tail = ref (Array.make 16 (-1)) in
  let size = ref (Array.make 16 0) in
  let n_layers = ref 0 in
  let grow a fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  Array.iter
    (fun id ->
      let p = data.(id) in
      let l = ref 0 and placed = ref false in
      while not !placed do
        if !l = !n_layers then begin
          if !l = Array.length !head then begin
            head := grow !head (-1);
            tail := grow !tail (-1);
            size := grow !size 0
          end;
          !head.(!l) <- id;
          incr n_layers;
          placed := true
        end
        else begin
          let s = ref !head.(!l) in
          while !s >= 0 && not (dominates data.(!s) p) do
            s := next.(!s)
          done;
          if !s < 0 then begin
            next.(!tail.(!l)) <- id;
            placed := true
          end
          else incr l
        end
      done;
      !tail.(!l) <- id;
      !size.(!l) <- !size.(!l) + 1;
      layer_of.(id) <- !l)
    order;
  let layers =
    Array.init !n_layers (fun l ->
        let layer = Array.make !size.(l) 0 in
        let s = ref !head.(l) in
        for i = 0 to !size.(l) - 1 do
          layer.(i) <- !s;
          s := next.(!s)
        done;
        layer)
  in
  let edges =
    if not with_edges then 0
    else begin
      let count = ref 0 in
      for j = 1 to Array.length layers - 1 do
        Array.iter
          (fun child ->
            Array.iter
              (fun parent ->
                if dominates data.(parent) data.(child) then incr count)
              layers.(j - 1))
          layers.(j)
      done;
      !count
    end
  in
  { layers; layer_of; edges }

let layer_count t = Array.length t.layers
let layers t = t.layers

let layer_table t = t.layer_of

let layer_of t id =
  if id < 0 || id >= Array.length t.layer_of then
    invalid_arg "Dominance.layer_of: bad id";
  t.layer_of.(id)

let edge_count t = t.edges

let size_words t =
  Array.length t.layer_of + t.edges + (2 * Array.length t.layers)

let top_k t ~data ~weights ~k =
  Array.iter
    (fun w ->
      if w < 0. then invalid_arg "Dominance.top_k: negative weight")
    weights;
  let candidates = ref [] in
  let depth = Int.min k (Array.length t.layers) in
  for j = 0 to depth - 1 do
    Array.iter
      (fun id -> candidates := (Geom.Vec.dot weights data.(id), id) :: !candidates)
      t.layers.(j)
  done;
  let sorted =
    List.sort
      (fun (s1, i1) (s2, i2) ->
        if Eval.better s1 i1 s2 i2 then -1
        else if Eval.better s2 i2 s1 i1 then 1
        else 0)
      !candidates
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, id) :: rest -> id :: take (n - 1) rest
  in
  take k sorted
