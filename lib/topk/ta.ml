type t = {
  data : Geom.Vec.t array;
  sorted : (float * int) array array; (* per dimension, ascending *)
}

let build data =
  let n = Array.length data in
  let d = if n = 0 then 0 else Geom.Vec.dim data.(0) in
  let sorted =
    Array.init d (fun j ->
        let col = Array.init n (fun id -> (data.(id).(j), id)) in
        Array.sort compare col;
        col)
  in
  { data; sorted }

let dim t = Array.length t.sorted

let top_k_stats t ~weights ~k =
  let d = dim t in
  if Geom.Vec.dim weights <> d then invalid_arg "Ta.top_k: arity mismatch";
  Array.iter
    (fun w -> if w < 0. then invalid_arg "Ta.top_k: negative weight")
    weights;
  let n = Array.length t.data in
  let cap = Int.min k n in
  if cap = 0 || d = 0 then ([], 0)
  else begin
    let seen = Hashtbl.create 64 in
    let best = ref [] (* sorted ascending, length <= cap *) in
    let insert ((s, id) as entry) =
      let rec ins = function
        | [] -> [ entry ]
        | ((es, eid) as e) :: rest ->
            if Eval.better s id es eid then entry :: e :: rest
            else e :: ins rest
      in
      let merged = ins !best in
      best :=
        if List.length merged > cap then
          List.filteri (fun i _ -> i < cap) merged
        else merged
    in
    let kth_score () =
      if List.length !best < cap then infinity
      else
        match List.nth_opt !best (cap - 1) with
        | Some (score, _) -> score
        | None -> infinity
    in
    let depth = ref 0 in
    (try
       while !depth < n do
         let threshold = ref 0. in
         for j = 0 to d - 1 do
           let v, id = t.sorted.(j).(!depth) in
           threshold := !threshold +. (weights.(j) *. v);
           if not (Hashtbl.mem seen id) then begin
             Hashtbl.add seen id ();
             insert (Geom.Vec.dot weights t.data.(id), id)
           end
         done;
         incr depth;
         if kth_score () < !threshold then raise Exit
       done
     with Exit -> ());
    (List.map snd !best, !depth)
  end

let top_k t ~weights ~k = fst (top_k_stats t ~weights ~k)
