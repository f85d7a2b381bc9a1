type view = { reference : Geom.Vec.t; order : (float * int) array }

type t = { data : Geom.Vec.t array; views : view array; radius : float }

let build ~views data =
  if views = [] then invalid_arg "View.build: no views";
  let d = if Array.length data = 0 then 0 else Geom.Vec.dim data.(0) in
  List.iter
    (fun v ->
      if Geom.Vec.dim v <> d then invalid_arg "View.build: arity mismatch")
    views;
  let radius =
    Array.fold_left (fun acc p -> Float.max acc (Geom.Vec.norm p)) 0. data
  in
  let materialize reference =
    let order =
      Array.init (Array.length data) (fun id ->
          (Geom.Vec.dot reference data.(id), id))
    in
    Array.sort compare order;
    { reference; order }
  in
  { data; views = Array.of_list (List.map materialize views); radius }

let view_count t = Array.length t.views

let top_k_stats t ~weights ~k =
  let n = Array.length t.data in
  let cap = Int.min k n in
  if cap = 0 then ([], 0)
  else begin
    (* Nearest view by Euclidean distance of the weight vectors. *)
    let view =
      Array.fold_left
        (fun best v ->
          if
            Geom.Vec.dist v.reference weights
            < Geom.Vec.dist best.reference weights
          then v
          else best)
        t.views.(0) t.views
    in
    let slack = Geom.Vec.dist view.reference weights *. t.radius in
    let best = ref [] in
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
    let kth () =
      if List.length !best < cap then infinity
      else
        match List.nth_opt !best (cap - 1) with
        | Some (score, _) -> score
        | None -> infinity
    in
    let scanned = ref 0 in
    (try
       Array.iter
         (fun (vscore, id) ->
           (* Lower bound on any remaining object's w-score. *)
           if vscore -. slack > kth () then raise Exit;
           incr scanned;
           insert (Geom.Vec.dot weights t.data.(id), id))
         view.order
     with Exit -> ());
    (List.map snd !best, !scanned)
  end

let top_k t ~weights ~k = fst (top_k_stats t ~weights ~k)
