type stats = { evaluated : int; pruned : int }

(* Order queries along a space-filling-ish tour: sort by weight vector
   lexicographically. Neighbouring queries then tend to share buffers,
   which is what gives RTA its pruning power. *)
let tour queries =
  List.stable_sort
    (fun (q1 : Query.t) (q2 : Query.t) ->
      compare q1.Query.weights q2.Query.weights)
    queries

let reverse_top_k ~data ~queries ~target =
  let hits = ref [] in
  let evaluated = ref 0 and pruned = ref 0 in
  let buffer = ref [] (* object ids from the previous full evaluation *) in
  let process (q : Query.t) =
    let w = q.Query.weights in
    let ts = Geom.Vec.dot w data.(target) in
    let beat_target =
      List.filter
        (fun id ->
          id <> target && Eval.better (Geom.Vec.dot w data.(id)) id ts target)
        !buffer
    in
    if List.length beat_target >= q.Query.k then incr pruned
      (* k buffered objects beat the target: pruned, not a hit *)
    else begin
      incr evaluated;
      let result = Eval.top_k data ~weights:w ~k:q.Query.k in
      buffer := result;
      if List.mem target result then hits := q :: !hits
    end
  in
  List.iter process (tour queries);
  let hit_set = !hits in
  let in_input_order =
    List.filter (fun q -> List.memq q hit_set) queries
  in
  (in_input_order, { evaluated = !evaluated; pruned = !pruned })

let hit_count ~data ~queries target =
  let hits, _ = reverse_top_k ~data ~queries ~target in
  List.length hits
