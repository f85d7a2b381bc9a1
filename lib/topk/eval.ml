let score data ~weights id = Geom.Vec.dot weights data.(id)

(* (score, id) ascending: lower score first, then lower id. Typed and
   untupled, so a call compares two unboxed floats with no tuple, no
   [compare_val]. *)
let better (s1 : float) (i1 : int) (s2 : float) (i2 : int) =
  s1 < s2 || (s1 = s2 && i1 < i2)

(* Bounded selection of the [cap] best objects other than [excl], kept
   sorted best first in unboxed score/id buffers; returns the buffers
   and how many slots were filled. Scores accumulate exactly as
   [Geom.Vec.dot weights data.(id)]. Ids arrive ascending, so under
   [better] a newcomer beats a kept entry only on a strictly lower
   score: it enters when it beats the worst kept score and shifts past
   strictly worse entries only, landing after any tie. *)
let select data ~weights ~cap ~excl =
  let ss = Array.make cap infinity and ids = Array.make cap (-1) in
  let d = Array.length weights in
  let len = ref 0 in
  let n = if cap = 0 then 0 else Array.length data in
  for id = 0 to n - 1 do
    if id <> excl then begin
      let p = data.(id) in
      if Array.length p <> d then invalid_arg "Geom.Vec: dimension mismatch";
      let acc = ref 0. in
      for j = 0 to d - 1 do
        acc := !acc +. (weights.(j) *. p.(j))
      done;
      let s = !acc in
      let full = !len >= cap in
      if (not full) || s < ss.(cap - 1) then begin
        let pos = ref (if full then cap - 1 else !len) in
        while !pos > 0 && s < ss.(!pos - 1) do
          ss.(!pos) <- ss.(!pos - 1);
          ids.(!pos) <- ids.(!pos - 1);
          decr pos
        done;
        ss.(!pos) <- s;
        ids.(!pos) <- id;
        if not full then incr len
      end
    end
  done;
  (ss, ids, !len)

let top_k_scored data ~weights ~k =
  let cap = Int.max 0 (Int.min k (Array.length data)) in
  let ss, ids, len = select data ~weights ~cap ~excl:(-1) in
  List.init len (fun i -> (ids.(i), ss.(i)))

(* Straight from the buffers, with no scored list in between: this is
   the prefix recompute of every object mutation. *)
let top_k data ~weights ~k =
  let cap = Int.max 0 (Int.min k (Array.length data)) in
  let _, ids, len = select data ~weights ~cap ~excl:(-1) in
  List.init len (fun i -> ids.(i))

let rank data ~weights id =
  let s_id = score data ~weights id in
  let ahead = ref 0 in
  Array.iteri
    (fun j p ->
      if j <> id then begin
        let s = Geom.Vec.dot weights p in
        if better s j s_id id then incr ahead
      end)
    data;
  !ahead + 1

let kth_score_excluding data ~weights ~k ~excl =
  if Array.length data - 1 < k then None
  else begin
    (* kth best among all but [excl]. *)
    let ss, ids, _ = select data ~weights ~cap:k ~excl in
    Some (ids.(k - 1), ss.(k - 1))
  end

let hits data ~weights ~k id =
  match kth_score_excluding data ~weights ~k ~excl:id with
  | None -> true
  | Some (kth_id, kth_s) ->
      let s = score data ~weights id in
      better s id kth_s kth_id

let hit_count data ~queries id =
  List.fold_left
    (fun acc (q : Query.t) ->
      if hits data ~weights:q.Query.weights ~k:q.Query.k id then acc + 1
      else acc)
    0 queries
