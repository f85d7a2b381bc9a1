open Geom

(* How candidate strategies find the queries to re-score.

   [Full] is the paper's Algorithm 2: every cached prefix object is a
   candidate rival, and the queries that can flip are found with the
   R-tree slab search, which compares scores computed as
   [member_after] computes them. [Kth] is the pruned path, and the
   default: the target's membership in query [q] depends only on its
   score against the frozen threshold of the rank-k rival
   [kth_other q] (prefixes do not move while a state is alive), which
   is exact for any weight signs. [prepare] bounds, per query, the
   smallest [‖s‖∞] that can move the target across that threshold (the
   query's reach, see [band]) and sorts the queries by it; [evaluate]
   re-scores only the sorted prefix a strategy can reach. Both paths
   re-score every query they visit exactly with [member_after], so
   [evaluate] results are bit-for-bit identical. *)
type mode =
  | Full
  | Kth of {
      band : int array; (* queries with a rank-k rival, by ascending reach *)
      reach : float array; (* [reach.(i)]: the reach of query [band.(i)] *)
    }

type state = {
  index : Query_index.t;
  target : int;
  members : bool array;
  base : int;
  dim : int;
  fdata : float array; (* Instance feature slab ([Flat.data]) *)
  wdata : float array; (* query-weight slab *)
  kth : int array; (* per-query rank-k rival; -1 = unconditional hit *)
  thr : float array; (* per-query threshold [w . features.(kth)] *)
  mode : mode;
  (* Atomic so one state can serve concurrent candidate evaluations
     from a Parallel pool; everything else in the state is frozen
     after [prepare]. *)
  eval_count : int Atomic.t;
}

let member_after t ~s ~q =
  if t.kth.(q) = -1 then true
  else begin
    if Array.length s <> t.dim then invalid_arg "Geom.Vec: dimension mismatch";
    (* [w . (feat_target + s)] with the accumulation sequence of
       [Vec.dot w (Vec.add feat_target s)]. [band] repeats this loop at
       [s = 0]: a shared helper would return a boxed float, because
       ocamlopt does not inline a function with a loop. *)
    let woff = q * t.dim and toff = t.target * t.dim in
    let acc = ref 0. in
    for j = 0 to t.dim - 1 do
      acc := !acc +. (t.wdata.(woff + j) *. (t.fdata.(toff + j) +. s.(j)))
    done;
    (* [Topk.Eval.better acc target thr kth] spelled inline: a call
       into another module boxes both floats (dune's dev profile
       compiles with [-opaque], so nothing inlines across modules), an
       allocation per re-scored query on this path. *)
    let thr = t.thr.(q) in
    !acc < thr || (!acc = thr && t.target < t.kth.(q))
  end

(* The slack of every reach bound, see [band]. *)
let eps = 1e-12

(* The dimension up to which [eps] covers the score's rounding error;
   beyond it [prepare] keeps [Full]. *)
let max_dim = 1024

(* The reach band. Let [A(s)] be the float score [member_after]
   computes for query [q], [a0 = A(0)], [W = ‖w_q‖₁], [T = ‖t‖∞] and
   [γ = γ_{d+1}] (each term of [A] passes through at most d+1
   roundings). Then
     |A(s) − a0| <= W·‖s‖∞ + γ·W·(2T + ‖s‖∞),
   so while [|a0 − thr|] exceeds that bound, [A(s) − thr] keeps the
   strict sign of [a0 − thr] and the membership cannot change. The
   bound is in [|w_j|] and [‖w‖₁] only, so it holds for any weight
   signs (negated [Desc] weights, mixed signs, zero components). The
   reach solves the bound for [‖s‖∞], rounded down by
     (|a0 − thr| − (d+1)·min_float)·(1 − ε) / W − 2ε·(T + 1),
   and [evaluate] compares it with [σ = ‖s‖∞·(1 + ε)]. [ε] covers [γ]
   and the roundings of the reach and of [σ] while [(d+5)·2⁻⁵³ < ε/2],
   which [max_dim] keeps; the [min_float] term covers gradual
   underflow, which the relative bound does not; the cap keeps every
   partial sum of [A(s)] below [max_float / 2], so nothing overflows
   within the reach. A tie ([a0 = thr], which the ids decide) and an
   all-zero weight vector (a tie with every object) get a negative
   reach, and a NaN reach becomes [neg_infinity]: all are always
   re-scored. *)
let band t =
  let d = t.dim and m = Array.length t.kth in
  let toff = t.target * d in
  let tmax = ref 0. in
  for j = 0 to d - 1 do
    tmax := Float.max !tmax (abs_float t.fdata.(toff + j))
  done;
  let key = Array.make m neg_infinity and n = ref 0 in
  for q = 0 to m - 1 do
    if t.kth.(q) >= 0 then begin
      incr n;
      let a0 = ref 0. and w1 = ref 0. in
      for j = 0 to d - 1 do
        let w = t.wdata.((q * d) + j) in
        a0 := !a0 +. (w *. (t.fdata.(toff + j) +. 0.));
        w1 := !w1 +. abs_float w
      done;
      let r =
        ((abs_float (!a0 -. t.thr.(q)) -. (float_of_int (d + 1) *. min_float))
         *. (1. -. eps) /. !w1)
        -. (2. *. eps *. (!tmax +. 1.))
      in
      let cap = (0.5 *. max_float /. Float.max !w1 1.) -. !tmax in
      (* The lesser of the two; [neg_infinity] when either is NaN. *)
      key.(q) <- (if r <= cap then r else if r > cap then cap else neg_infinity)
    end
  done;
  let band = Array.make !n 0 and c = ref 0 in
  for q = 0 to m - 1 do
    if t.kth.(q) >= 0 then begin
      band.(!c) <- q;
      incr c
    end
  done;
  Array.stable_sort (fun a b -> Float.compare key.(a) key.(b)) band;
  let reach = Array.make !n 0. in
  Array.iteri (fun i q -> reach.(i) <- key.(q)) band;
  Kth { band; reach }

let prepare ?(prune = true) index ~target =
  let inst = Query_index.instance index in
  let m = Instance.n_queries inst in
  let members = Array.init m (fun q -> Query_index.member index ~q target) in
  let base = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 members in
  let d = Instance.dim inst in
  let flat = inst.Instance.flat in
  let kth = Array.make m (-1) in
  let thr = Array.make m 0. in
  for q = 0 to m - 1 do
    match Query_index.kth_other index ~q ~target with
    | None -> ()
    | Some id ->
        kth.(q) <- id;
        (* Same accumulation as [Vec.dot w features.(id)]. *)
        thr.(q) <- Flat.dot flat id inst.Instance.queries.(q).Topk.Query.weights
  done;
  let t =
    {
      index;
      target;
      members;
      base;
      dim = d;
      fdata = Flat.data flat;
      wdata = Flat.data inst.Instance.qflat;
      kth;
      thr;
      mode = Full;
      eval_count = Atomic.make 0;
    }
  in
  if prune && d <= max_dim then { t with mode = band t } else t

let base_hits t = t.base
let member t ~q = t.members.(q)
let pruned t = match t.mode with Full -> false | Kth _ -> true

let rival_count t =
  match t.mode with
  | Kth _ ->
      Array.to_list t.kth
      |> List.filter (fun r -> r >= 0)
      |> List.sort_uniq Int.compare |> List.length
  | Full -> Array.length (Query_index.candidate_rivals t.index)

(* The reach a strategy covers, [σ = ‖s‖∞·(1 + ε)]; a NaN coordinate
   makes it infinite. *)
let sigma t s =
  if Array.length s <> t.dim then invalid_arg "Geom.Vec: dimension mismatch";
  let m = ref 0. in
  for j = 0 to t.dim - 1 do
    let a = abs_float s.(j) in
    if not (a <= !m) then m := if a > !m then a else infinity
  done;
  !m *. (1. +. eps)

(* The length of the band prefix whose reach is within [sigma]. *)
let reachable reach sigma =
  let i = ref 0 in
  while !i < Array.length reach && reach.(!i) <= sigma do
    incr i
  done;
  !i

(* The paper's affected subspaces between the target at [s_from] and
   at [s_to] (both relative to the base feature vector): the R-tree
   slab search over every cached rival. A query can be flagged through
   several rivals, so the set is deduplicated. *)
let slab_set t ~s_from ~s_to =
  let features = (Query_index.instance t.index).Instance.features in
  let p = features.(t.target) in
  let before = Vec.add p s_from and after = Vec.add p s_to in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun rival ->
      if rival <> t.target then
        Query_index.slab_queries t.index ~rival:features.(rival) ~before ~after
          (fun qi -> Hashtbl.replace seen qi ()))
    (Query_index.candidate_rivals t.index);
  seen

let sorted_keys seen =
  Hashtbl.fold (fun qi () acc -> qi :: acc) seen [] |> List.sort Int.compare

let dirty_queries t ~s =
  sorted_keys (slab_set t ~s_from:(Vec.zero (Vec.dim s)) ~s_to:s)

let dirty_between t ~s_from ~s_to =
  match t.mode with
  | Full -> sorted_keys (slab_set t ~s_from ~s_to)
  | Kth { band; reach } ->
      (* A query beyond both prefixes has the membership of [s = 0] at
         both positions. *)
      let n =
        Int.max (reachable reach (sigma t s_from)) (reachable reach (sigma t s_to))
      in
      List.init n (fun i -> band.(i))

(* [Vec.is_zero ~eps:0.] without its closure. *)
let is_zero s =
  let j = ref 0 in
  while !j < Array.length s && abs_float s.(!j) <= 0. do
    incr j
  done;
  !j = Array.length s

let evaluate t ~s =
  Atomic.incr t.eval_count;
  if is_zero s then t.base
  else
    match t.mode with
    | Full ->
        Hashtbl.fold
          (fun qi () acc ->
            let before = t.members.(qi) in
            let after = member_after t ~s ~q:qi in
            acc
            + (if after && not before then 1 else 0)
            - (if before && not after then 1 else 0))
          (slab_set t ~s_from:(Vec.zero t.dim) ~s_to:s)
          t.base
    | Kth { band; reach } ->
        (* Only the reachable prefix can differ from the base
           memberships. The prefix scan and the re-scoring are one
           inline loop, so the only allocation is the boxed [sigma]. *)
        let sigma = sigma t s in
        let acc = ref t.base and i = ref 0 in
        while !i < Array.length band && reach.(!i) <= sigma do
          let qi = band.(!i) in
          let before = t.members.(qi) in
          let after = member_after t ~s ~q:qi in
          if after && not before then incr acc
          else if before && not after then decr acc;
          incr i
        done;
        !acc

let hit_constraint t ~q ~current =
  if t.kth.(q) = -1 then None
  else begin
    let inst = Query_index.instance t.index in
    let w = inst.Instance.queries.(q).Topk.Query.weights in
    let thr = t.thr.(q) in
    let margin = 1e-9 *. (1. +. abs_float thr) in
    (* Need w . (current + s) < thr (or tie broken by id). Use the
       strict margin so ids never decide. *)
    let b = thr -. Vec.dot w current -. margin in
    Some (w, b)
  end

let evaluations t = Atomic.get t.eval_count
