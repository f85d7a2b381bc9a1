open Geom

type outcome = {
  strategy : Strategy.t;
  total_cost : float;
  hits_after : int;
  lps_solved : int;
}

(* Hit constraint (a, b) for query q: a . s <= b makes the target hit. *)
let constraint_for inst ~target ~q =
  let w = inst.Instance.queries.(q).Topk.Query.weights in
  let k = inst.Instance.queries.(q).Topk.Query.k in
  match
    Topk.Eval.kth_score_excluding inst.Instance.features ~weights:w ~k
      ~excl:target
  with
  | None -> None (* unconditional hit *)
  | Some (_, thr) ->
      let margin = 1e-9 *. (1. +. abs_float thr) in
      Some (w, thr -. Vec.dot w inst.Instance.features.(target) -. margin)

(* Minimize sum c_j |s_j| subject to the subset's hit constraints and
   box bounds, via s = u - v with u, v >= 0. *)
let solve_subset ~weights ~bounds ~constraints =
  let d = Array.length weights in
  let obj = Array.append weights weights in
  let rows = ref [] in
  List.iter
    (fun (a, b) ->
      let row =
        Array.init (2 * d) (fun j -> if j < d then a.(j) else -.a.(j - d))
      in
      rows := (row, Lp.Simplex.Le, b) :: !rows)
    constraints;
  (* Box bounds on s = u - v. *)
  for j = 0 to d - 1 do
    let lo = bounds.Lp.Projection.lo.(j) and hi = bounds.Lp.Projection.hi.(j) in
    if hi < infinity then begin
      let row = Array.make (2 * d) 0. in
      row.(j) <- 1.;
      row.(j + d) <- -1.;
      rows := (row, Lp.Simplex.Le, hi) :: !rows
    end;
    if lo > neg_infinity then begin
      let row = Array.make (2 * d) 0. in
      row.(j) <- -1.;
      row.(j + d) <- 1.;
      rows := (row, Lp.Simplex.Le, -.lo) :: !rows
    end
  done;
  match Lp.Simplex.minimize ~objective:obj ~constraints:!rows with
  | Lp.Simplex.Optimal (x, v) ->
      Some (Array.init d (fun j -> x.(j) -. x.(j + d)), v)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> None

let hit_count_after inst ~target s =
  let v = Vec.add inst.Instance.features.(target) s in
  let m = Instance.n_queries inst in
  let acc = ref 0 in
  for q = 0 to m - 1 do
    let w = inst.Instance.queries.(q).Topk.Query.weights in
    let k = inst.Instance.queries.(q).Topk.Query.k in
    (match
       Topk.Eval.kth_score_excluding inst.Instance.features ~weights:w ~k
         ~excl:target
     with
    | None -> incr acc
    | Some (kth, thr) ->
        if Topk.Eval.better (Vec.dot w v) target thr kth then incr acc)
  done;
  !acc

(* All size-[r] subsets of [0..m-1], visited via callback. *)
let iter_subsets m r f =
  let picked = Array.make r 0 in
  let rec go idx start =
    if idx = r then f (Array.copy picked)
    else
      for i = start to m - 1 do
        picked.(idx) <- i;
        go (idx + 1) (i + 1)
      done
  in
  if r = 0 then f [||] else if r <= m then go 0 0

let guard inst =
  if Instance.n_queries inst > 24 then
    invalid_arg "Exhaustive: more than 24 queries (would not terminate)"

let min_cost ?limits ~inst ~weights ~target ~tau () =
  guard inst;
  if tau <= 0 then invalid_arg "Exhaustive.min_cost: tau <= 0";
  let d = Instance.dim inst in
  Array.iter
    (fun w -> if w <= 0. then invalid_arg "Exhaustive.min_cost: weight <= 0")
    weights;
  let limits =
    match limits with Some l -> l | None -> Strategy.unrestricted d
  in
  let bounds =
    Strategy.bounds_for limits ~p:inst.Instance.features.(target)
  in
  let m = Instance.n_queries inst in
  let constraints =
    Array.init m (fun q -> constraint_for inst ~target ~q)
  in
  let free_hits =
    Array.fold_left
      (fun acc c -> match c with None -> acc + 1 | Some _ -> acc)
      0 constraints
  in
  let need = Int.max 0 (tau - free_hits) in
  let conditional =
    List.filter_map Fun.id
      (List.init m (fun q ->
           match constraints.(q) with Some c -> Some c | None -> None))
  in
  let lps = ref 0 in
  let best = ref None in
  let nth_conditional i =
    match List.nth_opt conditional i with
    | Some c -> c
    | None -> invalid_arg "Exhaustive: subset index out of range"
  in
  let consider subset =
    let cs = List.map nth_conditional (Array.to_list subset) in
    incr lps;
    match solve_subset ~weights ~bounds ~constraints:cs with
    | None -> ()
    | Some (s, v) -> (
        match !best with
        | Some (_, v') when v' <= v -> ()
        | _ -> best := Some (s, v))
  in
  iter_subsets (List.length conditional) need consider;
  match !best with
  | None -> None
  | Some (s, v) ->
      Some
        {
          strategy = s;
          total_cost = v;
          hits_after = hit_count_after inst ~target s;
          lps_solved = !lps;
        }

let max_hit ?limits ~inst ~weights ~target ~beta () =
  guard inst;
  if beta < 0. then invalid_arg "Exhaustive.max_hit: beta < 0";
  let d = Instance.dim inst in
  let limits =
    match limits with Some l -> l | None -> Strategy.unrestricted d
  in
  let bounds =
    Strategy.bounds_for limits ~p:inst.Instance.features.(target)
  in
  let m = Instance.n_queries inst in
  let constraints = Array.init m (fun q -> constraint_for inst ~target ~q) in
  let conditional =
    List.filter_map Fun.id
      (List.init m (fun q -> constraints.(q)))
  in
  let n_cond = List.length conditional in
  let nth_conditional i =
    match List.nth_opt conditional i with
    | Some c -> c
    | None -> invalid_arg "Exhaustive: subset index out of range"
  in
  let lps = ref 0 in
  let found = ref None in
  (* Try subset sizes from largest down; first feasible size is optimal
     (forcing a superset is never easier). *)
  let size = ref n_cond in
  while !found = None && !size >= 0 do
    let best_at_size = ref None in
    iter_subsets n_cond !size (fun subset ->
        if !best_at_size = None then begin
          let cs = List.map nth_conditional (Array.to_list subset) in
          incr lps;
          match solve_subset ~weights ~bounds ~constraints:cs with
          | Some (s, v) when v <= beta +. 1e-9 -> best_at_size := Some s
          | Some _ | None -> ()
        end);
    (match !best_at_size with
    | Some s -> found := Some s
    | None -> decr size)
  done;
  let s = match !found with Some s -> s | None -> Strategy.zero d in
  {
    strategy = s;
    total_cost =
      Array.fold_left ( +. ) 0.
        (Array.mapi (fun j x -> weights.(j) *. abs_float x) s);
    hits_after = hit_count_after inst ~target s;
    lps_solved = !lps;
  }
