open Geom

type status = Candidates.status

type outcome = {
  strategies : (int * Strategy.t) list;
  total_cost : float;
  union_hits_before : int;
  union_hits_after : int;
  iterations : int;
  status : status;
}

type target_ctx = {
  target : int;
  cost : Cost.t;
  state : Ese.state;
  total_bounds : Lp.Projection.bounds;
  mutable s_star : Vec.t;
  mutable members : bool array; (* membership under current s_star *)
  mutable spent : float;
}

let make_ctx index limits states (target, cost) =
  let inst = Query_index.instance index in
  let d = Instance.dim inst in
  let state =
    match List.assoc_opt target states with
    | Some s -> s
    | None -> Ese.prepare index ~target
  in
  let lims =
    match List.assoc_opt target limits with
    | Some l -> l
    | None -> Strategy.unrestricted d
  in
  let m = Instance.n_queries inst in
  {
    target;
    cost;
    state;
    total_bounds =
      Strategy.bounds_for lims ~p:inst.Instance.features.(target);
    s_star = Strategy.zero d;
    members = Array.init m (fun q -> Ese.member state ~q);
    spent = 0.;
  }

(* cover.(q) = number of targets currently hitting q. *)
let build_cover ctxs m =
  let cover = Array.make m 0 in
  List.iter
    (fun ctx ->
      Array.iteri (fun q b -> if b then cover.(q) <- cover.(q) + 1) ctx.members)
    ctxs;
  cover

let union_count cover =
  Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 cover

(* Union-hit change if [ctx] moves from [s_star] to [s_star + step]:
   only queries in the slab between the two positions can flip this
   target's membership. *)
let union_gain ~cover ctx step =
  let s_total = Vec.add ctx.s_star step in
  let dirty = Ese.dirty_between ctx.state ~s_from:ctx.s_star ~s_to:s_total in
  List.fold_left
    (fun acc q ->
      let before = ctx.members.(q) in
      let after = Ese.member_after ctx.state ~s:s_total ~q in
      if after && not before then if cover.(q) = 0 then acc + 1 else acc
      else if before && not after then
        if cover.(q) = 1 then acc - 1 else acc
      else acc)
    0 dirty

let apply_step ctx step =
  let s_total = Vec.add ctx.s_star step in
  let dirty = Ese.dirty_between ctx.state ~s_from:ctx.s_star ~s_to:s_total in
  let members = Array.copy ctx.members in
  List.iter
    (fun q -> members.(q) <- Ese.member_after ctx.state ~s:s_total ~q)
    dirty;
  ctx.s_star <- s_total;
  ctx.members <- members;
  ctx.spent <- ctx.spent +. Cost.(ctx.cost.eval) step

(* One iteration's candidates: every target's {!Candidates.scan} over
   the queries no target hits yet, cheapest-first with the last target
   listed first on ties, each scored by its union gain. *)
let collect index ctxs ~cover ~cap ?max_step_cost budget =
  let inst = Query_index.instance index in
  let capped =
    List.concat_map
      (fun ctx ->
        Candidates.scan ~queries:(Instance.n_queries inst)
          ~skip:(fun q -> cover.(q) > 0)
          ~hit_constraint:(Ese.hit_constraint ctx.state) ~cost:ctx.cost
          ~p0:inst.Instance.features.(ctx.target)
          ~total_bounds:ctx.total_bounds ~s_star:ctx.s_star ?max_step_cost ()
        |> List.map (fun (step, c) -> (ctx, step, c)))
      (List.rev ctxs)
    |> Candidates.cheapest ~cap (fun (_, _, c) -> c)
  in
  (* [union_gain] walks the dirty slab per candidate — the expensive
     part, so it books budget steps and stops once tripped (gain 0
     placeholders, which {!Candidates.iterate} drops). *)
  List.map
    (fun (ctx, step, step_cost) ->
      let hits =
        if Resilience.Budget.live budget then begin
          Resilience.Budget.step budget 1;
          union_gain ~cover ctx step
        end
        else 0
      in
      (ctx, { Candidates.step; step_cost; hits }))
    capped

(* The multi-target loop of Section 5.1: apply the best cost per
   union-hit gain until the union reaches [`Tau] or the shared budget
   [`Beta] is spent. *)
let search ?(limits = []) ?max_iterations ?candidate_cap ?(states = [])
    ?budget ?fault ~index ~costs goal =
  let m = Instance.n_queries (Query_index.instance index) in
  let ctxs = List.map (make_ctx index limits states) costs in
  let cover = ref (build_cover ctxs m) in
  let before = union_count !cover in
  let spent () = List.fold_left (fun acc ctx -> acc +. ctx.spent) 0. ctxs in
  let left () =
    match goal with `Tau _ -> None | `Beta beta -> Some (beta -. spent ())
  in
  let collect budget =
    collect index ctxs ~cover:!cover ~cap:candidate_cap ?max_step_cost:(left ())
      budget
  in
  let fits (c : Candidates.t) =
    match left () with None -> true | Some l -> c.Candidates.step_cost <= l
  in
  let decide cs =
    match Candidates.best_by (fun (_, c) -> Candidates.ratio c) cs with
    | Some (ctx, best) when best.Candidates.hits > 0 && fits best ->
        apply_step ctx best.Candidates.step;
        cover := build_cover ctxs m;
        true
    | _ -> false
  in
  let pending () =
    match goal with
    | `Tau tau -> union_count !cover < tau
    | `Beta beta -> spent () < beta
  in
  let search =
    match goal with `Tau tau -> `Min_cost_multi tau | `Beta _ -> `Max_hit
  in
  let iterations, status =
    Candidates.iterate ?max_iterations ?budget ?fault ~search ~pending ~collect
      ~decide ()
  in
  {
    strategies = List.map (fun ctx -> (ctx.target, ctx.s_star)) ctxs;
    total_cost =
      List.fold_left
        (fun acc ctx -> acc +. ctx.cost.Cost.eval ctx.s_star)
        0. ctxs;
    union_hits_before = before;
    union_hits_after = union_count !cover;
    iterations;
    status;
  }

let min_cost ?limits ?max_iterations ?candidate_cap ?states ?budget ?fault
    ~index ~costs ~tau () =
  if costs = [] then invalid_arg "Combinatorial.min_cost: no targets";
  let o =
    search ?limits ?max_iterations ?candidate_cap ?states ?budget ?fault ~index
      ~costs (`Tau tau)
  in
  match o.status with
  | `Complete when o.union_hits_after < tau -> None
  | _ -> Some o

let max_hit ?limits ?max_iterations ?candidate_cap ?states ?budget ?fault
    ~index ~costs ~beta () =
  if costs = [] then invalid_arg "Combinatorial.max_hit: no targets";
  search ?limits ?max_iterations ?candidate_cap ?states ?budget ?fault ~index
    ~costs (`Beta beta)
