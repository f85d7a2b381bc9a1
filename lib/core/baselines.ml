open Geom

type outcome = {
  strategy : Strategy.t;
  total_cost : float;
  hits_before : int;
  hits_after : int;
  steps : int;
}

(* The cheapest step hitting one more query; ties go to the lowest
   query, the last of [scan]'s descending-q order. *)
let cheapest_step ~(evaluator : Evaluator.t) ~(cost : Cost.t) ~p0 ~total_bounds
    s_star =
  Candidates.scan
    ~queries:(Instance.n_queries evaluator.Evaluator.instance)
    ~skip:(fun q -> evaluator.Evaluator.member ~q s_star)
    ~hit_constraint:evaluator.Evaluator.hit_constraint ~cost ~p0 ~total_bounds
    ~s_star ()
  |> List.fold_left
       (fun best (step, c) ->
         match best with
         | Some (_, c') when c' < c -> best
         | _ -> Some (step, c))
       None

let greedy_min_cost ?limits ?max_iterations ~(evaluator : Evaluator.t)
    ~(cost : Cost.t) ~target ~tau () =
  if tau <= 0 then invalid_arg "Baselines.greedy_min_cost: tau <= 0";
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  let limits =
    match limits with Some l -> l | None -> Strategy.unrestricted d
  in
  let max_iterations =
    match max_iterations with Some n -> n | None -> (4 * tau) + 64
  in
  let p0 = inst.Instance.features.(target) in
  let total_bounds = Strategy.bounds_for limits ~p:p0 in
  let s_star = ref (Strategy.zero d) in
  let steps = ref 0 in
  let hits = ref evaluator.Evaluator.base_hits in
  let failed = ref false in
  while (not !failed) && !hits < tau && !steps < max_iterations do
    match cheapest_step ~evaluator ~cost ~p0 ~total_bounds !s_star with
    | None -> failed := true
    | Some (step, _) ->
        incr steps;
        s_star := Vec.add !s_star step;
        hits := evaluator.Evaluator.hit_count !s_star
  done;
  if !hits < tau then None
  else
    Some
      {
        strategy = !s_star;
        total_cost = cost.Cost.eval !s_star;
        hits_before = evaluator.Evaluator.base_hits;
        hits_after = !hits;
        steps = !steps;
      }

let greedy_max_hit ?limits ?max_iterations ~(evaluator : Evaluator.t)
    ~(cost : Cost.t) ~target ~beta () =
  if beta < 0. then invalid_arg "Baselines.greedy_max_hit: beta < 0";
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  let limits =
    match limits with Some l -> l | None -> Strategy.unrestricted d
  in
  let max_iterations =
    match max_iterations with Some n -> n | None -> 256
  in
  let p0 = inst.Instance.features.(target) in
  let total_bounds = Strategy.bounds_for limits ~p:p0 in
  let s_star = ref (Strategy.zero d) in
  let spent = ref 0. in
  let steps = ref 0 in
  let stop = ref false in
  while (not !stop) && !steps < max_iterations do
    match cheapest_step ~evaluator ~cost ~p0 ~total_bounds !s_star with
    | Some (step, c) when !spent +. c <= beta ->
        incr steps;
        s_star := Vec.add !s_star step;
        spent := !spent +. c
    | Some _ | None -> stop := true
  done;
  {
    strategy = !s_star;
    total_cost = cost.Cost.eval !s_star;
    hits_before = evaluator.Evaluator.base_hits;
    hits_after = evaluator.Evaluator.hit_count !s_star;
    steps = !steps;
  }

let random_strategy ~rng ~bounds ~scale d =
  Array.init d (fun j ->
      let lo = Float.max bounds.Lp.Projection.lo.(j) (-.scale) in
      let hi = Float.min bounds.Lp.Projection.hi.(j) scale in
      if lo >= hi then lo else lo +. ((hi -. lo) *. rng ()))

let random_min_cost ?(attempts = 500) ?(step_scale = 0.5) ~rng
    ~(evaluator : Evaluator.t) ~(cost : Cost.t) ~target ~tau () =
  if tau <= 0 then invalid_arg "Baselines.random_min_cost: tau <= 0";
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  let p0 = inst.Instance.features.(target) in
  let bounds = Strategy.bounds_for (Strategy.unrestricted d) ~p:p0 in
  let rec go i scale =
    if i >= attempts then None
    else begin
      let s = random_strategy ~rng ~bounds ~scale d in
      let h = evaluator.Evaluator.hit_count s in
      if h >= tau then
        Some
          {
            strategy = s;
            total_cost = cost.Cost.eval s;
            hits_before = evaluator.Evaluator.base_hits;
            hits_after = h;
            steps = i + 1;
          }
      else go (i + 1) (scale *. 1.02)
    end
  in
  go 0 step_scale

let random_max_hit ?(attempts = 500) ?(step_scale = 0.5) ~rng
    ~(evaluator : Evaluator.t) ~(cost : Cost.t) ~target ~beta () =
  if beta < 0. then invalid_arg "Baselines.random_max_hit: beta < 0";
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  let p0 = inst.Instance.features.(target) in
  let bounds = Strategy.bounds_for (Strategy.unrestricted d) ~p:p0 in
  let rec go i =
    if i >= attempts then
      {
        strategy = Strategy.zero d;
        total_cost = 0.;
        hits_before = evaluator.Evaluator.base_hits;
        hits_after = evaluator.Evaluator.base_hits;
        steps = attempts;
      }
    else begin
      let s = random_strategy ~rng ~bounds ~scale:step_scale d in
      let c = cost.Cost.eval s in
      if c <= beta then
        {
          strategy = s;
          total_cost = c;
          hits_before = evaluator.Evaluator.base_hits;
          hits_after = evaluator.Evaluator.hit_count s;
          steps = i + 1;
        }
      else go (i + 1)
    end
  in
  go 0
