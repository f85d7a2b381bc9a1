open Geom

type status = Candidates.status

type outcome = {
  strategy : Strategy.t;
  total_cost : float;
  incremental_cost : float;
  hits_before : int;
  hits_after : int;
  iterations : int;
  evaluations : int;
  status : status;
}

let search ?limits ?max_iterations ?candidate_cap ?pool ?budget ?fault
    ~(evaluator : Evaluator.t) ~(cost : Cost.t) ~target ~tau () =
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  if cost.Cost.dim <> d then invalid_arg "Min_cost.search: cost arity";
  let limits =
    match limits with Some l -> l | None -> Strategy.unrestricted d
  in
  let p0 = inst.Instance.features.(target) in
  let total_bounds = Strategy.bounds_for limits ~p:p0 in
  let s_star = ref (Strategy.zero d) in
  let spent = ref 0. in
  let hits = ref evaluator.Evaluator.base_hits in
  let apply (c : Candidates.t) =
    s_star := Vec.add !s_star c.Candidates.step;
    spent := !spent +. c.Candidates.step_cost;
    hits := c.Candidates.hits
  in
  let collect budget =
    Candidates.collect ?pool ?fault ~budget ~evaluator ~cost ~p0 ~total_bounds
      ~s_star:!s_star ~cap:candidate_cap ()
  in
  let decide cs =
    Log.debug (fun m ->
        m "min-cost: %d candidates, H=%d/%d" (List.length cs) !hits tau);
    match Candidates.best_by Candidates.ratio cs with
    | None -> false
    | Some best when best.Candidates.hits <= tau ->
        apply best;
        true
    | Some _ -> (
        (* Overshoot: apply the cheapest candidate reaching tau. *)
        match
          Candidates.best_by
            (fun c -> c.Candidates.step_cost)
            (List.filter (fun c -> c.Candidates.hits >= tau) cs)
        with
        | None -> false
        | Some cheapest ->
            apply cheapest;
            false)
  in
  let iterations, status =
    Candidates.iterate ?max_iterations ?budget ?fault ~search:(`Min_cost tau)
      ~pending:(fun () -> !hits < tau)
      ~collect ~decide ()
  in
  match status with
  | `Complete when !hits < tau -> None
  | _ ->
      Some
        {
          strategy = !s_star;
          total_cost = cost.Cost.eval !s_star;
          incremental_cost = !spent;
          hits_before = evaluator.Evaluator.base_hits;
          hits_after = !hits;
          iterations;
          evaluations = evaluator.Evaluator.evaluations ();
          status;
        }

let per_hit_cost o =
  if o.hits_after <= 0 then infinity
  else o.total_cost /. float_of_int o.hits_after
