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
    ~(evaluator : Evaluator.t) ~(cost : Cost.t) ~target ~beta () =
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  if cost.Cost.dim <> d then invalid_arg "Max_hit.search: cost arity";
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
    spent := !spent +. c.Candidates.step_cost
  in
  let collect budget =
    Candidates.collect ?pool ?fault ~budget ~evaluator ~cost ~p0 ~total_bounds
      ~s_star:!s_star ~cap:candidate_cap ~max_step_cost:(beta -. !spent) ()
  in
  let decide cs =
    Log.debug (fun m ->
        m "max-hit: %d candidates, spent %.4f of %.4f" (List.length cs) !spent
          beta);
    match Candidates.best_by Candidates.ratio cs with
    | None -> false
    | Some best when !spent +. best.Candidates.step_cost <= beta ->
        apply best;
        hits := best.Candidates.hits;
        true
    | Some _ ->
        (* Final fill: [cs] is already cheapest-first; apply whatever
           still fits. *)
        List.iter
          (fun (c : Candidates.t) ->
            if !spent +. c.Candidates.step_cost <= beta then apply c)
          cs;
        hits := evaluator.Evaluator.hit_count !s_star;
        false
  in
  let iterations, status =
    Candidates.iterate ?max_iterations ?budget ?fault ~search:`Max_hit
      ~pending:(fun () -> !spent < beta)
      ~collect ~decide ()
  in
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
