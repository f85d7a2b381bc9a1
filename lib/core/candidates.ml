open Geom

type t = { step : Vec.t; step_cost : float; hits : int }

let remaining_bounds total s_star =
  {
    Lp.Projection.lo = Vec.sub total.Lp.Projection.lo s_star;
    hi = Vec.sub total.Lp.Projection.hi s_star;
  }

let step_key step =
  String.concat ","
    (List.map (fun x -> Printf.sprintf "%.12g" x) (Array.to_list step))

(* Steps are deduplicated on their ["%.12g"] rendering, but rendering
   every step costs a [Printf] per coordinate per query. Two finite
   floats with the same 12-significant-digit rendering each lie within
   half a unit of its 12th digit, so they differ by about 1e-11 of
   their magnitude at most: agreeing to 1e-10 relative is necessary,
   and only such pairs get rendered. Non-finite values (NaN, inf) and
   every pair that passes, [±0] included, go to the string compare,
   so the relation is exactly key equality. *)
let may_share_key x y =
  (not (Float.is_finite x && Float.is_finite y))
  || Float.abs (x -. y) <= 1e-10 *. Float.max (Float.abs x) (Float.abs y)

let close_steps a b =
  Array.length a = Array.length b
  &&
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length a do
    ok := may_share_key a.(!j) b.(!j);
    incr j
  done;
  !ok

(* [dup.(i)]: some earlier step renders to the same key as step [i], so
   the first of every key class is kept. Sorted by first coordinate,
   the steps that may share a key with a step form a contiguous run
   next to it (closeness to a finite value is an interval; NaNs and
   each infinity sort together at the ends), so each step is compared
   only with the run after it, and a key is rendered once, on demand. *)
let duplicates steps =
  let n = Array.length steps in
  let lead i = if Array.length steps.(i) = 0 then 0. else steps.(i).(0) in
  let by_lead = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare (lead a) (lead b)) by_lead;
  let keys = Array.make n None in
  let key i =
    match keys.(i) with
    | Some k -> k
    | None ->
        let k = step_key steps.(i) in
        keys.(i) <- Some k;
        k
  in
  let dup = Array.make n false in
  for p = 0 to n - 1 do
    let i = by_lead.(p) in
    let r = ref (p + 1) in
    while !r < n && may_share_key (lead i) (lead by_lead.(!r)) do
      let j = by_lead.(!r) in
      if close_steps steps.(i) steps.(j) && String.equal (key i) (key j) then
        dup.(Int.max i j) <- true;
      incr r
    done
  done;
  dup

let collect ?pool ?budget ?fault ~(evaluator : Evaluator.t) ~(cost : Cost.t)
    ~bounds ~current ~s_star ~cap ?max_step_cost () =
  let budget =
    match budget with Some b -> b | None -> Resilience.Budget.unlimited
  in
  let m = Instance.n_queries evaluator.Evaluator.instance in
  let found = ref [] in
  for q = 0 to m - 1 do
    if not (evaluator.Evaluator.member ~q s_star) then
      match evaluator.Evaluator.hit_constraint ~q ~current with
      | None -> ()
      | Some (a, b) -> (
          match cost.Cost.min_step ~a ~b ~bounds with
          | None -> ()
          | Some step ->
              let c = cost.Cost.eval step in
              let within_budget =
                match max_step_cost with
                | None -> true
                | Some ceiling -> c <= ceiling +. 1e-12
              in
              if within_budget then found := (step, c) :: !found)
  done;
  (* Keep the lowest-q copy of each step; [steps] ends up in reverse q
     order, which the stable cost sort below turns into its tie order. *)
  let found = Array.of_list (List.rev !found) in
  let dup = duplicates (Array.map fst found) in
  let steps = ref [] in
  Array.iteri (fun i sc -> if not dup.(i) then steps := sc :: !steps) found;
  let sorted =
    List.sort (fun (_, c1) (_, c2) -> Float.compare c1 c2) !steps
  in
  let capped =
    match cap with
    | None -> sorted
    | Some n -> List.filteri (fun i _ -> i < n) sorted
  in
  (* The expensive part: one full hit-count evaluation per candidate.
     Candidates are independent, so this is the fan-out the Parallel
     pool accelerates; the order-preserving map keeps the result (and
     hence every downstream index-based tie-break) identical to the
     sequential path. *)
  let evaluate (step, step_cost) =
    Resilience.Budget.step budget 1;
    let hits = evaluator.Evaluator.hit_count (Vec.add s_star step) in
    { step; step_cost; hits }
  in
  (* Budget discipline: each evaluation books a step; once the budget
     trips, remaining evaluations are skipped (hits = 0 placeholders).
     The searches re-check the budget right after [collect] and
     discard the whole list on a trip, so a partially evaluated batch
     is never acted on. *)
  match pool with
  | None ->
      List.map
        (fun ((step, step_cost) as c) ->
          if Resilience.Budget.live budget then evaluate c
          else { step; step_cost; hits = 0 })
        capped
  | Some pool ->
      let stop () = not (Resilience.Budget.live budget) in
      let on_chunk =
        match fault with
        | None -> None
        | Some _ ->
            Some (fun () -> Resilience.Fault.point fault ~site:"pool.task")
      in
      Array.to_list
        (Parallel.map_array ~stop ?on_chunk pool evaluate
           (Array.of_list capped))
