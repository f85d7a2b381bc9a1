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
let[@inline] may_share_key x y =
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
   only with the run after it, and a key is rendered once, on demand.
   [leads] holds the first coordinates unboxed, so the sort and the run
   test read floats without allocating. *)
let duplicates steps =
  let n = Array.length steps in
  let leads = Array.create_float n in
  Array.iteri
    (fun i step -> leads.(i) <- (if Array.length step = 0 then 0. else step.(0)))
    steps;
  let by_lead = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare leads.(a) leads.(b)) by_lead;
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
    while !r < n && may_share_key leads.(i) leads.(by_lead.(!r)) do
      let j = by_lead.(!r) in
      if close_steps steps.(i) steps.(j) && String.equal (key i) (key j) then
        dup.(Int.max i j) <- true;
      incr r
    done
  done;
  dup

(* [found] is built in descending q order; the steps array indexes it
   from the back (ascending q), so the dedup keeps the lowest-q copy,
   and the filtered list stays in descending q order, which a stable
   cost sort turns into the searches' tie order (highest query
   first). *)
let scan ~queries ~skip ~hit_constraint ~(cost : Cost.t) ~p0 ~total_bounds
    ~s_star ?max_step_cost () =
  let current = Vec.add p0 s_star in
  let bounds = remaining_bounds total_bounds s_star in
  let found = ref [] and n = ref 0 in
  for q = 0 to queries - 1 do
    if not (skip q) then
      match hit_constraint ~q ~current with
      | None -> ()
      | Some (a, b) -> (
          match cost.Cost.min_step ~a ~b ~bounds with
          | None -> ()
          | Some step ->
              let c = cost.Cost.eval step in
              let fits =
                match max_step_cost with
                | None -> true
                | Some ceiling -> c <= ceiling +. 1e-12
              in
              if fits then begin
                found := (step, c) :: !found;
                incr n
              end)
  done;
  let n = !n in
  let steps = Array.make n [||] in
  List.iteri (fun p (step, _) -> steps.(n - 1 - p) <- step) !found;
  let dup = duplicates steps in
  List.filteri (fun p _ -> not dup.(n - 1 - p)) !found

(* The first [n] of a stable sort by cost, selected into [n] slots
   without sorting the rest: an entry displaces only strictly costlier
   ones, so it lands after every kept entry of equal cost, as the
   stable sort would place it. *)
let select_cheapest n by_cost = function
  | [] -> []
  | first :: _ as steps ->
      let kept = Array.make n first and costs = Array.create_float n in
      let len = ref 0 in
      List.iter
        (fun x ->
          let c = by_cost x in
          let full = !len >= n in
          if (not full) || Float.compare c costs.(n - 1) < 0 then begin
            let pos = ref (if full then n - 1 else !len) in
            while !pos > 0 && Float.compare c costs.(!pos - 1) < 0 do
              kept.(!pos) <- kept.(!pos - 1);
              costs.(!pos) <- costs.(!pos - 1);
              decr pos
            done;
            kept.(!pos) <- x;
            costs.(!pos) <- c;
            if not full then incr len
          end)
        steps;
      List.init !len (fun i -> kept.(i))

let cheapest ~cap by_cost steps =
  match cap with
  | Some n when n <= 0 -> []
  | Some n when n < List.length steps -> select_cheapest n by_cost steps
  | Some _ | None ->
      List.stable_sort (fun a b -> Float.compare (by_cost a) (by_cost b)) steps

let collect ?pool ?fault ~budget ~(evaluator : Evaluator.t) ~(cost : Cost.t)
    ~p0 ~total_bounds ~s_star ~cap ?max_step_cost () =
  let capped =
    scan
      ~queries:(Instance.n_queries evaluator.Evaluator.instance)
      ~skip:(fun q -> evaluator.Evaluator.member ~q s_star)
      ~hit_constraint:evaluator.Evaluator.hit_constraint ~cost ~p0 ~total_bounds
      ~s_star ?max_step_cost ()
    |> cheapest ~cap snd
  in
  (* The expensive part: one full hit-count evaluation per candidate.
     Candidates are independent, so this is the fan-out the Parallel
     pool accelerates; the order-preserving map keeps the result (and
     hence every downstream index-based tie-break) identical to the
     sequential path. Each evaluation books a budget step; once the
     budget trips, the rest get [hits = 0] placeholders and {!iterate}
     drops the whole batch. *)
  let evaluate (step, step_cost) =
    Resilience.Budget.step budget 1;
    let hits = evaluator.Evaluator.hit_count (Vec.add s_star step) in
    { step; step_cost; hits }
  in
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
        Option.map
          (fun _ () -> Resilience.Fault.point fault ~site:"pool.task")
          fault
      in
      Array.to_list
        (Parallel.map_array ~stop ?on_chunk pool evaluate
           (Array.of_list capped))

let ratio c =
  if c.hits <= 0 then infinity else c.step_cost /. float_of_int c.hits

(* Deterministic argmin: strict improvement only, so ties keep the
   lowest candidate index. [collect] preserves candidate order under a
   Parallel pool, hence parallel and sequential searches apply the
   same step each iteration, not just an equal-score one. *)
let best_by score = function
  | [] -> None
  | c :: cs ->
      Some
        (List.fold_left
           (fun acc c -> if score c < score acc then c else acc)
           c cs)

type status = [ `Complete | `Degraded of Resilience.Budget.trip ]

let default_iterations = function
  | `Min_cost tau -> (4 * tau) + 16
  | `Min_cost_multi tau -> (4 * tau) + 32
  | `Max_hit -> 256

(* The anytime discipline, owned here once: the budget is checked
   before an iteration starts and again right after its candidate
   batch comes back. An iteration interrupted mid-batch is dropped
   whole, so a search's strategy only ever reflects fully evaluated,
   fully applied steps: a degraded answer is under-achieved, never
   wrong. *)
let iterate ?max_iterations ?budget ?fault ~search ~pending ~collect ~decide ()
    =
  let budget = Option.value budget ~default:Resilience.Budget.unlimited in
  let max_iterations =
    Option.value max_iterations ~default:(default_iterations search)
  in
  let rec go i =
    if i >= max_iterations || not (pending ()) then (i, `Complete)
    else
      match Resilience.Budget.check budget with
      | Some trip -> (i, `Degraded trip)
      | None -> (
          Resilience.Fault.point fault ~site:"search.iteration";
          let batch = collect budget in
          match Resilience.Budget.check budget with
          | Some trip -> (i + 1, `Degraded trip)
          | None -> if decide batch then go (i + 1) else (i + 1, `Complete))
  in
  go 0
