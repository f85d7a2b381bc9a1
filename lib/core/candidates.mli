(** The greedy cost-per-hit search shared by Algorithms 3 and 4 and
    the multi-target variant of Section 5.1: one constraint scan
    (the cheapest step per not-yet-hit query, deduplicated — queries
    in the same subdomain induce identical steps), cheapest-first
    candidate collection capped before the expensive hit-count
    evaluations, and one budgeted iteration driver. *)

open Geom

type t = { step : Vec.t; step_cost : float; hits : int }
(** A candidate step, its cost, and the hits it scores: the total hit
    count of the improved target in the single-target searches, the
    union-hit gain in {!Combinatorial}. *)

val scan :
  queries:int ->
  skip:(int -> bool) ->
  hit_constraint:(q:int -> current:Vec.t -> (Vec.t * float) option) ->
  cost:Cost.t ->
  p0:Vec.t ->
  total_bounds:Lp.Projection.bounds ->
  s_star:Vec.t ->
  ?max_step_cost:float ->
  unit ->
  (Vec.t * float) list
(** The constraint scan every greedy search shares: for each query
    [q < queries] that [skip] leaves, the cost's cheapest increment on
    the strategy [s_star] that satisfies Equation 14's constraint at
    [p0 + s_star] and keeps the whole strategy within [total_bounds],
    with its cost. Steps above [max_step_cost] (the budget filter of
    Algorithm 4) are dropped; {!duplicates} keeps the lowest-q copy of
    each step. The [(step, cost)] pairs come back in descending q
    order, so a stable cost sort breaks ties highest query first. *)

val collect :
  ?pool:Parallel.pool ->
  ?fault:Resilience.Fault.t ->
  budget:Resilience.Budget.t ->
  evaluator:Evaluator.t ->
  cost:Cost.t ->
  p0:Vec.t ->
  total_bounds:Lp.Projection.bounds ->
  s_star:Vec.t ->
  cap:int option ->
  ?max_step_cost:float ->
  unit ->
  t list
(** One iteration's candidates for the single-target searches: {!scan}
    over the queries [s_star] does not hit yet, cheapest-first, the
    first [cap] of them evaluated; [hits] is the evaluator's total hit
    count for [s_star + step].

    [pool] fans the evaluations out across a {!Parallel} pool and
    returns the same list as the sequential path (the evaluator's
    [hit_count] must be safe to call concurrently — all built-in
    evaluators are). Each evaluation books one
    {!Resilience.Budget.step}; once [budget] trips (checked per
    candidate, in a pool at chunk boundaries) the rest carry [hits = 0]
    placeholders, which {!iterate} never acts on. [fault] consults the
    [pool.task] injection site at every pool chunk boundary. *)

val cheapest : cap:int option -> ('a -> float) -> 'a list -> 'a list
(** Stable sort by the given cost ([Float.compare]), then the first
    [cap] entries. A cap below the list length selects them into [cap]
    slots in one pass instead of sorting the whole list. *)

val ratio : t -> float
(** Cost per hit: [step_cost / hits], [infinity] for [hits <= 0]. *)

val best_by : ('a -> float) -> 'a list -> 'a option
(** The lowest-scoring entry; ties keep the earliest, so a search that
    preserves candidate order picks the same step on any pool size. *)

type status = [ `Complete | `Degraded of Resilience.Budget.trip ]
(** [`Degraded trip]: the budget tripped mid-search and the outcome is
    the anytime answer — the best strategy accumulated from fully
    evaluated iterations, with exact (never over-reported) hit counts;
    it just may not reach the goal. *)

val iterate :
  ?max_iterations:int ->
  ?budget:Resilience.Budget.t ->
  ?fault:Resilience.Fault.t ->
  search:[ `Min_cost of int | `Min_cost_multi of int | `Max_hit ] ->
  pending:(unit -> bool) ->
  collect:(Resilience.Budget.t -> 'a) ->
  decide:('a -> bool) ->
  unit ->
  int * status
(** The greedy loop of Algorithms 3 and 4 and of Section 5.1, run while
    [pending ()] holds (goal not reached, budget not spent) and fewer
    than [max_iterations] iterations ran. An iteration checks [budget]
    (default {!Resilience.Budget.unlimited}), consults [fault] at the
    [search.iteration] site, calls [collect], checks [budget] again and
    only then hands the batch to [decide], which applies a step and
    returns [false] to stop. A trip at either check ends the loop with
    [`Degraded trip] and the batch in flight dropped whole, so the
    strategy holds only fully evaluated, fully applied steps. Returns
    the iterations started and the status.

    [max_iterations] defaults by [search]: [4*tau + 16] for
    [`Min_cost tau], [4*tau + 32] for [`Min_cost_multi tau] and [256]
    for [`Max_hit] (single- and multi-target alike). *)

val duplicates : Vec.t array -> bool array
(** The dedup of {!scan}: [(duplicates steps).(i)] holds when some
    [steps.(j)] with [j < i] renders to the same ["%.12g"] key,
    coordinate by coordinate, so the first of each class is kept. Keys
    are rendered only for steps that agree to 1e-10 relative on every
    coordinate (or hold a NaN or infinity), a necessary condition for
    equal renderings. *)
