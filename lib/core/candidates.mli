(** Shared candidate-step collection for the greedy searches
    (Algorithms 3 and 4): one cheapest step per not-yet-hit query,
    deduplicated (queries in the same subdomain induce identical
    steps), cheapest-first, optionally capped before the expensive
    hit-count evaluations. *)

open Geom

type t = { step : Vec.t; step_cost : float; hits : int }

val collect :
  ?pool:Parallel.pool ->
  ?budget:Resilience.Budget.t ->
  ?fault:Resilience.Fault.t ->
  evaluator:Evaluator.t ->
  cost:Cost.t ->
  bounds:Lp.Projection.bounds ->
  current:Vec.t ->
  s_star:Vec.t ->
  cap:int option ->
  ?max_step_cost:float ->
  unit ->
  t list
(** Steps are relative to the accumulated strategy [s_star]; [hits] is
    the evaluator's total hit count for [s_star + step].
    [max_step_cost] drops candidates above a cost ceiling (the budget
    filter of Algorithm 4) before evaluation.

    [pool] fans the per-candidate hit-count evaluations out across a
    {!Parallel} pool; collection order, dedup and the cheapest-first
    sort are unchanged, so the returned list is identical to the
    sequential one (the evaluator's [hit_count] must be safe to call
    concurrently — all built-in evaluators are).

    [budget] books one {!Resilience.Budget.step} per evaluation and
    stops evaluating (sequentially per candidate, in a pool at chunk
    boundaries) once the budget trips; the remaining entries carry
    [hits = 0] placeholders, so callers must re-check the budget after
    [collect] and discard the list when it tripped. [fault] consults
    the [pool.task] injection site at every pool chunk boundary. *)

val duplicates : Vec.t array -> bool array
(** The dedup of {!collect}: [(duplicates steps).(i)] holds when some
    [steps.(j)] with [j < i] renders to the same ["%.12g"] key,
    coordinate by coordinate, so the first of each class is kept. Keys
    are rendered only for steps that agree to 1e-10 relative on every
    coordinate (or hold a NaN or infinity), a necessary condition for
    equal renderings. *)

val remaining_bounds :
  Lp.Projection.bounds -> Vec.t -> Lp.Projection.bounds
(** Bounds left for an increment once [s_star] is already applied. *)
