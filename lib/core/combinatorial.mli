(** Combinatorial object improvement — Section 5.1.

    Improve a set of target objects together: Min-Cost wants the union
    of queries hit by the improved targets to reach [tau] at minimal
    total cost; Max-Hit maximizes that union within a shared budget.
    A query hit by several targets counts once. Each target may carry
    its own cost function. The search is the greedy ratio loop of
    Algorithms 3 and 4 ({!Candidates.iterate}) over union hits
    (steps 1–3 in Section 5.1): each iteration scans every target's
    steps for the queries no target hits yet ({!Candidates.scan}),
    scores each by its union-hit gain, and applies the best cost per
    gain. Equal-cost candidates list the last target first, then the
    highest query. *)

type status = Candidates.status
(** As in {!Min_cost.status}: degraded outcomes carry the exact union
    count of the strategies actually applied. *)

type outcome = {
  strategies : (int * Strategy.t) list;
      (** one accumulated strategy per target id *)
  total_cost : float;  (** sum of per-target strategy costs *)
  union_hits_before : int;
  union_hits_after : int;
  iterations : int;
  status : status;
}

val min_cost :
  ?limits:(int * Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?states:(int * Ese.state) list ->
  ?budget:Resilience.Budget.t ->
  ?fault:Resilience.Fault.t ->
  index:Query_index.t ->
  costs:(int * Cost.t) list ->
  tau:int ->
  unit ->
  outcome option
(** [costs] maps each target id to its cost function (the target set is
    its domain). [states] supplies pre-built {!Ese} states per target
    (e.g. from {!Engine}'s cache); targets without one prepare their
    own. [None] when [tau] union hits are unreachable (no candidate
    gains, or the iteration cap — default [4*tau + 32] — is hit); a
    [tau] the union already meets — including [tau <= 0] — is
    trivially satisfied with zero strategies.
    [budget]/[fault] behave as in {!Min_cost.search}: a trip ends the
    search with [status = `Degraded _] and the strategies applied so
    far. Each union-gain evaluation books one budget step; the scan is
    sequential, so [search.iteration] is the only fault site.
    @raise Invalid_argument when [costs] is empty. *)

val max_hit :
  ?limits:(int * Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?states:(int * Ese.state) list ->
  ?budget:Resilience.Budget.t ->
  ?fault:Resilience.Fault.t ->
  index:Query_index.t ->
  costs:(int * Cost.t) list ->
  beta:float ->
  unit ->
  outcome
(** Shared budget [beta] across all targets; [states] as in
    {!min_cost}. Stops when no candidate fits what is left or gains,
    or after [max_iterations] iterations, default [256]. *)
