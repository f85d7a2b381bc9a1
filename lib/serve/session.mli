(** Multi-client serving sessions over the MVCC engine.

    A session is the unit of admission and isolation: {!open_} admits
    the caller through the engine's admission queue (at most
    [IQ_MAX_SESSIONS] concurrently; waiting is bounded by the
    session's budget) and pins the engine's current {!Iq.Snapshot} —
    an immutable generation bundle. Every read and improvement query
    on the session then answers from that pinned generation, no matter
    how many mutations land on the engine meanwhile: staleness is an
    {e opt-in} {!refresh}, never a forced re-prepare mid-search.

    The statement lifecycle follows the sqlite idiom —
    open → {!prepare} → {!bind} → {!step} → {!finalize} — with
    {!with_session}/{!with_stmt} as the bracketed forms that make leak
    bugs structurally impossible (and which the iqlint
    [handle-lifecycle] rule checks for). A statement pins the snapshot
    it was prepared on even across a session {!refresh}, so stepping
    it is always answered from one consistent generation.

    Sessions are single-caller values, like database connections: use
    one session per domain/thread. The engine underneath is safe for
    any number of concurrent sessions plus one writer. *)

(** Failures at the session boundary: either an engine error passed
    through, or a lifecycle misuse caught at runtime. *)
module Error : sig
  type t =
    | Engine of Iq.Engine.Error.t  (** underlying engine failure *)
    | Closed  (** the session was already closed *)
    | Finalized  (** the statement was already finalized *)

  val to_string : t -> string

  val pp : Format.formatter -> t -> unit
end

type t
(** An open serving session holding an admission slot and a pinned
    snapshot. Close it exactly once ({!close} is idempotent, but a
    leaked session holds its admission slot forever — prefer
    {!with_session}). *)

type stmt
(** A prepared statement: a target's evaluator pinned to the snapshot
    it was prepared on. Finalize when done (or use {!with_stmt}). *)

(** {2 Session lifecycle} *)

val open_ :
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  Iq.Engine.t ->
  (t, Error.t) result
(** Admit a session and pin the current generation. Blocks while the
    engine is at its [IQ_MAX_SESSIONS] ceiling, up to the given
    deadline/budget (precedence as in the engine searches); an expired
    wait is [Error (Engine (Deadline_exceeded _))] and counts as an
    admission rejection in [Engine.stats]. *)

val open_exn : ?deadline_ms:float -> ?budget:Resilience.Budget.t -> Iq.Engine.t -> t
(** {!open_}, raising [Invalid_argument] on error — for examples and
    tools whose only reaction is to die. *)

val close : t -> unit
(** Finalize any live statements, unpin the snapshot and release the
    admission slot. Idempotent; never raises. *)

val with_session :
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  Iq.Engine.t ->
  (t -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** Bracketed {!open_}: the session is closed on every exit path,
    including exceptions (the [bracket] idiom). *)

val engine : t -> Iq.Engine.t

val snapshot : t -> Iq.Snapshot.t
(** The pinned generation bundle. *)

val generation : t -> int
(** Generation of the pinned snapshot. *)

val refresh : t -> (unit, Error.t) result
(** Opt-in staleness recovery: exchange the pinned snapshot for the
    engine's current one (a no-op when no mutation has landed).
    Subsequent session reads and prepares answer from the new
    generation; statements already prepared keep the generation they
    pinned. *)

(** {2 Prepared statements — prepare/bind/step/finalize} *)

val prepare : t -> target:int -> (stmt, Error.t) result
(** Prepare the improvement-query statement [H(target + s)] against
    the session's pinned snapshot. *)

val bind : stmt -> s:Iq.Strategy.t -> (unit, Error.t) result
(** Bind the strategy parameter (re-binding resets the row cursor).
    An unbound statement evaluates the zero strategy — the target's
    base hit count. [Error (Engine (Dim_mismatch _))] on arity
    mismatch. *)

val step : stmt -> ([ `Row of int | `Done ], Error.t) result
(** Advance the one-row result set: the first step after a (re)bind
    yields [`Row hits] — the bound strategy's exact hit count under
    the pinned generation — and the next yields [`Done].
    [Error Finalized] after {!finalize}, [Error Closed] after the
    session closed; an evaluation that raises (e.g. an injected
    [IQ_FAULT] eval fault) is [Error (Engine (Internal _))]. *)

val finalize : stmt -> unit
(** Release the statement. Idempotent; never raises. Stepping a
    finalized statement is [Error Finalized]. *)

val with_stmt :
  t -> target:int -> (stmt -> ('a, Error.t) result) -> ('a, Error.t) result
(** Bracketed {!prepare}: the statement is finalized on every exit
    path. *)

val stmt_target : stmt -> int

val stmt_generation : stmt -> int
(** The generation the statement answers from (its prepare-time pin). *)

(** {2 Snapshot-pinned reads and improvement queries}

    The engine entry points, routed through the session's pinned
    snapshot: results are computed against the session's generation
    regardless of concurrent mutations. Budget plumbing is the
    engine's ([?budget] wins, then [?deadline_ms], then
    [IQ_DEADLINE_MS], then unbounded). *)

val hits : t -> target:int -> (int, Error.t) result

val member : t -> target:int -> q:int -> (bool, Error.t) result

val min_cost :
  ?limits:Iq.Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  t ->
  cost:Iq.Cost.t ->
  target:int ->
  tau:int ->
  (Iq.Min_cost.outcome, Error.t) result

val max_hit :
  ?limits:Iq.Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  t ->
  cost:Iq.Cost.t ->
  target:int ->
  beta:float ->
  (Iq.Max_hit.outcome, Error.t) result

val min_cost_multi :
  ?limits:(int * Iq.Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  t ->
  costs:(int * Iq.Cost.t) list ->
  tau:int ->
  (Iq.Combinatorial.outcome, Error.t) result

val max_hit_multi :
  ?limits:(int * Iq.Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  t ->
  costs:(int * Iq.Cost.t) list ->
  beta:float ->
  (Iq.Combinatorial.outcome, Error.t) result
