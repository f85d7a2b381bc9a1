(** The serving facade: one value that owns the whole IQ pipeline.

    [Engine.create] takes an {!Instance}, builds the {!Query_index},
    borrows the process-wide {!Parallel} pool, and from then on every
    improvement query, evaluation and dataset update goes through the
    engine — callers never wire [build]/[prepare]/[search] by hand (and
    nothing outside [lib/core] should).

    {b Generations and MVCC.} The engine's state lives in immutable
    per-generation {!Snapshot} bundles. Every mutation ({!add_query},
    {!add_object}, {!update_object}, …) builds the {e next} bundle
    through the functional [Query_index.with_*] copy-on-write paths
    and publishes it atomically — the previous bundle is never patched
    in place, so a reader that obtained a snapshot (a serving session,
    or any search mid-flight) keeps a consistent view for as long as
    it holds it. Reads default to the current snapshot; passing
    [?snap] pins one explicitly. Evaluators are cached per snapshot
    and re-prepared transparently when a search first touches a target
    on a new generation. Every read answers from exactly one snapshot,
    so there is no stale state to report: a serving session moves to a
    newer generation only through its opt-in refresh.

    {b Serving sessions.} The [Serve.Session] layer (library [serve])
    drives multi-client serving: {!acquire_session} admits a caller
    (bounded by [IQ_MAX_SESSIONS], waiting within the caller's budget)
    and pins the current snapshot; {!release_session} unpins it. The
    engine keeps no retired generation of its own: once a mutation
    publishes its successor, a generation is reclaimed by the GC as
    soon as no session or reader holds it.

    {b Errors.} Entry points validate their inputs and return typed
    [result]s instead of raising — the [invalid_arg]s of the inner
    layers remain only for wiring bugs the engine has already ruled
    out.

    {b Backends.} Evaluation is pluggable via first-class modules:
    Efficient-IQ's subdomain index ({!Ese_backend}, the default), a
    full rescan ({!Scan_backend}) and reverse-top-k ({!Rta_backend}).
    [IQ_BACKEND] selects one at {!create} time (see
    [Workload.Config.backend]).

    {b Resilience.} Every improvement query accepts an optional
    deadline or {!Resilience.Budget}; a tripped budget returns the
    best strategies from fully completed iterations as a typed
    [Deadline_exceeded]/[Cancelled] error carrying a {!partial} —
    anytime semantics, exact but possibly under-achieved, never
    silently wrong. Backends form a degradation chain
    (ese → rta → scan): injected faults ({!Resilience.Fault}, loaded
    from [IQ_FAULT]) are retried with backoff when transient and
    failed over down the chain when persistent, with a per-backend
    circuit breaker; the accounting lands in {!stats}. *)

open Geom

(* The anytime payload of a deadline/cancellation trip: the best
   strategies found in fully completed iterations. *)
type partial = {
  p_strategies : (int * Strategy.t) list;
      (** per-target accumulated strategies (singleton for the
          single-target searches) *)
  p_hits : int;
      (** the {e exact} hit (or union-hit) count of [p_strategies] —
          never an estimate *)
  p_total_cost : float;
  p_iterations : int;  (** fully completed greedy iterations *)
  p_flag : [ `Degraded ];
      (** marks the value as an anytime answer, so it cannot be
          confused with a complete outcome in downstream code *)
}

(** Typed failure taxonomy of the serving boundary. *)
module Error : sig
  type t =
    | Dim_mismatch of { expected : int; got : int }
        (** vector arity differs from the engine's space *)
    | Unknown_target of { id : int; n_objects : int }
        (** object id out of range *)
    | Unknown_query of { q : int; n_queries : int }
        (** query index out of range *)
    | Depth_exceeded of { k : int; depth : int }
        (** an added query's [k] needs a deeper prefix than the index
            keeps — rebuild with [depth_slack] *)
    | Budget_exhausted of float  (** negative Max-Hit budget *)
    | Infeasible  (** Min-Cost: [tau] hits unreachable *)
    | Unknown_backend of string  (** unrecognized [IQ_BACKEND] name *)
    | Empty_targets  (** a combinatorial call with no targets *)
    | Deadline_exceeded of { elapsed_ms : float; partial : partial option }
        (** the request's wall-clock deadline or step budget ran out;
            [partial] is the anytime answer. Also the admission-wait
            timeout of {!acquire_session} (with [partial = None]). *)
    | Cancelled of { partial : partial option }
        (** the request's cancellation token fired *)
    | Fault_spec of { spec : string; msg : string }
        (** [IQ_FAULT] didn't parse — reported rather than silently
            running a chaos experiment without its faults *)
    | Wal_corrupt of { path : string; offset : int }
        (** the durable mutation log failed its frame checks at
            [offset] — a checksum mismatch or an impossible length.
            Recovery ([Durable.Recovery]) reports it after replaying
            the intact prefix; it never surfaces as a raw exception. *)
    | Not_checkpointable of string
        (** [Durable.Store.attach] on an engine whose utility (named
            here) is not linear: the feature map of Sec. 5.2/5.3 is a
            closure no checkpoint can serialise *)
    | Internal of string
        (** an unexpected exception escaped an internal layer; carries
            [Printexc.to_string]. Entry points catch-and-wrap rather
            than leak raw exceptions across the serving boundary. *)

  val to_string : t -> string
end

(** An evaluation backend. [prepare] builds the per-target evaluator
    (and, when the backend has one, the underlying {!Ese} state so
    multi-target searches can reuse it instead of re-preparing).
    [layers] is the engine's [prune] flag: [true] asks for evaluation
    through the reach band ([Ese.prepare ~prune:true]), [false] for the
    paper's Algorithm 2 slab search. Backends without a geometric hot
    path ignore it. *)
module type BACKEND = sig
  val name : string

  val prepare :
    layers:bool ->
    index:Query_index.t ->
    pool:Parallel.pool ->
    target:int ->
    Evaluator.t * Ese.state option
end

type backend = (module BACKEND)

module Ese_backend : BACKEND
(** Efficient-IQ: Algorithm 2 over the subdomain index (default). *)

module Scan_backend : BACKEND
(** Ground-truth full rescan ({!Evaluator.naive}). *)

module Rta_backend : BACKEND
(** Reverse top-k recomputation ({!Evaluator.rta}). *)

val backend_of_name : string -> (backend, Error.t) result
(** ["ese"]/["efficient-iq"], ["scan"]/["naive"], ["rta"]/["rta-iq"]
    (case-insensitive); anything else is [Unknown_backend]. *)

type resilience = {
  retries : int;
      (** bounded retries per backend for {e transient} injected
          faults (default [Workload.Config.retries ()], i.e.
          [IQ_RETRIES] or 2) *)
  backoff_ms : float;
      (** initial retry backoff, doubling per attempt (default 1ms) *)
  circuit_threshold : int;
      (** consecutive failures before a backend's circuit opens
          (default 3) *)
  circuit_cooldown_ms : float;
      (** how long an open circuit skips its backend before the next
          prepare half-opens it with one trial (default 100ms) *)
  fault : Resilience.Fault.t option;
      (** the injection schedule; [None] disables all fault sites *)
}
(** Failure-handling policy. {!create} without [?resilience] uses
    {!default_resilience} with the schedule parsed from [IQ_FAULT]. *)

val default_resilience : unit -> resilience

type t

val create :
  ?backend:backend ->
  ?resilience:resilience ->
  ?prune:bool ->
  ?generation:int ->
  ?depth_slack:int ->
  ?pool:Parallel.pool ->
  Instance.t ->
  (t, Error.t) result
(** Build the index (sharded over [pool], default the shared
    {!Parallel.default} pool — engines never create pools of their
    own) and start at generation 0 ([?generation] overrides the start —
    recovery resumes the crashed engine's count; see
    [Durable.Recovery]). Without [?backend] the [IQ_BACKEND]
    environment selects one; [Error (Unknown_backend _)] when it names
    nothing. Without [?resilience], [IQ_FAULT]/[IQ_RETRIES] configure
    the policy; a malformed [IQ_FAULT] is [Error (Fault_spec _)]. The
    index build consults the [index.build] fault site (transient
    injections retry like a backend's). [prune] (default [true])
    evaluates through the reach band on the ESE hot path;
    [~prune:false] runs the paper's Algorithm 2 slab search instead —
    results are identical either way; see {!Ese.prepare}. *)

val of_index :
  ?backend:backend ->
  ?resilience:resilience ->
  ?prune:bool ->
  ?generation:int ->
  ?pool:Parallel.pool ->
  Query_index.t ->
  (t, Error.t) result
(** Adopt an already-built index (e.g. one loaded with
    {!Query_index.load}) as the root generation. *)

val create_exn :
  ?backend:backend ->
  ?resilience:resilience ->
  ?prune:bool ->
  ?depth_slack:int ->
  ?pool:Parallel.pool ->
  Instance.t ->
  t
(** {!create}, raising [Invalid_argument] on error — for programs whose
    only sensible reaction to a config error is to die (benchmarks,
    examples). *)

(** {2 Inspection} *)

val snapshot : t -> Snapshot.t
(** The currently published generation bundle. Reading it is one
    atomic load; holding it keeps that generation's state alive (and
    consistent) regardless of later mutations, but does {e not} count
    as a pinned session — see {!acquire_session}. *)

val instance : t -> Instance.t
(** The current snapshot's instance (follows mutations). *)

val index : t -> Query_index.t
(** The current snapshot's index, for diagnostics ([size_words],
    [build_seconds], …). *)

val pool : t -> Parallel.pool

val generation : t -> int
(** Bumped by every successful mutation. *)

val backend_name : t -> string

val dominance_stats : t -> (int * int) option
(** Always [None]: the engine builds no dominance-layer index (the
    reach band needs none). Kept for callers that still report a
    [(built_generation, layer_count)] pair. *)

type backend_stats = {
  b_name : string;
  b_attempts : int;  (** prepare attempts, including retries *)
  b_failures : int;  (** persistent injected failures *)
  b_retries : int;  (** transient-fault retries (prepare and eval) *)
  b_fallbacks : int;  (** times the chain moved past this backend *)
  b_circuit_open : bool;  (** currently skipped by the breaker *)
}
(** Per-backend health, reported for every chain link consulted at
    least once. *)

type stats = {
  generation : int;
  backend : string;
  prune : bool;  (** evaluation through the reach band ([create]'s [prune]) *)
  domains : int;  (** pool size *)
  n_objects : int;
  n_queries : int;
  n_groups : int;  (** index subdomain groups *)
  index_words : int;  (** approximate index footprint *)
  cached_targets : int;  (** targets with a prepared evaluator, ever *)
  stale_cached : int;  (** of those, last prepared at an older generation *)
  repreparations : int;  (** evaluators rebuilt after mutations *)
  evaluations : int;  (** candidate evaluations served, process total *)
  backends : backend_stats list;  (** in chain order *)
  deadline_trips : int;  (** searches ended by deadline/step budget *)
  cancellations : int;  (** searches ended by a cancelled token *)
  faults_injected : int;  (** total injections from the loaded schedule *)
  active_sessions : int;  (** sessions currently admitted *)
  queue_depth : int;  (** callers waiting for an admission slot *)
  admission_rejections : int;
      (** admission waits that tripped their budget *)
  pinned_snapshots : int;  (** distinct generations pinned by sessions *)
  oldest_pinned : int option;  (** oldest pinned generation, if any *)
  wal_bytes : int;
      (** durable-log bytes appended since the last checkpoint (0 when
          no journal is attached) *)
  last_checkpoint_generation : int option;
      (** generation of the most recent successful checkpoint, [None]
          before the first one *)
  replayed_records : int;
      (** log records replayed into this engine at recovery time (0
          for engines born fresh) *)
}
(** Every counter is readable concurrently with a writer: the scalars
    are [Atomic]s (or read under their own small lock) and the record
    is assembled from one published snapshot — no torn values. *)

val stats : t -> stats

(** {2 Evaluation}

    All reads below default to the current snapshot; [?snap] pins an
    explicit one (a session's, typically), whose cache they then use. *)

val evaluator : ?snap:Snapshot.t -> t -> target:int -> (Evaluator.t, Error.t) result
(** The snapshot's cached evaluator for a target — prepared on first
    use, re-prepared transparently on the first touch of a new
    generation. *)

val hits : ?snap:Snapshot.t -> t -> target:int -> (int, Error.t) result
(** [H(p_target)]: how many workload queries the target hits now. *)

val member : ?snap:Snapshot.t -> t -> target:int -> q:int -> (bool, Error.t) result
(** Whether [target] is in query [q]'s top-k. *)

val dirty_queries :
  ?snap:Snapshot.t -> t -> target:int -> s:Strategy.t -> (int list, Error.t) result
(** The queries whose membership the move [s] can affect — ESE's
    affected subdomains. Backends without ESE state conservatively
    report every query. *)

(** {2 Improvement queries}

    All four searches share the budget plumbing: an explicit [?budget]
    wins, else [?deadline_ms] starts a fresh deadline, else the
    [IQ_DEADLINE_MS] environment knob, else the request is unbounded.
    A tripped budget yields [Error (Deadline_exceeded _)] (wall-clock
    {e or} step budget) or [Error (Cancelled _)], each carrying the
    anytime {!partial}. With no budget and no fault schedule the
    results are byte-identical to an engine without resilience at any
    pool size. Each call runs against one snapshot ([?snap], default
    the current one at entry): a mutation landing mid-search never
    forces a re-prepare or mixes generations. *)

val min_cost :
  ?limits:Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  cost:Cost.t ->
  target:int ->
  tau:int ->
  (Min_cost.outcome, Error.t) result
(** Algorithm 3 through the cached evaluator and shared pool.
    [Error Infeasible] when [tau] hits are unreachable. The outcome's
    [evaluations] counts this call only (the cache accumulates across
    calls; the engine reports the delta). *)

val max_hit :
  ?limits:Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  cost:Cost.t ->
  target:int ->
  beta:float ->
  (Max_hit.outcome, Error.t) result
(** Algorithm 4. [Error (Budget_exhausted beta)] when [beta < 0]. *)

val min_cost_multi :
  ?limits:(int * Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  costs:(int * Cost.t) list ->
  tau:int ->
  (Combinatorial.outcome, Error.t) result
(** Section 5.1 multi-target Min-Cost. Cached ESE states are passed
    through, so repeated combinatorial queries over the same targets
    prepare each state once. The multi-target candidate scan runs on
    ESE states directly (not through a backend evaluator), so there is
    no per-eval failover here: an injected fault inside the scan
    surfaces as [Error (Internal _)]. *)

val max_hit_multi :
  ?limits:(int * Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  costs:(int * Cost.t) list ->
  beta:float ->
  (Combinatorial.outcome, Error.t) result

(** {2 Dataset maintenance — Section 4.3}

    Maintenance is copy-on-write: one writer at a time (they serialise
    on the engine's write lock) validates against the generation it
    extends, derives the next index through the functional
    [Query_index.with_*] paths, and publishes the successor snapshot
    atomically. Readers — including every pinned session — keep the
    generation they hold; nothing they can reach is modified. *)

val add_query : t -> Topk.Query.t -> (int, Error.t) result
(** Returns the new query's index. *)

val remove_query : t -> int -> (unit, Error.t) result
(** Later query indices shift down by one (in the new generation). *)

val add_object : t -> Vec.t -> (int, Error.t) result
(** Raw attributes; returns the new object's id. *)

val update_object : t -> int -> Vec.t -> (unit, Error.t) result
(** Replace object [id]'s raw attributes; its id is stable. *)

val remove_object : t -> int -> (unit, Error.t) result
(** Later object ids shift down by one (in the new generation). *)

(** {2 Durability — the write-ahead journal hook}

    The engine itself knows nothing about file formats; it exposes a
    {e journal}: a pair of callbacks invoked under the write lock. The
    [Durable] library supplies the standard implementation (CRC-framed
    write-ahead log + atomic checkpoints); [Durable.Store.attach] is
    the entry point application code should use. *)

(** A logical dataset mutation — exactly the information needed to
    re-execute one maintenance call. [Durable.Codec] serialises these;
    {!apply_mutation} replays them through the very same validated
    code paths the original call took. *)
type mutation =
  | M_add_object of Vec.t
  | M_update_object of { id : int; raw : Vec.t }
  | M_remove_object of int
  | M_add_query of Topk.Query.t
  | M_remove_query of int

type journal = {
  j_append : generation:int -> mutation -> int;
      (** persist one mutation, stamped with the generation it
          produces, {e before} the successor snapshot is published;
          returns the bytes written. Raising aborts the mutation —
          nothing is published, the caller sees the error — so an
          acknowledged mutation is always durable. *)
  j_checkpoint : Snapshot.t -> int;
      (** persist a full snapshot and truncate the log; returns the
          checkpoint's size in bytes. Called under the write lock. When
          an automatic ([j_every]) checkpoint raises, the mutation that
          triggered it still returns [Ok] (it is already logged and
          published); the failure is logged and the next mutation
          retries. *)
  j_every : int option;
      (** automatic checkpoint cadence in mutations, [None] for
          manual-only (the [IQ_CHECKPOINT_EVERY] knob, resolved by
          [Durable.Store]) *)
}

val attach_journal :
  ?replayed_records:int ->
  ?checkpoint_generation:int ->
  ?wal_bytes:int ->
  t ->
  journal ->
  unit
(** Start journaling every subsequent mutation. The optional carry-ins
    seed the durability counters in {!stats} when attaching over a
    recovered engine (records replayed, the generation of the
    checkpoint recovery started from, bytes already in the log
    tail). *)

val detach_journal : t -> unit
(** Stop journaling (already-written files are left alone). *)

val journaled : t -> bool

val checkpoint : t -> (unit, Error.t) result
(** Force a checkpoint now: persists the current snapshot through the
    journal and resets {!stats}'s [wal_bytes]. A no-op (and [Ok ()])
    without an attached journal. *)

val apply_mutation : t -> mutation -> (unit, Error.t) result
(** Re-execute a logical mutation through its maintenance entry point
    (replay). New ids are recomputed, not trusted from the record —
    determinism of the copy-on-write paths makes them land on the same
    values the original run produced. *)

(** {2 Serving sessions — admission control and snapshot pinning}

    The raw material of [Serve.Session]; application code should use
    that library rather than these directly. *)

val acquire_session :
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  t ->
  (Snapshot.t, Error.t) result
(** Admit a serving session and pin the current snapshot. At most
    [IQ_MAX_SESSIONS] sessions are active at once; beyond that the
    caller waits (polling, 1ms) until a slot frees or its budget
    trips — the trip is returned as [Deadline_exceeded]/[Cancelled]
    with no partial and counted as an admission rejection in
    {!stats}. Budget precedence matches the searches'. *)

val release_session : t -> Snapshot.t -> unit
(** Unpin a session's snapshot and free its admission slot. Call
    exactly once per successful {!acquire_session} (sessions do this
    in their [close]). *)

val repin : t -> Snapshot.t -> Snapshot.t
(** Exchange a session's pinned snapshot for the current one (the
    opt-in refresh): pins the new generation, unpins the old, keeps
    the admission slot. Returns the snapshot now pinned (the same one
    when no mutation has landed). *)
