open Geom

(* The anytime payload of a deadline/cancellation trip: the best
   strategies found in fully completed iterations. [hits] is the exact
   hit (or union-hit) count of those strategies — a degraded answer is
   under-achieved, never silently wrong. *)
type partial = {
  p_strategies : (int * Strategy.t) list;
  p_hits : int;
  p_total_cost : float;
  p_iterations : int;
  p_flag : [ `Degraded ];
}

module Error = struct
  type t =
    | Dim_mismatch of { expected : int; got : int }
    | Unknown_target of { id : int; n_objects : int }
    | Unknown_query of { q : int; n_queries : int }
    | Depth_exceeded of { k : int; depth : int }
    | Budget_exhausted of float
    | Infeasible
    | Unknown_backend of string
    | Empty_targets
    | Deadline_exceeded of { elapsed_ms : float; partial : partial option }
    | Cancelled of { partial : partial option }
    | Fault_spec of { spec : string; msg : string }
    | Wal_corrupt of { path : string; offset : int }
    | Not_checkpointable of string
    | Internal of string

  let partial_str = function
    | None -> "no partial result"
    | Some p ->
        Printf.sprintf "degraded partial: %d hits at cost %g after %d iterations"
          p.p_hits p.p_total_cost p.p_iterations

  let to_string = function
    | Dim_mismatch { expected; got } ->
        Printf.sprintf "dimension mismatch: expected %d, got %d" expected got
    | Unknown_target { id; n_objects } ->
        Printf.sprintf "unknown target %d (instance has %d objects)" id
          n_objects
    | Unknown_query { q; n_queries } ->
        Printf.sprintf "unknown query %d (workload has %d queries)" q
          n_queries
    | Depth_exceeded { k; depth } ->
        Printf.sprintf
          "query k=%d exceeds index depth %d (rebuild with depth_slack)" k
          depth
    | Budget_exhausted beta -> Printf.sprintf "budget %g is negative" beta
    | Infeasible -> "goal unreachable: no feasible strategy"
    | Unknown_backend name ->
        Printf.sprintf "unknown backend %S (expected ese, scan or rta)" name
    | Empty_targets -> "no targets given"
    | Deadline_exceeded { elapsed_ms; partial } ->
        Printf.sprintf "deadline exceeded after %.1f ms (%s)" elapsed_ms
          (partial_str partial)
    | Cancelled { partial } ->
        Printf.sprintf "cancelled (%s)" (partial_str partial)
    | Fault_spec { spec; msg } ->
        Printf.sprintf "bad IQ_FAULT spec %S: %s" spec msg
    | Wal_corrupt { path; offset } ->
        Printf.sprintf "corrupt durable log %s at byte %d" path offset
    | Not_checkpointable utility ->
        Printf.sprintf
          "utility %S is not linear: its feature map cannot be checkpointed"
          utility
    | Internal msg -> "internal error: " ^ msg
end

let ( let* ) = Result.bind

(* Last-resort boundary conversion. The inner layers guard their
   invariants with [invalid_arg]/[assert] and the pool re-raises
   worker exceptions; the serving boundary promises typed results, so
   anything that still escapes becomes [Error (Internal _)] here
   rather than a raw exception in the caller's lap. The handler is
   deliberately total — at a serving boundary even Out_of_memory is
   better reported than leaked. *)
let guard f =
  try f () with e -> Error (Error.Internal (Printexc.to_string e))

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

module Ese_backend = struct
  let name = "ese"

  let prepare ~layers ~index ~pool:_ ~target =
    let state = Ese.prepare ~prune:layers index ~target in
    (Evaluator.of_state index state, Some state)
end

module Scan_backend = struct
  let name = "scan"

  let prepare ~layers:_ ~index ~pool ~target =
    (Evaluator.naive ~pool (Query_index.instance index) ~target, None)
end

module Rta_backend = struct
  let name = "rta"

  let prepare ~layers:_ ~index ~pool ~target =
    (Evaluator.rta ~pool (Query_index.instance index) ~target, None)
end

let backend_of_name name =
  match String.lowercase_ascii (String.trim name) with
  | "ese" | "efficient" | "efficient-iq" -> Ok (module Ese_backend : BACKEND)
  | "scan" | "naive" -> Ok (module Scan_backend : BACKEND)
  | "rta" | "rta-iq" -> Ok (module Rta_backend : BACKEND)
  | other -> Error (Error.Unknown_backend other)

let default_backend () = backend_of_name (Workload.Config.backend ())

(* {2 Resilience configuration} *)

type resilience = {
  retries : int;
  backoff_ms : float;
  circuit_threshold : int;
  circuit_cooldown_ms : float;
  fault : Resilience.Fault.t option;
}

let default_resilience () =
  {
    retries = Workload.Config.retries ();
    backoff_ms = 1.;
    circuit_threshold = 3;
    circuit_cooldown_ms = 100.;
    fault = None;
  }

(* {2 Durability hooks} *)

(* The plain-data description of one successful mutation, exactly as
   submitted (queries pre-normalization): what the durable layer
   journals and what replay feeds back through {!apply_mutation}, so a
   recovered engine runs the very same code paths the original did. *)
type mutation =
  | M_add_object of Vec.t
  | M_update_object of { id : int; raw : Vec.t }
  | M_remove_object of int
  | M_add_query of Topk.Query.t
  | M_remove_query of int

(* The durable backend as the engine sees it: callbacks invoked under
   the writer lock. [j_append] persists one mutation record before the
   successor snapshot publishes (a raise aborts the mutation, so no
   acknowledged mutation can be lost); [j_checkpoint] persists a whole
   snapshot and truncates the log. The engine stays file-format
   agnostic — [Durable.Store] owns the bytes. *)
type journal = {
  j_append : generation:int -> mutation -> int;
  j_checkpoint : Snapshot.t -> int;
  j_every : int option;
}

(* The degradation order: every engine falls back ese -> rta -> scan
   from its primary onwards (a custom primary falls back to the full
   built-in chain). The last link is the ground-truth scan — slowest,
   least machinery, most likely to survive. *)
let builtin_chain = [ (module Ese_backend : BACKEND); (module Rta_backend); (module Scan_backend) ]

let chain_of (module B : BACKEND) =
  let rec after = function
    | [] -> []
    | (module C : BACKEND) :: rest ->
        if String.equal C.name B.name then rest else after rest
  in
  let is_builtin =
    List.exists (fun (module C : BACKEND) -> String.equal C.name B.name) builtin_chain
  in
  let tail = if is_builtin then after builtin_chain else builtin_chain in
  Array.of_list ((module B : BACKEND) :: tail)

(* Per-backend health accounting. Every field is an [Atomic] so the
   counters can be bumped from any reader domain (prepares now run
   under per-snapshot locks, not one engine lock) and read by [stats]
   concurrently with a writer — no torn reads, no lock. The records
   themselves are pre-created per chain link at engine construction,
   so the table is never mutated after creation. [bs_open_until_ms]
   is the circuit breaker: non-zero while the backend is skipped
   outright; after the cooldown the next prepare half-opens it (one
   trial attempt; failure re-opens, success closes). *)
type bstat = {
  bs_attempts : int Atomic.t;
  bs_failures : int Atomic.t;
  bs_retries : int Atomic.t;
  bs_fallbacks : int Atomic.t;
  bs_consecutive : int Atomic.t;
  bs_open_until_ms : float Atomic.t;
}

let fresh_bstat () =
  {
    bs_attempts = Atomic.make 0;
    bs_failures = Atomic.make 0;
    bs_retries = Atomic.make 0;
    bs_fallbacks = Atomic.make 0;
    bs_consecutive = Atomic.make 0;
    bs_open_until_ms = Atomic.make 0.;
  }

(* The MVCC core. [current] is the published snapshot: readers
   [Atomic.get] it (acquire) and then work against that immutable
   bundle for the whole call; the writer path builds the successor
   through the functional [Query_index.with_*] updates under [wlock]
   and [Atomic.set]s it (release). Nothing a reader touches is ever
   patched in place, so a pinned snapshot stays valid forever.

   [slock] protects the small cross-generation tables: [seen] (which
   targets were prepared at which generation — the bridge that keeps
   the pre-MVCC [cached_targets]/[stale_cached]/[repreparations]
   stats semantics) and [pins] (generation -> live session pin
   count). Lock order is snapshot-lock -> slock; [wlock] never nests
   inside either. *)
type t = {
  pool : Parallel.pool;
  backend : backend;
  chain : backend array;
  res : resilience;
  prune : bool;
  current : Snapshot.t Atomic.t;
  wlock : Mutex.t;
  slock : Mutex.t;
  seen : (int, int) Hashtbl.t;
  pins : (int, int) Hashtbl.t;
  bstats : (string, bstat) Hashtbl.t;
  repreps : int Atomic.t;
  retired_evals : int Atomic.t;
      (* evaluation counts of retired snapshots and replaced cache
         entries, so [stats] stays monotonic across generations *)
  deadline_trips : int Atomic.t;
  cancellations : int Atomic.t;
  (* admission control for serving sessions *)
  alock : Mutex.t;
  mutable adm_active : int;
  mutable adm_waiting : int;
  adm_max : int;
  rejections : int Atomic.t;
  (* durability: the attached journal plus its accounting. [journal]
     is written once at attach time and read under [wlock] on the
     mutation path; the counters are Atomics so [stats] can read them
     from any domain. [wal_bytes] counts log bytes since the last
     checkpoint (the log is truncated there); [last_ckpt] is -1 until
     a checkpoint exists. *)
  journal : journal option Atomic.t;
  wal_bytes : int Atomic.t;
  last_ckpt : int Atomic.t;
  replayed : int Atomic.t;
  muts_since_ckpt : int Atomic.t;
}

let with_mutex m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let resolve_backend = function Some b -> Ok b | None -> default_backend ()

(* Without an explicit config the environment decides: IQ_RETRIES for
   the retry count and IQ_FAULT for an injection schedule. A malformed
   spec is a typed error — silently running without the faults a chaos
   run asked for would invalidate the run. *)
let resolve_resilience = function
  | Some r -> Ok r
  | None -> (
      match Resilience.Fault.of_env () with
      | Ok fault -> Ok { (default_resilience ()) with fault }
      | Error msg -> (
          match Workload.Config.fault () with
          | Some spec -> Error (Error.Fault_spec { spec; msg })
          | None -> Error (Error.Fault_spec { spec = ""; msg })))

(* The per-link table is fixed at creation with an entry for every
   chain link, so this lookup is a read of an immutable Hashtbl and
   safe from any domain; the [None] arm is unreachable by construction
   and yields a throwaway record rather than a raise. *)
let bstat t name =
  match Hashtbl.find_opt t.bstats name with
  | Some st -> st
  | None -> fresh_bstat ()

let of_index ?backend ?resilience ?prune ?generation ?pool index =
  guard @@ fun () ->
  let* b = resolve_backend backend in
  let* res = resolve_resilience resilience in
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let prune = Option.value prune ~default:true in
  let chain = chain_of b in
  let bstats = Hashtbl.create 4 in
  Array.iter
    (fun (module B : BACKEND) ->
      if not (Hashtbl.mem bstats B.name) then
        Hashtbl.add bstats B.name (fresh_bstat ()))
    chain;
  Ok
    {
      pool;
      backend = b;
      chain;
      res;
      prune;
      current = Atomic.make (Snapshot.root ?generation index);
      wlock = Mutex.create ();
      slock = Mutex.create ();
      seen = Hashtbl.create 16;
      pins = Hashtbl.create 8;
      bstats;
      repreps = Atomic.make 0;
      retired_evals = Atomic.make 0;
      deadline_trips = Atomic.make 0;
      cancellations = Atomic.make 0;
      alock = Mutex.create ();
      adm_active = 0;
      adm_waiting = 0;
      adm_max = Workload.Config.max_sessions ();
      rejections = Atomic.make 0;
      journal = Atomic.make None;
      wal_bytes = Atomic.make 0;
      last_ckpt = Atomic.make (-1);
      replayed = Atomic.make 0;
      muts_since_ckpt = Atomic.make 0;
    }

let create ?backend ?resilience ?prune ?generation ?depth_slack ?pool
    inst =
  guard @@ fun () ->
  let* b = resolve_backend backend in
  let* res = resolve_resilience resilience in
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  (* The index build consults its own fault site; transient injections
     are retried like a backend's, anything else escapes to [guard]. *)
  let rec build tries =
    match
      Resilience.Fault.point res.fault ~site:"index.build";
      Query_index.build ?depth_slack ~pool inst
    with
    | index -> index
    | exception e when Resilience.Fault.transient_exn e && tries > 0 ->
        build (tries - 1)
  in
  let index = build res.retries in
  of_index ~backend:b ~resilience:res ?prune ?generation ~pool index

let create_exn ?backend ?resilience ?prune ?depth_slack ?pool inst =
  match create ?backend ?resilience ?prune ?depth_slack ?pool inst with
  | Ok t -> t
  | Error e -> invalid_arg ("Engine.create: " ^ Error.to_string e)

let snapshot t = Atomic.get t.current

let resolve_snap t = function Some s -> s | None -> snapshot t

let instance t = Snapshot.instance (snapshot t)

let index t = Snapshot.index (snapshot t)

let pool t = t.pool

let generation t = Snapshot.generation (snapshot t)

let backend_name t =
  let (module B : BACKEND) = t.backend in
  B.name

let dominance_stats _ = None

(* {2 Validation} *)

let check_target_in snap id =
  let n = Instance.n_objects (Snapshot.instance snap) in
  if id < 0 || id >= n then Error (Error.Unknown_target { id; n_objects = n })
  else Ok ()

let check_query_in snap q =
  let m = Instance.n_queries (Snapshot.instance snap) in
  if q < 0 || q >= m then Error (Error.Unknown_query { q; n_queries = m })
  else Ok ()

let check_dim ~expected ~got =
  if expected <> got then Error (Error.Dim_mismatch { expected; got })
  else Ok ()

(* {2 Evaluator cache and failover} *)

let sleep_ms ms = if ms > 0. then Unix.sleepf (ms /. 1000.)

(* Instrument an evaluator's hit_count with the backend's eval fault
   site. Only when a schedule is loaded — the clean path keeps the
   original closure untouched. *)
let wrap_eval t bname (eval : Evaluator.t) =
  match t.res.fault with
  | None -> eval
  | Some _ ->
      let site = "backend." ^ bname ^ ".eval" in
      {
        eval with
        Evaluator.hit_count =
          (fun s ->
            Resilience.Fault.point t.res.fault ~site;
            eval.Evaluator.hit_count s);
      }

(* Prepare [target] against [snap] starting at chain link [from_pos];
   the snapshot's cache lock is held. Circuit-open backends are
   skipped outright; an injected transient retries the same backend
   with doubling backoff; a persistent injection marks the failure and
   falls through to the next link. Only {!Resilience.Fault.Injected}
   drives failover — any other exception is a genuine bug and
   propagates to [guard]. *)
let prepare_in t snap ~target ~from_pos =
  let n = Array.length t.chain in
  let rec try_pos pos last =
    if pos >= n then
      match last with
      | Some e -> raise e
      | None ->
          (* Every link from [from_pos] on was skipped: the chain always
             holds the built-in backends, so all their circuits are
             open. *)
          failwith "Engine: every backend circuit is open"
    else
      let (module B : BACKEND) = t.chain.(pos) in
      let st = bstat t B.name in
      if Atomic.get st.bs_open_until_ms > Resilience.now_ms () then begin
        Atomic.incr st.bs_fallbacks;
        try_pos (pos + 1) last
      end
      else
        let site = "backend." ^ B.name ^ ".prepare" in
        let rec attempt tries_left =
          Atomic.incr st.bs_attempts;
          match
            Resilience.Fault.point t.res.fault ~site;
            B.prepare ~layers:t.prune
              ~index:(Snapshot.index snap) ~pool:t.pool ~target
          with
          | eval, state ->
              Atomic.set st.bs_consecutive 0;
              Atomic.set st.bs_open_until_ms 0.;
              (pos, B.name, eval, state)
          | exception Resilience.Fault.Injected { transient = true; _ }
            when tries_left > 0 ->
              Atomic.incr st.bs_retries;
              sleep_ms
                (t.res.backoff_ms
                *. (2. ** float_of_int (t.res.retries - tries_left)));
              attempt (tries_left - 1)
          | exception (Resilience.Fault.Injected _ as e) ->
              Atomic.incr st.bs_failures;
              Atomic.incr st.bs_consecutive;
              if Atomic.get st.bs_consecutive >= t.res.circuit_threshold then
                Atomic.set st.bs_open_until_ms
                  (Resilience.now_ms () +. t.res.circuit_cooldown_ms);
              Atomic.incr st.bs_fallbacks;
              try_pos (pos + 1) (Some e)
        in
        attempt t.res.retries
  in
  let pos, bname, eval, state = try_pos from_pos None in
  let e =
    {
      Snapshot.e_eval = wrap_eval t bname eval;
      e_state = state;
      e_pos = pos;
      e_bname = bname;
    }
  in
  (* A same-snapshot replacement (failover past a poisoned entry)
     retires the old entry's evaluation count so [stats] stays
     monotonic. Entries of retired snapshots were already folded in
     when the writer published their successor. *)
  (match Snapshot.find_entry snap target with
  | Some old when snap == Atomic.get t.current ->
      ignore
        (Atomic.fetch_and_add t.retired_evals
           (old.Snapshot.e_eval.Evaluator.evaluations ()))
  | Some _ | None -> ());
  Snapshot.set_entry snap target e;
  let gen = Snapshot.generation snap in
  with_mutex t.slock (fun () ->
      (match Hashtbl.find_opt t.seen target with
      | Some g when g <> gen ->
          (* Transparent re-preparation: a mutation moved the engine
             past this target's last evaluator. *)
          Atomic.incr t.repreps
      | Some _ | None -> ());
      Hashtbl.replace t.seen target gen);
  e

(* Cache lookup honouring a minimum chain position: a search that just
   watched chain link [e_pos] fail asks for [min_pos = e_pos + 1] so
   the retry skips the poisoned entry. Generation staleness needs no
   check here — an entry lives in exactly one snapshot. *)
let entry_in t snap ~target ~min_pos =
  match Snapshot.find_entry snap target with
  | Some e when e.Snapshot.e_pos >= min_pos -> e
  | Some _ | None -> prepare_in t snap ~target ~from_pos:min_pos

let entry ?snap t ~target =
  let snap = resolve_snap t snap in
  Snapshot.locked snap (fun () -> entry_in t snap ~target ~min_pos:0)

(* Run [f] over the target's cached entry, treating injected eval
   faults like prepare faults: transients retry the same backend with
   backoff; persistent injections advance down the chain (the cache
   entry is replaced, so later calls start from the healthy backend).
   Each retry restarts [f] from scratch — searches are pure over the
   evaluator, so the restart is safe, merely slower. The whole call
   runs against one snapshot: a mutation landing mid-search never
   forces a re-prepare. *)
let with_failover ?snap t ~target f =
  let snap = resolve_snap t snap in
  let n = Array.length t.chain in
  let rec go ~min_pos tries_left =
    let e = Snapshot.locked snap (fun () -> entry_in t snap ~target ~min_pos) in
    match f e with
    | r -> r
    | exception Resilience.Fault.Injected { transient = true; _ }
      when tries_left > 0 ->
        Atomic.incr (bstat t e.Snapshot.e_bname).bs_retries;
        sleep_ms
          (t.res.backoff_ms *. (2. ** float_of_int (t.res.retries - tries_left)));
        go ~min_pos (tries_left - 1)
    | exception (Resilience.Fault.Injected _ as ex) ->
        let st = bstat t e.Snapshot.e_bname in
        Atomic.incr st.bs_failures;
        Atomic.incr st.bs_consecutive;
        if Atomic.get st.bs_consecutive >= t.res.circuit_threshold then
          Atomic.set st.bs_open_until_ms
            (Resilience.now_ms () +. t.res.circuit_cooldown_ms);
        Atomic.incr st.bs_fallbacks;
        if e.Snapshot.e_pos + 1 >= n then raise ex
        else go ~min_pos:(e.Snapshot.e_pos + 1) t.res.retries
  in
  go ~min_pos:0 t.res.retries

let evaluator ?snap t ~target =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  Ok (entry ~snap t ~target).Snapshot.e_eval

let hits ?snap t ~target =
  let* ev = evaluator ?snap t ~target in
  Ok ev.Evaluator.base_hits

let member ?snap t ~target ~q =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  let* () = check_query_in snap q in
  let e = entry ~snap t ~target in
  match e.Snapshot.e_state with
  | Some state -> Ok (Ese.member state ~q)
  | None ->
      Ok
        (e.Snapshot.e_eval.Evaluator.member ~q
           (Strategy.zero (Instance.dim (Snapshot.instance snap))))

let dirty_queries ?snap t ~target ~s =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  let* () =
    check_dim ~expected:(Instance.dim (Snapshot.instance snap)) ~got:(Vec.dim s)
  in
  match (entry ~snap t ~target).Snapshot.e_state with
  | Some state -> Ok (Ese.dirty_queries state ~s)
  | None -> Ok (List.init (Instance.n_queries (Snapshot.instance snap)) Fun.id)

(* {2 Improvement queries} *)

(* Budget precedence: an explicit budget wins, then an explicit
   deadline argument, then the IQ_DEADLINE_MS environment knob, then
   the shared unlimited budget (whose checks are a few atomic reads —
   the clean path stays clean). *)
let resolve_budget ?deadline_ms ?budget () =
  match budget with
  | Some b -> b
  | None -> (
      let dl =
        match deadline_ms with
        | Some _ -> deadline_ms
        | None -> Workload.Config.deadline_ms ()
      in
      match dl with
      | Some ms -> Resilience.Budget.create ~deadline_ms:ms ()
      | None -> Resilience.Budget.unlimited)

(* A search outcome as an engine result: [Ok o] when complete; when
   degraded, the typed anytime error carrying the partial answer,
   bumping the engine's trip counters. A [Steps] trip is reported as
   [Deadline_exceeded] too — both mean "the request's budget ran out";
   the elapsed time is measured from the budget either way. *)
let settle t budget (status : Candidates.status) ~strategies ~hits ~total_cost
    ~iterations o =
  match status with
  | `Complete -> Ok o
  | `Degraded trip -> (
      let partial =
        Some
          {
            p_strategies = strategies;
            p_hits = hits;
            p_total_cost = total_cost;
            p_iterations = iterations;
            p_flag = `Degraded;
          }
      in
      match trip with
      | Resilience.Budget.Cancelled ->
          Atomic.incr t.cancellations;
          Error (Error.Cancelled { partial })
      | Resilience.Budget.Deadline { elapsed_ms } ->
          Atomic.incr t.deadline_trips;
          Error (Error.Deadline_exceeded { elapsed_ms; partial })
      | Resilience.Budget.Steps _ ->
          Atomic.incr t.deadline_trips;
          Error
            (Error.Deadline_exceeded
               { elapsed_ms = Resilience.Budget.elapsed_ms budget; partial }))

let min_cost ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget ?snap
    t ~cost ~target ~tau =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_target_in snap target in
  let* () =
    check_dim ~expected:(Instance.dim (Snapshot.instance snap))
      ~got:cost.Cost.dim
  in
  let budget = resolve_budget ?deadline_ms ?budget () in
  with_failover ~snap t ~target (fun e ->
      let before = e.Snapshot.e_eval.Evaluator.evaluations () in
      match
        Min_cost.search ?limits ?max_iterations ?candidate_cap ~pool:t.pool
          ~budget ?fault:t.res.fault ~evaluator:e.Snapshot.e_eval ~cost ~target
          ~tau ()
      with
      | None -> Error Error.Infeasible
      | Some o -> (
          (* The cached evaluator accumulates across calls; report only
             this call's work, as a fresh evaluator would. *)
          let o =
            { o with Min_cost.evaluations = o.Min_cost.evaluations - before }
          in
          settle t budget o.Min_cost.status
            ~strategies:[ (target, o.Min_cost.strategy) ]
            ~hits:o.Min_cost.hits_after ~total_cost:o.Min_cost.total_cost
            ~iterations:o.Min_cost.iterations o))

let max_hit ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget ?snap t
    ~cost ~target ~beta =
  guard @@ fun () ->
  if beta < 0. then Error (Error.Budget_exhausted beta)
  else
    let snap = resolve_snap t snap in
    let* () = check_target_in snap target in
    let* () =
      check_dim ~expected:(Instance.dim (Snapshot.instance snap))
        ~got:cost.Cost.dim
    in
    let budget = resolve_budget ?deadline_ms ?budget () in
    with_failover ~snap t ~target (fun e ->
        let before = e.Snapshot.e_eval.Evaluator.evaluations () in
        let o =
          Max_hit.search ?limits ?max_iterations ?candidate_cap ~pool:t.pool
            ~budget ?fault:t.res.fault ~evaluator:e.Snapshot.e_eval ~cost
            ~target ~beta ()
        in
        let o =
          { o with Max_hit.evaluations = o.Max_hit.evaluations - before }
        in
        settle t budget o.Max_hit.status
          ~strategies:[ (target, o.Max_hit.strategy) ]
          ~hits:o.Max_hit.hits_after ~total_cost:o.Max_hit.total_cost
          ~iterations:o.Max_hit.iterations o)

let check_costs snap costs =
  if costs = [] then Error Error.Empty_targets
  else
    let d = Instance.dim (Snapshot.instance snap) in
    List.fold_left
      (fun acc (target, cost) ->
        let* () = acc in
        let* () = check_target_in snap target in
        check_dim ~expected:d ~got:cost.Cost.dim)
      (Ok ()) costs

let cached_states t snap costs =
  List.filter_map
    (fun (target, _) ->
      match (entry ~snap t ~target).Snapshot.e_state with
      | Some state -> Some (target, state)
      | None -> None)
    costs

let settle_multi t budget o =
  settle t budget o.Combinatorial.status ~strategies:o.Combinatorial.strategies
    ~hits:o.Combinatorial.union_hits_after
    ~total_cost:o.Combinatorial.total_cost
    ~iterations:o.Combinatorial.iterations o

(* The multi-target searches thread budget and faults through
   {!Combinatorial} but have no per-eval failover: their candidate
   scan runs on ESE states directly, not through a backend evaluator,
   so an injected fault there surfaces via [guard] as [Internal]. *)
let min_cost_multi ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget
    ?snap t ~costs ~tau =
  guard @@ fun () ->
  let snap = resolve_snap t snap in
  let* () = check_costs snap costs in
  let budget = resolve_budget ?deadline_ms ?budget () in
  let states = cached_states t snap costs in
  match
    Combinatorial.min_cost ?limits ?max_iterations ?candidate_cap ~states
      ~budget ?fault:t.res.fault ~index:(Snapshot.index snap) ~costs ~tau ()
  with
  | None -> Error Error.Infeasible
  | Some o -> settle_multi t budget o

let max_hit_multi ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget
    ?snap t ~costs ~beta =
  guard @@ fun () ->
  if beta < 0. then Error (Error.Budget_exhausted beta)
  else
    let snap = resolve_snap t snap in
    let* () = check_costs snap costs in
    let budget = resolve_budget ?deadline_ms ?budget () in
    let states = cached_states t snap costs in
    let o =
      Combinatorial.max_hit ?limits ?max_iterations ?candidate_cap ~states
        ~budget ?fault:t.res.fault ~index:(Snapshot.index snap) ~costs ~beta ()
    in
    settle_multi t budget o

(* {2 Dataset maintenance} *)

(* Persist a checkpoint of [snap] through the journal and reset the
   log accounting. Called under [wlock] only; a raise inside
   [j_checkpoint] (injected fault, full disk) leaves the counters
   untouched — the log still covers everything since the last
   successful checkpoint, so recovery is unaffected. *)
let checkpoint_locked t j snap =
  let _bytes : int = j.j_checkpoint snap in
  Atomic.set t.last_ckpt (Snapshot.generation snap);
  Atomic.set t.wal_bytes 0;
  Atomic.set t.muts_since_ckpt 0

(* The single writer path. Under [wlock]: validate against the
   snapshot that will actually be mutated, build the successor index
   through the functional [Query_index.with_*] updates (the published
   snapshot is never touched), journal the mutation (write-ahead: a
   journal failure aborts before anything becomes visible), fold the
   outgoing generation's evaluation counts into the retired total,
   and publish. [Atomic.set] gives release
   semantics: a reader that acquires the new snapshot sees every write
   that built it. After publishing, a due automatic checkpoint
   ([j_every]) runs while the lock is still held; its failure is
   logged, never returned. *)
let mutate t ~m validate f =
  with_mutex t.wlock (fun () ->
      let snap = Atomic.get t.current in
      let* () = validate snap in
      let index', r = f (Snapshot.index snap) in
      let snap' = Snapshot.next snap index' in
      (match Atomic.get t.journal with
      | None -> ()
      | Some j ->
          let bytes =
            j.j_append ~generation:(Snapshot.generation snap') m
          in
          ignore (Atomic.fetch_and_add t.wal_bytes bytes));
      let outgoing = Snapshot.eval_total snap in
      if outgoing > 0 then
        ignore (Atomic.fetch_and_add t.retired_evals outgoing);
      Atomic.set t.current snap';
      (match Atomic.get t.journal with
      | None -> ()
      | Some j -> (
          match j.j_every with
          | Some every
            when 1 + Atomic.fetch_and_add t.muts_since_ckpt 1 >= every -> (
              (* The mutation is already logged and published, so a
                 failed checkpoint must not report it as failed: a
                 caller retrying it would apply it twice. The counters
                 stay put and the next mutation tries again. *)
              try checkpoint_locked t j snap'
              with e ->
                Log.warn (fun m ->
                    m "auto-checkpoint at generation %d failed: %s"
                      (Snapshot.generation snap') (Printexc.to_string e)))
          | Some _ | None -> ()));
      Ok r)

let add_query t q =
  guard @@ fun () ->
  mutate t ~m:(M_add_query q)
    (fun snap ->
      let* () =
        check_dim
          ~expected:(Instance.dim (Snapshot.instance snap))
          ~got:(Vec.dim q.Topk.Query.weights)
      in
      let depth = Query_index.depth (Snapshot.index snap) in
      if q.Topk.Query.k + 1 > depth then
        Error (Error.Depth_exceeded { k = q.Topk.Query.k; depth })
      else Ok ())
    (fun idx -> Query_index.with_query_added idx q)

let remove_query t q =
  guard @@ fun () ->
  mutate t ~m:(M_remove_query q)
    (fun snap -> check_query_in snap q)
    (fun idx -> (Query_index.with_query_removed idx q, ()))

let add_object t raw =
  guard @@ fun () ->
  mutate t ~m:(M_add_object raw)
    (fun snap ->
      check_dim
        ~expected:(Instance.dim_raw (Snapshot.instance snap))
        ~got:(Vec.dim raw))
    (fun idx -> Query_index.with_object_added idx raw)

let update_object t id raw =
  guard @@ fun () ->
  mutate t ~m:(M_update_object { id; raw })
    (fun snap ->
      let* () = check_target_in snap id in
      check_dim
        ~expected:(Instance.dim_raw (Snapshot.instance snap))
        ~got:(Vec.dim raw))
    (fun idx -> (Query_index.with_object_updated idx id raw, ()))

let remove_object t id =
  guard @@ fun () ->
  mutate t ~m:(M_remove_object id)
    (fun snap -> check_target_in snap id)
    (fun idx -> (Query_index.with_object_removed idx id, ()))

(* {2 Durability API} *)

let attach_journal ?(replayed_records = 0) ?checkpoint_generation
    ?(wal_bytes = 0) t j =
  Atomic.set t.replayed replayed_records;
  (match checkpoint_generation with
  | Some g -> Atomic.set t.last_ckpt g
  | None -> ());
  Atomic.set t.wal_bytes wal_bytes;
  Atomic.set t.muts_since_ckpt 0;
  Atomic.set t.journal (Some j)

let detach_journal t = Atomic.set t.journal None

let journaled t = Atomic.get t.journal <> None

let checkpoint t =
  guard @@ fun () ->
  with_mutex t.wlock (fun () ->
      match Atomic.get t.journal with
      | None -> Ok ()
      | Some j ->
          checkpoint_locked t j (Atomic.get t.current);
          Ok ())

let apply_mutation t m =
  match m with
  | M_add_object raw -> Result.map (fun (_ : int) -> ()) (add_object t raw)
  | M_update_object { id; raw } -> update_object t id raw
  | M_remove_object id -> remove_object t id
  | M_add_query q -> Result.map (fun (_ : int) -> ()) (add_query t q)
  | M_remove_query q -> remove_query t q

(* {2 Serving sessions: admission and snapshot pinning} *)

let pin t snap =
  let g = Snapshot.generation snap in
  with_mutex t.slock (fun () ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.pins g) in
      Hashtbl.replace t.pins g (n + 1))

let unpin t snap =
  let g = Snapshot.generation snap in
  with_mutex t.slock (fun () ->
      match Hashtbl.find_opt t.pins g with
      | Some n when n <= 1 -> Hashtbl.remove t.pins g
      | Some n -> Hashtbl.replace t.pins g (n - 1)
      | None -> ())

(* Wait for an admission slot. OCaml's stdlib [Condition] has no timed
   wait, so a full queue polls: each miss checks the caller's budget
   (deadline/cancellation) and sleeps 1ms. A tripped budget while
   queued is an admission rejection — typed like any other deadline. *)
let acquire_slot t ~budget =
  let registered = ref false in
  let enter () =
    with_mutex t.alock (fun () ->
        if t.adm_active < t.adm_max then begin
          t.adm_active <- t.adm_active + 1;
          if !registered then t.adm_waiting <- t.adm_waiting - 1;
          true
        end
        else begin
          if not !registered then begin
            registered := true;
            t.adm_waiting <- t.adm_waiting + 1
          end;
          false
        end)
  in
  let give_up () =
    with_mutex t.alock (fun () ->
        if !registered then t.adm_waiting <- t.adm_waiting - 1)
  in
  let rec loop () =
    if enter () then Ok ()
    else
      match Resilience.Budget.check budget with
      | Some trip -> (
          give_up ();
          Atomic.incr t.rejections;
          match trip with
          | Resilience.Budget.Cancelled ->
              Error (Error.Cancelled { partial = None })
          | Resilience.Budget.Deadline { elapsed_ms } ->
              Error (Error.Deadline_exceeded { elapsed_ms; partial = None })
          | Resilience.Budget.Steps _ ->
              Error
                (Error.Deadline_exceeded
                   {
                     elapsed_ms = Resilience.Budget.elapsed_ms budget;
                     partial = None;
                   }))
      | None ->
          Unix.sleepf 0.001;
          loop ()
  in
  loop ()

let release_slot t =
  with_mutex t.alock (fun () -> t.adm_active <- Int.max 0 (t.adm_active - 1))

let acquire_session ?deadline_ms ?budget t =
  guard @@ fun () ->
  let budget = resolve_budget ?deadline_ms ?budget () in
  let* () = acquire_slot t ~budget in
  let snap = snapshot t in
  pin t snap;
  Ok snap

let release_session t snap =
  unpin t snap;
  release_slot t

let repin t snap =
  let snap' = snapshot t in
  if snap' != snap then begin
    pin t snap';
    unpin t snap
  end;
  snap'

(* {2 Stats} *)

type backend_stats = {
  b_name : string;
  b_attempts : int;
  b_failures : int;
  b_retries : int;
  b_fallbacks : int;
  b_circuit_open : bool;
}

type stats = {
  generation : int;
  backend : string;
  prune : bool;
  domains : int;
  n_objects : int;
  n_queries : int;
  n_groups : int;
  index_words : int;
  cached_targets : int;
  stale_cached : int;
  repreparations : int;
  evaluations : int;
  backends : backend_stats list;
  deadline_trips : int;
  cancellations : int;
  faults_injected : int;
  active_sessions : int;
  queue_depth : int;
  admission_rejections : int;
  pinned_snapshots : int;
  oldest_pinned : int option;
  wal_bytes : int;
  last_checkpoint_generation : int option;
  replayed_records : int;
}

let stats t =
  let snap = snapshot t in
  let gen = Snapshot.generation snap in
  let inst = Snapshot.instance snap in
  let cached, stale, pinned, oldest =
    with_mutex t.slock (fun () ->
        let cached, stale =
          Hashtbl.fold
            (fun _ g (c, s) -> (c + 1, if g <> gen then s + 1 else s))
            t.seen (0, 0)
        in
        let pinned = Hashtbl.length t.pins in
        let oldest =
          Hashtbl.fold
            (fun g _ acc ->
              match acc with Some o when o <= g -> acc | _ -> Some g)
            t.pins None
        in
        (cached, stale, pinned, oldest))
  in
  let live_evals = Snapshot.eval_total snap in
  let active, waiting =
    with_mutex t.alock (fun () -> (t.adm_active, t.adm_waiting))
  in
  let backends =
    Array.to_list t.chain
    |> List.filter_map (fun (module B : BACKEND) ->
           let st = bstat t B.name in
           if Atomic.get st.bs_attempts = 0 && Atomic.get st.bs_fallbacks = 0
           then None
           else
             Some
               {
                 b_name = B.name;
                 b_attempts = Atomic.get st.bs_attempts;
                 b_failures = Atomic.get st.bs_failures;
                 b_retries = Atomic.get st.bs_retries;
                 b_fallbacks = Atomic.get st.bs_fallbacks;
                 b_circuit_open =
                   Atomic.get st.bs_open_until_ms > Resilience.now_ms ();
               })
  in
  {
    generation = gen;
    backend = backend_name t;
    prune = t.prune;
    domains = Parallel.domains t.pool;
    n_objects = Instance.n_objects inst;
    n_queries = Instance.n_queries inst;
    n_groups = Query_index.n_groups (Snapshot.index snap);
    index_words = Query_index.size_words (Snapshot.index snap);
    cached_targets = cached;
    stale_cached = stale;
    repreparations = Atomic.get t.repreps;
    evaluations = Atomic.get t.retired_evals + live_evals;
    backends;
    deadline_trips = Atomic.get t.deadline_trips;
    cancellations = Atomic.get t.cancellations;
    faults_injected =
      (match t.res.fault with
      | None -> 0
      | Some f -> Resilience.Fault.injections f);
    active_sessions = active;
    queue_depth = waiting;
    admission_rejections = Atomic.get t.rejections;
    pinned_snapshots = pinned;
    oldest_pinned = oldest;
    wal_bytes = Atomic.get t.wal_bytes;
    last_checkpoint_generation =
      (let g = Atomic.get t.last_ckpt in
       if g < 0 then None else Some g);
    replayed_records = Atomic.get t.replayed;
  }
