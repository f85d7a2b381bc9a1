(* The resilience layer and its integration with Iq.Engine: budget
   trip semantics, deterministic fault schedules, backend failover /
   retry / circuit breaking, the anytime (degraded-partial) contract,
   and the promise that no raw exception crosses the serving boundary
   no matter what the fault schedule does. *)

open Iq
module Budget = Resilience.Budget
module Fault = Resilience.Fault
module Session = Serve.Session

let pool1 = Parallel.create ~domains:1 ()

let make_instance ?(seed = 77) ?(n = 80) ?(m = 40) ?(d = 3) () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5) ~m
      ~d ()
  in
  Instance.create ~data ~queries ()

let ok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "unexpected engine error: %s" (Engine.Error.to_string e)

let sok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "unexpected session error: %s" (Session.Error.to_string e)

let row st =
  match sok (Session.step st) with
  | `Row h -> h
  | `Done -> Alcotest.fail "expected a row"

(* All chaos engines run on the sequential pool: fault-site consult
   counts are then independent of scheduling, so the same seed gives
   the same injections and the same outcomes, run after run. *)
let engine ?resilience ?(pool = pool1) inst =
  ok (Engine.create ?resilience ~pool inst)

let chaos ?(retries = 0) ?(threshold = 3) ?(cooldown = 1e9) fault =
  {
    Engine.retries;
    backoff_ms = 0.;
    circuit_threshold = threshold;
    circuit_cooldown_ms = cooldown;
    fault = Some fault;
  }

let bstat stats name =
  match
    List.find_opt (fun b -> b.Engine.b_name = name) stats.Engine.backends
  with
  | Some b -> b
  | None -> Alcotest.failf "no stats for backend %s" name

(* --- Budget ----------------------------------------------------------- *)

let test_budget_unlimited () =
  Alcotest.(check bool) "live" true (Budget.live Budget.unlimited);
  Budget.step Budget.unlimited 1_000_000;
  Alcotest.(check bool) "still live" true (Budget.live Budget.unlimited);
  Alcotest.(check bool)
    "never tripped" true
    (Budget.tripped Budget.unlimited = None)

let test_budget_steps () =
  let b = Budget.create ~max_steps:3 () in
  Budget.step b 2;
  Alcotest.(check bool) "under limit" true (Budget.live b);
  Budget.step b 1;
  (match Budget.check b with
  | Some (Budget.Steps { used = 3; limit = 3 }) -> ()
  | _ -> Alcotest.fail "expected Steps {used=3; limit=3}");
  (* Sticky: more steps don't change the recorded trip. *)
  Budget.step b 5;
  (match Budget.tripped b with
  | Some (Budget.Steps { used = 3; _ }) -> ()
  | _ -> Alcotest.fail "trip must be sticky");
  Alcotest.(check int) "steps_used keeps counting" 8 (Budget.steps_used b)

let test_budget_deadline_pre_expired () =
  let b = Budget.create ~deadline_ms:(-1.) () in
  (match Budget.check b with
  | Some (Budget.Deadline { elapsed_ms }) ->
      Alcotest.(check bool) "elapsed >= 0" true (elapsed_ms >= 0.)
  | _ -> Alcotest.fail "pre-expired deadline must trip at first check");
  Alcotest.(check bool) "live is false" false (Budget.live b)

let test_budget_cancel_wins () =
  let tok = Budget.token () in
  Alcotest.(check bool) "not cancelled" false (Budget.is_cancelled tok);
  (* Both the token and the step limit are tripped; the documented
     check order reports Cancelled. *)
  let b = Budget.create ~max_steps:0 ~token:tok () in
  Budget.cancel tok;
  Budget.cancel tok;
  Alcotest.(check bool) "cancelled" true (Budget.is_cancelled tok);
  match Budget.check b with
  | Some Budget.Cancelled -> ()
  | _ -> Alcotest.fail "cancellation must win the check order"

let test_now_ms_monotone () =
  let prev = ref (Resilience.now_ms ()) in
  for _ = 1 to 1000 do
    let t = Resilience.now_ms () in
    if t < !prev then Alcotest.fail "now_ms went backwards";
    prev := t
  done

(* --- Fault schedules -------------------------------------------------- *)

let test_spec_parsing () =
  let f =
    match
      Fault.of_spec
        "seed=7;backend.ese.prepare:exn@0.5;index.*:latency(2)@0.25;pool.task:transient"
    with
    | Ok f -> f
    | Error msg -> Alcotest.failf "spec should parse: %s" msg
  in
  Alcotest.(check int) "seed" 7 (Fault.seed f);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad
      | Error _ -> ())
    [
      "";
      "no-colon-here";
      "site:wat";
      "site:exn@1.5";
      "site:exn@nope";
      "seed=xyz;site:exn";
      "site:latency(-3)";
      ":exn";
      (* Only a trailing wildcard matches anything. *)
      "backend.*.prepare:exn";
      "*.prepare:exn";
    ]

let test_schedule_deterministic () =
  let spec = "seed=42;backend.ese.prepare:exn@0.5;index.*:transient@0.3" in
  let f1 = Result.get_ok (Fault.of_spec spec) in
  let f2 = Result.get_ok (Fault.of_spec spec) in
  let sites = [ "backend.ese.prepare"; "index.build"; "index.rebuild" ] in
  List.iter
    (fun site ->
      for n = 0 to 199 do
        if Fault.would_inject f1 ~site ~n <> Fault.would_inject f2 ~site ~n
        then Alcotest.failf "schedule differs at %s #%d" site n
      done)
    sites;
  (* p=0.5 must neither always nor never inject over 200 consults. *)
  let hits =
    List.init 200 (fun n ->
        Fault.would_inject f1 ~site:"backend.ese.prepare" ~n)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check bool) "p=0.5 mixes" true (hits > 0 && hits < 200);
  (* Unmatched site never injects; p=1 always does. *)
  Alcotest.(check bool)
    "unmatched site" false
    (Fault.would_inject f1 ~site:"backend.rta.eval" ~n:0);
  let always = Fault.make ~seed:1 [ ("s", Fault.Exn, 1.) ] in
  for n = 0 to 99 do
    if not (Fault.would_inject always ~site:"s" ~n) then
      Alcotest.fail "p=1 must always inject"
  done

let test_point_semantics () =
  Fault.point None ~site:"anything";
  let f =
    Fault.make ~seed:3
      [
        ("a.exn", Fault.Exn, 1.);
        ("a.transient", Fault.Transient, 1.);
        ("a.latency", Fault.Latency 0., 1.);
      ]
  in
  (match Fault.point (Some f) ~site:"a.exn" with
  | () -> Alcotest.fail "exn site must raise"
  | exception Fault.Injected { site = "a.exn"; transient = false } -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  (match Fault.point (Some f) ~site:"a.transient" with
  | () -> Alcotest.fail "transient site must raise"
  | exception (Fault.Injected { transient = true; _ } as e) ->
      Alcotest.(check bool) "transient_exn" true (Fault.transient_exn e)
  | exception _ -> Alcotest.fail "wrong exception");
  Fault.point (Some f) ~site:"a.latency";
  Fault.point (Some f) ~site:"unmatched";
  Alcotest.(check int) "consults count matched sites" 3 (Fault.consults f);
  Alcotest.(check int) "injections" 3 (Fault.injections f);
  Alcotest.(check bool)
    "transient_exn rejects others" false
    (Fault.transient_exn Exit)

(* --- Engine failover -------------------------------------------------- *)

let same_mincost (a : Min_cost.outcome) (b : Min_cost.outcome) =
  a.Min_cost.strategy = b.Min_cost.strategy
  && a.Min_cost.hits_after = b.Min_cost.hits_after
  && a.Min_cost.total_cost = b.Min_cost.total_cost

let test_prepare_fault_falls_back () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let target = 0 and tau = 3 in
  let clean = ok (Engine.min_cost (engine inst) ~cost ~target ~tau) in
  let f = Fault.make ~seed:1 [ ("backend.ese.prepare", Fault.Exn, 1.) ] in
  let e = engine ~resilience:(chaos f) inst in
  let got = ok (Engine.min_cost e ~cost ~target ~tau) in
  Alcotest.(check bool) "fallback answers match" true (same_mincost clean got);
  let st = Engine.stats e in
  let ese = bstat st "ese" and rta = bstat st "rta" in
  Alcotest.(check bool) "ese failed" true (ese.Engine.b_failures >= 1);
  Alcotest.(check bool) "ese fell back" true (ese.Engine.b_fallbacks >= 1);
  Alcotest.(check bool) "rta served" true (rta.Engine.b_attempts >= 1);
  Alcotest.(check int) "rta never failed" 0 rta.Engine.b_failures;
  Alcotest.(check bool) "injections recorded" true (st.Engine.faults_injected >= 1);
  Alcotest.(check string) "primary name unchanged" "ese" (Engine.backend_name e)

(* A seed whose schedule injects on the first consult of [site] but
   not the second — the retry-succeeds scenario, found by search so it
   stays correct if the hash function ever changes. *)
let seed_first_only site =
  let rec go seed =
    if seed > 10_000 then Alcotest.fail "no first-only seed found";
    let f = Fault.make ~seed [ (site, Fault.Transient, 0.5) ] in
    if
      Fault.would_inject f ~site ~n:0 && not (Fault.would_inject f ~site ~n:1)
    then f
    else go (seed + 1)
  in
  go 0

let test_transient_retry_succeeds () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let target = 0 and tau = 3 in
  let clean = ok (Engine.min_cost (engine inst) ~cost ~target ~tau) in
  let f = seed_first_only "backend.ese.prepare" in
  let e = engine ~resilience:(chaos ~retries:2 f) inst in
  let got = ok (Engine.min_cost e ~cost ~target ~tau) in
  Alcotest.(check bool) "retried answers match" true (same_mincost clean got);
  let ese = bstat (Engine.stats e) "ese" in
  Alcotest.(check int) "one retry" 1 ese.Engine.b_retries;
  Alcotest.(check int) "no persistent failure" 0 ese.Engine.b_failures;
  Alcotest.(check int) "attempted twice" 2 ese.Engine.b_attempts;
  Alcotest.(check int) "no fallback" 0 ese.Engine.b_fallbacks

let test_circuit_breaker () =
  let inst = make_instance () in
  let f = Fault.make ~seed:1 [ ("backend.ese.prepare", Fault.Exn, 1.) ] in
  let e = engine ~resilience:(chaos ~threshold:1 f) inst in
  ignore (ok (Engine.hits e ~target:0));
  let st1 = Engine.stats e in
  Alcotest.(check int) "one attempt opened the circuit" 1
    (bstat st1 "ese").Engine.b_attempts;
  Alcotest.(check bool) "circuit open" true (bstat st1 "ese").Engine.b_circuit_open;
  (* Second target: ese must be skipped without a new attempt. *)
  ignore (ok (Engine.hits e ~target:1));
  let st2 = Engine.stats e in
  Alcotest.(check int) "no further attempts while open" 1
    (bstat st2 "ese").Engine.b_attempts;
  Alcotest.(check int) "skip counted as fallback" 2
    (bstat st2 "ese").Engine.b_fallbacks

(* With every backend's circuit open the chain has nothing left to
   try; the error must say so, not claim the chain is empty. *)
let test_all_circuits_open () =
  let inst = make_instance () in
  let f =
    Fault.make ~seed:1
      (List.map
         (fun b -> ("backend." ^ b ^ ".prepare", Fault.Exn, 1.))
         [ "ese"; "rta"; "scan" ])
  in
  let e = engine ~resilience:(chaos ~threshold:1 f) inst in
  (match Engine.hits e ~target:0 with
  | Ok _ -> Alcotest.fail "every prepare was injected to fail"
  | Error _ -> ());
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " circuit open") true
        (bstat (Engine.stats e) b).Engine.b_circuit_open)
    [ "ese"; "rta"; "scan" ];
  match Engine.hits e ~target:0 with
  | Error (Engine.Error.Internal msg) ->
      Alcotest.(check string) "names the open circuits"
        "Failure(\"Engine: every backend circuit is open\")" msg
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Engine.Error.to_string e)
  | Ok _ -> Alcotest.fail "every circuit is open"

let test_eval_fault_fails_over () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let target = 0 and tau = 3 in
  let clean = ok (Engine.min_cost (engine inst) ~cost ~target ~tau) in
  (* Prepare succeeds, every ese evaluation raises: the failover has
     to catch the fault mid-search and restart on the next backend. *)
  let f = Fault.make ~seed:1 [ ("backend.ese.eval", Fault.Exn, 1.) ] in
  let e = engine ~resilience:(chaos f) inst in
  let got = ok (Engine.min_cost e ~cost ~target ~tau) in
  Alcotest.(check bool) "mid-search failover matches" true
    (same_mincost clean got);
  let ese = bstat (Engine.stats e) "ese" in
  Alcotest.(check bool) "ese recorded the eval failure" true
    (ese.Engine.b_failures >= 1)

(* --- Deadlines, cancellation, anytime partials ----------------------- *)

let test_deadline_error () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let budget = Budget.create ~max_steps:1 () in
  (match
     Engine.min_cost ~budget e ~cost ~target:0 ~tau:(Instance.n_queries inst)
   with
  | Error (Engine.Error.Deadline_exceeded { elapsed_ms; partial = Some p }) ->
      Alcotest.(check bool) "elapsed >= 0" true (elapsed_ms >= 0.);
      Alcotest.(check bool) "flag" true (p.Engine.p_flag = `Degraded);
      (* The anytime contract: the partial carries whole iterations
         only, and its hit count is exact — the ground-truth rescan of
         the partial strategy agrees. *)
      let s = List.assoc 0 p.Engine.p_strategies in
      Alcotest.(check int) "partial hits are exact"
        ((Evaluator.naive inst ~target:0).Evaluator.hit_count s)
        p.Engine.p_hits
  | Ok _ -> Alcotest.fail "a 1-step budget cannot finish"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e));
  Alcotest.(check int) "trip counted" 1 (Engine.stats e).Engine.deadline_trips

let test_cancel_error () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let tok = Budget.token () in
  Budget.cancel tok;
  let budget = Budget.create ~token:tok () in
  (match Engine.max_hit ~budget e ~cost ~target:0 ~beta:0.5 with
  | Error (Engine.Error.Cancelled { partial = Some _ }) -> ()
  | Ok _ -> Alcotest.fail "cancelled search cannot complete"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e));
  Alcotest.(check int) "cancellation counted" 1
    (Engine.stats e).Engine.cancellations

let test_deadline_env_knob () =
  (* IQ_DEADLINE_MS applies when no explicit budget/deadline is given;
     a 0ms deadline trips the very first check. *)
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  Unix.putenv "IQ_DEADLINE_MS" "0.000001";
  let r =
    Engine.min_cost e ~cost ~target:0 ~tau:(Instance.n_queries inst)
  in
  Unix.putenv "IQ_DEADLINE_MS" "";
  match r with
  | Error (Engine.Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "a 1ns deadline cannot finish"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e)

(* The four searches that run on the budgeted driver, behind one
   shape so each budget property is checked on all of them: an answer
   is the strategies, their (union) hit count and total cost. *)
type answer = {
  a_strategies : (int * Strategy.t) list;
  a_hits : int;
  a_cost : float;
}

let searches ~cost ~tau ~beta =
  let multi target = [ (target, cost); (target + 1, cost) ] in
  let single target strategy hits total =
    { a_strategies = [ (target, strategy) ]; a_hits = hits; a_cost = total }
  in
  let multi_answer (o : Combinatorial.outcome) =
    {
      a_strategies = o.Combinatorial.strategies;
      a_hits = o.Combinatorial.union_hits_after;
      a_cost = o.Combinatorial.total_cost;
    }
  in
  [
    ( "min_cost",
      fun budget e ~target ->
        Result.map
          (fun o ->
            single target o.Min_cost.strategy o.Min_cost.hits_after
              o.Min_cost.total_cost)
          (Engine.min_cost ?budget e ~cost ~target ~tau) );
    ( "max_hit",
      fun budget e ~target ->
        Result.map
          (fun o ->
            single target o.Max_hit.strategy o.Max_hit.hits_after
              o.Max_hit.total_cost)
          (Engine.max_hit ?budget e ~cost ~target ~beta) );
    ( "min_cost_multi",
      fun budget e ~target ->
        Result.map multi_answer
          (Engine.min_cost_multi ?budget e ~costs:(multi target) ~tau) );
    ( "max_hit_multi",
      fun budget e ~target ->
        Result.map multi_answer
          (Engine.max_hit_multi ?budget e ~costs:(multi target) ~beta) );
  ]

(* An armed budget that never trips pays real clock reads and step
   accounting on every check, but must not change a single decision:
   every search returns exactly what the unbudgeted call returns. *)
let test_armed_budget_same_outcomes () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let armed () = Budget.create ~deadline_ms:3.6e6 ~max_steps:max_int () in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun target ->
          match (run None e ~target, run (Some (armed ())) e ~target) with
          | Ok a, Ok b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s target %d unchanged" name target)
                true (a = b)
          | Error Engine.Error.Infeasible, Error Engine.Error.Infeasible -> ()
          | _ -> Alcotest.failf "%s target %d changed outcome" name target)
        [ 0; 20; 40; 60 ])
    (searches ~cost ~tau:3 ~beta:0.5)

(* The anytime curve: a step budget doubled from 1 never loses hits as
   it grows, and the first budget that completes lands exactly on the
   unbudgeted search's answer. *)
let test_step_sweep_anytime_curve () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let target = 0 in
  List.iter
    (fun (name, run) ->
      let full = ok (run None e ~target) in
      let rec sweep steps prev degraded =
        if steps > 1 lsl 22 then
          Alcotest.failf "%s: step sweep never completed" name;
        match run (Some (Budget.create ~max_steps:steps ())) e ~target with
        | Ok o ->
            Alcotest.(check bool)
              (name ^ ": some budget degraded first")
              true (degraded > 0);
            Alcotest.(check bool)
              (Printf.sprintf "%s: completion at %d steps keeps its hits" name
                 steps)
              true (o.a_hits >= prev);
            Alcotest.(check bool)
              (name ^ ": completing point = unbudgeted search")
              true (o = full)
        | Error (Engine.Error.Deadline_exceeded { partial = Some p; _ }) ->
            if p.Engine.p_hits < prev then
              Alcotest.failf "%s: hits fell from %d to %d at %d steps" name
                prev p.Engine.p_hits steps;
            sweep (2 * steps) p.Engine.p_hits (degraded + 1)
        | Error err ->
            Alcotest.failf "%s: unexpected error at %d steps: %s" name steps
              (Engine.Error.to_string err)
      in
      sweep 1 min_int 0)
    (searches ~cost ~tau:10 ~beta:1.0)

(* The driver every search runs on: a batch whose collection tripped
   the budget never reaches [decide], and the trip ends the loop with
   that iteration counted. *)
let test_iterate_drops_tripped_batch () =
  let budget = Budget.create ~max_steps:5 () in
  let decided = ref [] in
  let iterations, status =
    Candidates.iterate ~budget ~search:`Max_hit
      ~pending:(fun () -> true)
      ~collect:(fun b ->
        Budget.step b 2;
        Budget.steps_used b)
      ~decide:(fun used ->
        decided := used :: !decided;
        true)
      ()
  in
  Alcotest.(check (list int)) "only untripped batches decided" [ 4; 2 ]
    !decided;
  Alcotest.(check int) "the tripped iteration counts" 3 iterations;
  Alcotest.(check bool) "degraded" true
    (match status with `Degraded _ -> true | `Complete -> false);
  let iterations, status =
    Candidates.iterate ~max_iterations:4 ~search:`Max_hit
      ~pending:(fun () -> true)
      ~collect:(fun _ -> ())
      ~decide:(fun () -> true)
      ()
  in
  Alcotest.(check int) "stops at the cap" 4 iterations;
  Alcotest.(check bool) "complete at the cap" true (status = `Complete)

let test_multi_degrades () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let costs = [ (0, cost); (1, cost) ] in
  let budget = Budget.create ~max_steps:1 () in
  match Engine.min_cost_multi ~budget e ~costs ~tau:(Instance.n_queries inst) with
  | Error (Engine.Error.Deadline_exceeded { partial = Some p; _ }) ->
      Alcotest.(check int) "one strategy per target" 2
        (List.length p.Engine.p_strategies)
  | Ok _ -> Alcotest.fail "1-step multi search cannot finish"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e)

(* --- Error taxonomy under interleaved mutation ------------------------ *)

let test_mutation_taxonomy_matrix () =
  let check_kind name mutate =
    let inst = make_instance ~seed:123 () in
    let e = engine inst in
    let target = 0 in
    let d = Instance.dim inst in
    ignore (ok (Engine.evaluator e ~target));
    let hits0 = ok (Engine.hits e ~target) in
    let sess = sok (Session.open_ e) in
    Fun.protect ~finally:(fun () -> Session.close sess) @@ fun () ->
    let st = sok (Session.prepare sess ~target) in
    let gen0 = Engine.generation e in
    let repreps0 = (Engine.stats e).Engine.repreparations in
    mutate e;
    Alcotest.(check int)
      (name ^ ": generation bumped")
      (gen0 + 1) (Engine.generation e);
    (* Cached evaluator: transparent re-preparation, typed Ok. *)
    ignore (ok (Engine.evaluator e ~target));
    Alcotest.(check int)
      (name ^ ": repreparation recorded")
      (repreps0 + 1)
      (Engine.stats e).Engine.repreparations;
    (* A statement prepared before the mutation keeps answering from
       the generation it pinned. *)
    Alcotest.(check int)
      (name ^ ": statement keeps its pin")
      gen0 (Session.stmt_generation st);
    Alcotest.(check int) (name ^ ": pinned statement answers") hits0 (row st);
    (* Deadline-bounded search right after the mutation: the fresh
       entry serves it and the trip is the typed anytime error, not a
       staleness artifact. *)
    (match
       Engine.min_cost
         ~budget:(Budget.create ~deadline_ms:(-1.) ())
         e
         ~cost:(Cost.euclidean d) ~target ~tau:3
     with
    | Error (Engine.Error.Deadline_exceeded { partial = Some _; _ }) -> ()
    | Error err ->
        Alcotest.failf "%s: wrong deadline error: %s" name
          (Engine.Error.to_string err)
    | Ok _ -> Alcotest.failf "%s: pre-expired deadline finished" name);
    (* Recovery: after a session refresh, a new statement serves the
       current generation and agrees with a fresh engine over it. *)
    sok (Session.refresh sess);
    Alcotest.(check int)
      (name ^ ": session refreshed")
      (gen0 + 1) (Session.generation sess);
    let fresh = engine (Engine.instance e) in
    Alcotest.(check int)
      (name ^ ": refreshed statement = fresh engine")
      (ok (Engine.hits fresh ~target))
      (sok (Session.with_stmt sess ~target (fun st -> Ok (row st))))
  in
  let q d =
    Topk.Query.make ~id:999 ~k:1 (Array.init d (fun i -> 1. /. float_of_int (i + 1)))
  in
  check_kind "add_query" (fun e ->
      ignore (ok (Engine.add_query e (q (Instance.dim (Engine.instance e))))));
  check_kind "remove_query" (fun e -> ok (Engine.remove_query e 1));
  check_kind "add_object" (fun e ->
      ignore
        (ok
           (Engine.add_object e
              (Array.make (Instance.dim_raw (Engine.instance e)) 0.5))));
  check_kind "update_object" (fun e ->
      ok
        (Engine.update_object e 0
           (Array.make (Instance.dim_raw (Engine.instance e)) 0.25)));
  check_kind "remove_object" (fun e ->
      ok (Engine.remove_object e (Instance.n_objects (Engine.instance e) - 1)))

(* --- the degraded-hits oracle ---------------------------------------- *)

let prop_degraded_hits_exact =
  QCheck.Test.make
    ~name:"degraded partial's hits never exceed (and equal) true H(p+s)"
    ~count:30
    QCheck.(
      make
        ~print:(fun (seed, steps) -> Printf.sprintf "seed=%d steps=%d" seed steps)
        Gen.(
          let* seed = int_range 1 5_000 in
          let* steps = int_range 1 60 in
          return (seed, steps)))
    (fun (seed, steps) ->
      let inst = make_instance ~seed ~n:60 ~m:30 () in
      let d = Instance.dim inst in
      let cost = Cost.euclidean d in
      let target = 0 in
      let e = engine inst in
      let budget = Budget.create ~max_steps:steps () in
      match
        Engine.min_cost ~budget e ~cost ~target ~tau:(Instance.n_queries inst)
      with
      | Ok _ | Error Engine.Error.Infeasible -> true
      | Error (Engine.Error.Deadline_exceeded { partial = Some p; _ }) -> (
          match p.Engine.p_strategies with
          | [ (t, s) ] when t = target ->
              let truth = (Evaluator.naive inst ~target).Evaluator.hit_count s in
              p.Engine.p_hits <= truth && p.Engine.p_hits = truth
          | _ -> false)
      | Error _ -> false)

(* --- nothing raw crosses the boundary --------------------------------- *)

let test_chaos_boundary () =
  (* Aggressive schedule over every site; every entry point must
     return a result — never raise. *)
  let f =
    Result.get_ok
      (Fault.of_spec
         "seed=5;backend.*:exn@0.4;index.build:transient@0.3;search.iteration:transient@0.2;pool.task:transient@0.2")
  in
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let no_raise name g =
    match g () with
    | (_ : (unit, _) result) -> ()
    | exception ex ->
        Alcotest.failf "%s leaked exception %s" name (Printexc.to_string ex)
  in
  match Engine.create ~resilience:(chaos ~retries:1 f) ~pool:pool1 inst with
  | Error _ -> () (* index.build exhausted its retries: typed, fine *)
  | Ok e ->
      for target = 0 to 9 do
        no_raise "evaluator" (fun () ->
            Result.map ignore (Engine.evaluator e ~target));
        no_raise "hits" (fun () -> Result.map ignore (Engine.hits e ~target));
        no_raise "member" (fun () ->
            Result.map ignore (Engine.member e ~target ~q:0));
        no_raise "min_cost" (fun () ->
            Result.map ignore (Engine.min_cost e ~cost ~target ~tau:3));
        no_raise "max_hit" (fun () ->
            Result.map ignore (Engine.max_hit e ~cost ~target ~beta:0.2));
        no_raise "session statement" (fun () ->
            Session.with_session e (fun sess ->
                Session.with_stmt sess ~target (fun st ->
                    Result.map ignore (Session.step st))))
      done;
      no_raise "min_cost_multi" (fun () ->
          Result.map ignore
            (Engine.min_cost_multi e ~costs:[ (0, cost); (1, cost) ] ~tau:3))

let test_chaos_deterministic () =
  (* Same spec, same driver, sequential pool: two runs must agree on
     every outcome and on the fault accounting. *)
  let spec = "seed=11;backend.ese.prepare:exn@0.5;backend.ese.eval:transient@0.1" in
  let run () =
    let f = Result.get_ok (Fault.of_spec spec) in
    let inst = make_instance () in
    let cost = Cost.euclidean (Instance.dim inst) in
    let e = engine ~resilience:(chaos ~retries:1 f) inst in
    let outcomes =
      List.init 6 (fun target ->
          match Engine.min_cost e ~cost ~target ~tau:3 with
          | Ok o -> Printf.sprintf "ok:%d:%.9f" o.Min_cost.hits_after o.Min_cost.total_cost
          | Error err -> "err:" ^ Engine.Error.to_string err)
    in
    let st = Engine.stats e in
    let acct =
      List.map
        (fun b ->
          Printf.sprintf "%s:%d/%d/%d/%d" b.Engine.b_name b.Engine.b_attempts
            b.Engine.b_failures b.Engine.b_retries b.Engine.b_fallbacks)
        st.Engine.backends
    in
    (outcomes, acct, st.Engine.faults_injected)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical chaos runs" true (a = b)

let suite =
  [
    Alcotest.test_case "budget: unlimited never trips" `Quick
      test_budget_unlimited;
    Alcotest.test_case "budget: step limit trips sticky" `Quick
      test_budget_steps;
    Alcotest.test_case "budget: pre-expired deadline" `Quick
      test_budget_deadline_pre_expired;
    Alcotest.test_case "budget: cancellation wins check order" `Quick
      test_budget_cancel_wins;
    Alcotest.test_case "now_ms monotone" `Quick test_now_ms_monotone;
    Alcotest.test_case "fault: spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "fault: schedule deterministic" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "fault: point semantics" `Quick test_point_semantics;
    Alcotest.test_case "engine: prepare fault falls back" `Quick
      test_prepare_fault_falls_back;
    Alcotest.test_case "engine: transient retry succeeds" `Quick
      test_transient_retry_succeeds;
    Alcotest.test_case "engine: circuit breaker opens" `Quick
      test_circuit_breaker;
    Alcotest.test_case "engine: every circuit open is reported" `Quick
      test_all_circuits_open;
    Alcotest.test_case "engine: eval fault fails over mid-search" `Quick
      test_eval_fault_fails_over;
    Alcotest.test_case "engine: deadline -> typed partial" `Quick
      test_deadline_error;
    Alcotest.test_case "engine: cancellation -> typed partial" `Quick
      test_cancel_error;
    Alcotest.test_case "engine: IQ_DEADLINE_MS knob" `Quick
      test_deadline_env_knob;
    Alcotest.test_case "engine: multi-target degrades" `Quick
      test_multi_degrades;
    Alcotest.test_case "search driver drops a tripped batch" `Quick
      test_iterate_drops_tripped_batch;
    Alcotest.test_case "engine: armed budget never changes outcomes" `Quick
      test_armed_budget_same_outcomes;
    Alcotest.test_case "engine: step sweep is a monotone anytime curve" `Quick
      test_step_sweep_anytime_curve;
    Alcotest.test_case "mutation taxonomy matrix" `Quick
      test_mutation_taxonomy_matrix;
    QCheck_alcotest.to_alcotest prop_degraded_hits_exact;
    Alcotest.test_case "chaos: no raw exception at boundary" `Quick
      test_chaos_boundary;
    Alcotest.test_case "chaos: same seed, same outcomes" `Quick
      test_chaos_deterministic;
  ]
