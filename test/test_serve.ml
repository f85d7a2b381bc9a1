(* Serve.Session: MVCC serving sessions over the engine. Covers the
   sqlite-style statement lifecycle (prepare/bind/step/finalize and
   the runtime misuse errors), snapshot pinning (a session keeps
   answering from its generation across engine mutations; refresh is
   opt-in), admission control (IQ_MAX_SESSIONS ceiling, budget-bounded
   waits, rejection accounting), and the torture oracle: under random
   interleavings of mutations and concurrent snapshot searches, every
   result is byte-identical to a fresh single-threaded engine frozen
   at the reader's pinned generation. *)

open Iq
module Session = Serve.Session

let pool1 = Parallel.create ~domains:1 ()

let make_instance ?(seed = 77) ?(n = 120) ?(m = 60) ?(d = 3) () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 6) ~m
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

let engine ?(pool = pool1) inst = ok (Engine.create ~pool inst)

(* --- statement lifecycle: prepare/bind/step/finalize ----------------- *)

let test_stmt_lifecycle () =
  let inst = make_instance () in
  let e = engine inst in
  let target = 5 in
  sok
    (Session.with_session e (fun sess ->
         Alcotest.(check int) "pinned at generation 0" 0
           (Session.generation sess);
         Alcotest.(check bool)
           "session belongs to its engine" true
           (Session.engine sess == e);
         (* Snapshot-pinned membership agrees with the engine while no
            mutation has landed. *)
         for q = 0 to 2 do
           Alcotest.(check bool)
             (Printf.sprintf "member q=%d = engine" q)
             (ok (Engine.member e ~target ~q))
             (sok (Session.member sess ~target ~q))
         done;
         Session.with_stmt sess ~target (fun st ->
             Alcotest.(check int) "stmt remembers its target" target
               (Session.stmt_target st);
             (* Unbound statement: one row carrying the base hit count. *)
             let base = ok (Engine.hits e ~target) in
             (match sok (Session.step st) with
             | `Row h -> Alcotest.(check int) "unbound row = base hits" base h
             | `Done -> Alcotest.fail "expected a row before Done");
             (match sok (Session.step st) with
             | `Done -> ()
             | `Row _ -> Alcotest.fail "one-row result set yielded twice");
             (* Re-bind resets the cursor; the row is the strategy's
                exact hit count. *)
             let d = Instance.dim inst in
             let s = Array.make d 0.2 in
             sok (Session.bind st ~s);
             let direct =
               (ok (Engine.evaluator e ~target)).Evaluator.hit_count s
             in
             (match sok (Session.step st) with
             | `Row h -> Alcotest.(check int) "bound row = hit count" direct h
             | `Done -> Alcotest.fail "expected a row after bind");
             (* Arity misuse is a typed engine error. *)
             (match Session.bind st ~s:(Array.make (d + 1) 0.) with
             | Error (Session.Error.Engine (Engine.Error.Dim_mismatch _)) ->
                 ()
             | _ -> Alcotest.fail "bad arity must be Dim_mismatch");
             Ok ())))

let test_stmt_misuse () =
  let inst = make_instance () in
  let e = engine inst in
  let sess = sok (Session.open_ e) in
  let st = sok (Session.prepare sess ~target:3) in
  Session.finalize st;
  Session.finalize st (* idempotent *);
  (match Session.step st with
  | Error Session.Error.Finalized -> ()
  | _ -> Alcotest.fail "step after finalize must report Finalized");
  let st2 = sok (Session.prepare sess ~target:4) in
  Session.close sess;
  Session.close sess (* idempotent *);
  (match Session.step st2 with
  | Error Session.Error.Closed -> ()
  | _ -> Alcotest.fail "step after close must report Closed");
  (match Session.prepare sess ~target:1 with
  | Error Session.Error.Closed -> ()
  | _ -> Alcotest.fail "prepare on a closed session must report Closed");
  match Session.refresh sess with
  | Error Session.Error.Closed -> ()
  | _ -> Alcotest.fail "refresh on a closed session must report Closed"

(* --- snapshot pinning: sessions never see later generations --------- *)

let test_session_pins_generation () =
  let inst = make_instance () in
  let e = engine inst in
  let target = 5 in
  let cost = Cost.euclidean (Instance.dim inst) in
  let sess = sok (Session.open_ e) in
  let h_before = sok (Session.hits sess ~target) in
  let mc_before = Session.min_cost sess ~cost ~target ~tau:3 in
  (* Mutate past the session: move the target itself. *)
  let moved =
    Array.map (fun v -> Float.max 0. (v -. 0.4)) inst.Instance.raw.(target)
  in
  ok (Engine.update_object e target moved);
  Alcotest.(check int) "engine moved on" 1 (Engine.generation e);
  Alcotest.(check int) "session still pinned" 0 (Session.generation sess);
  (* Session reads answer from the pinned generation: identical to a
     fresh engine over the original instance. *)
  let frozen = engine inst in
  Alcotest.(check int)
    "pinned hits = frozen engine" (ok (Engine.hits frozen ~target))
    (sok (Session.hits sess ~target));
  Alcotest.(check int) "pinned hits unchanged" h_before
    (sok (Session.hits sess ~target));
  (match (Session.min_cost sess ~cost ~target ~tau:3, mc_before) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "pinned search unchanged" true
        (a.Min_cost.strategy = b.Min_cost.strategy
        && a.Min_cost.total_cost = b.Min_cost.total_cost
        && a.Min_cost.hits_after = b.Min_cost.hits_after)
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "pinned search changed feasibility");
  (* Opt-in refresh: the session catches up and matches a fresh engine
     over the mutated instance. *)
  sok (Session.refresh sess);
  Alcotest.(check int) "refresh re-pins" 1 (Session.generation sess);
  let fresh = engine (Engine.instance e) in
  Alcotest.(check int)
    "refreshed hits = fresh engine" (ok (Engine.hits fresh ~target))
    (sok (Session.hits sess ~target));
  Session.close sess

let test_stmt_outlives_refresh () =
  let inst = make_instance () in
  let e = engine inst in
  let target = 7 in
  let sess = sok (Session.open_ e) in
  let st = sok (Session.prepare sess ~target) in
  let row0 =
    match sok (Session.step st) with `Row h -> h | `Done -> -1
  in
  ignore (ok (Engine.add_object e (Array.make (Instance.dim_raw inst) 0.9)));
  sok (Session.refresh sess);
  Alcotest.(check int) "session refreshed" 1 (Session.generation sess);
  Alcotest.(check int) "statement keeps its pin" 0 (Session.stmt_generation st);
  sok (Session.bind st ~s:(Array.make (Instance.dim inst) 0.));
  (match sok (Session.step st) with
  | `Row h -> Alcotest.(check int) "statement answers from its pin" row0 h
  | `Done -> Alcotest.fail "expected a row");
  Session.close sess

(* --- admission control ---------------------------------------------- *)

let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv key (match old with Some v -> v | None -> ""))
    f

let test_admission_ceiling () =
  with_env "IQ_MAX_SESSIONS" "1" (fun () ->
      let inst = make_instance ~n:60 ~m:30 () in
      let e = engine inst in
      let s1 = sok (Session.open_ e) in
      let st = Engine.stats e in
      Alcotest.(check int) "one active session" 1 st.Engine.active_sessions;
      Alcotest.(check int) "one pinned generation" 1 st.Engine.pinned_snapshots;
      Alcotest.(check (option int))
        "oldest pinned is generation 0" (Some 0) st.Engine.oldest_pinned;
      (* The second open waits and then trips its deadline: a typed
         rejection, not an exception. *)
      (match Session.open_ ~deadline_ms:25. e with
      | Error (Session.Error.Engine (Engine.Error.Deadline_exceeded _)) -> ()
      | Ok _ -> Alcotest.fail "admission above the ceiling must wait"
      | Error other ->
          Alcotest.failf "expected a deadline rejection, got %s"
            (Session.Error.to_string other));
      let st = Engine.stats e in
      Alcotest.(check int) "rejection counted" 1
        st.Engine.admission_rejections;
      Alcotest.(check int) "queue drained" 0 st.Engine.queue_depth;
      (* Closing frees the slot; the next open is admitted. *)
      Session.close s1;
      let s2 = sok (Session.open_ ~deadline_ms:200. e) in
      Session.close s2;
      let st = Engine.stats e in
      Alcotest.(check int) "all slots free" 0 st.Engine.active_sessions;
      Alcotest.(check int) "nothing pinned" 0 st.Engine.pinned_snapshots;
      Alcotest.(check (option int))
        "no oldest pin" None st.Engine.oldest_pinned);
  (* Three sessions pinned across three writer mutations, at a ceiling
     of exactly three: each keeps the generation it opened on and
     answers from it, copy-on-write keeps every pinned snapshot near
     the size of one index, and closing them releases every pin. *)
  with_env "IQ_MAX_SESSIONS" "3" (fun () ->
      let e = engine (make_instance ~n:60 ~m:30 ()) in
      let base_words = Snapshot.size_words (Engine.snapshot e) in
      let target = 0 in
      let pinned = ref [] in
      for i = 0 to 2 do
        let sess = sok (Session.open_ ~deadline_ms:200. e) in
        let frozen = engine (Engine.instance e) in
        pinned := (sess, ok (Engine.hits frozen ~target)) :: !pinned;
        let raw = (Engine.instance e).Instance.raw.(i) in
        ok (Engine.update_object e i (Array.map (fun v -> v *. 0.99) raw))
      done;
      let pinned = List.rev !pinned in
      let st = Engine.stats e in
      Alcotest.(check int) "three generations pinned" 3
        st.Engine.pinned_snapshots;
      Alcotest.(check (option int))
        "oldest pin is generation 0" (Some 0) st.Engine.oldest_pinned;
      List.iteri
        (fun i (sess, expected) ->
          let snap = Session.snapshot sess in
          Alcotest.(check int)
            (Printf.sprintf "session %d pinned where it opened" i)
            i (Snapshot.generation snap);
          let words = Snapshot.size_words snap in
          if words > (base_words * 3 / 2) + 4096 then
            Alcotest.failf
              "session %d pins %d words against a %d-word index" i words
              base_words;
          Alcotest.(check int)
            (Printf.sprintf "session %d hits = its frozen generation" i)
            expected
            (sok (Session.hits sess ~target)))
        pinned;
      List.iter (fun (sess, _) -> Session.close sess) pinned;
      Alcotest.(check int) "no pins after close" 0
        (Engine.stats e).Engine.pinned_snapshots)

(* --- torture oracle: concurrent mutations vs pinned searches --------- *)

(* Mutation script derived from a seed: each step is one engine
   mutation. Searches happen in the reader domains. *)
let apply_mutation e rng =
  let inst = Engine.instance e in
  let d = Instance.dim inst in
  let dr = Instance.dim_raw inst in
  match Workload.Rng.int rng 4 with
  | 0 ->
      ignore
        (ok
           (Engine.add_object e
              (Array.init dr (fun _ -> Workload.Rng.uniform rng))))
  | 1 ->
      let id = Workload.Rng.int rng (Instance.n_objects inst) in
      ok
        (Engine.update_object e id
           (Array.init dr (fun _ -> Workload.Rng.uniform rng)))
  | 2 ->
      (* Keep enough objects around for the fixed reader targets. *)
      if Instance.n_objects inst > 20 then
        ok (Engine.remove_object e (Instance.n_objects inst - 1))
      else
        ok
          (Engine.update_object e 0
             (Array.init dr (fun _ -> Workload.Rng.uniform rng)))
  | _ ->
      ignore
        (ok
           (Engine.add_query e
              (Topk.Query.make
                 ~k:(1 + Workload.Rng.int rng 4)
                 (Array.init d (fun _ -> Workload.Rng.uniform rng)))))

type observation = {
  o_generation : int;
  o_target : int;
  o_hits : int;
  o_search : (Strategy.t * float * int, Engine.Error.t) result;
}

let summarize = function
  | Ok o ->
      Ok (o.Min_cost.strategy, o.Min_cost.total_cost, o.Min_cost.hits_after)
  | Error e -> Error e

let reader_loop e cost ~rounds ~seed =
  let rng = Workload.Rng.make seed in
  let out = ref [] in
  for _ = 1 to rounds do
    (match Session.open_ ~deadline_ms:5_000. e with
    | Error _ -> () (* admission timeout under load: not a soundness bug *)
    | Ok sess ->
        Fun.protect
          ~finally:(fun () -> Session.close sess)
          (fun () ->
            let target = Workload.Rng.int rng 10 in
            let gen = Session.generation sess in
            match Session.hits sess ~target with
            | Error _ -> ()
            | Ok h ->
                let search =
                  match Session.min_cost sess ~cost ~target ~tau:3 with
                  | Ok o -> Ok (summarize (Ok o))
                  | Error (Session.Error.Engine e) -> Ok (Error e)
                  | Error _ -> Error ()
                in
                (match search with
                | Ok o_search ->
                    out :=
                      { o_generation = gen; o_target = target; o_hits = h; o_search }
                      :: !out
                | Error () -> ())));
    Unix.sleepf 0.001
  done;
  !out

let check_observation insts pool obs =
  let frozen = ok (Engine.create ~pool insts.(obs.o_generation)) in
  let cost = Cost.euclidean (Instance.dim insts.(obs.o_generation)) in
  let hits_ok = ok (Engine.hits frozen ~target:obs.o_target) = obs.o_hits in
  let search_ok =
    match
      ( summarize (Engine.min_cost frozen ~cost ~target:obs.o_target ~tau:3),
        obs.o_search )
    with
    | Ok a, Ok b -> a = b
    | Error Engine.Error.Infeasible, Error Engine.Error.Infeasible -> true
    | _ -> false
  in
  hits_ok && search_ok

let torture ~readers ~seed =
  let inst = make_instance ~seed ~n:40 ~m:20 () in
  let e = ok (Engine.create ~pool:pool1 inst) in
  let cost = Cost.euclidean (Instance.dim inst) in
  let n_mutations = 4 in
  (* [insts.(g)] is the instance at generation [g]; the writer appends
     synchronously after each mutation, and readers only record their
     pinned generation, so the array is complete by join time. *)
  let insts = Array.make (n_mutations + 1) inst in
  let spawned =
    List.init readers (fun i ->
        Domain.spawn (fun () ->
            reader_loop e cost ~rounds:5 ~seed:(seed + (31 * (i + 1)))))
  in
  let rng = Workload.Rng.make (seed + 7) in
  for g = 1 to n_mutations do
    Unix.sleepf 0.002;
    apply_mutation e rng;
    insts.(g) <- Engine.instance e
  done;
  let observations = List.concat_map Domain.join spawned in
  let all_ok =
    List.for_all (check_observation insts pool1) observations
  in
  if not all_ok then
    QCheck.Test.fail_reportf
      "a pinned-snapshot result diverged from its frozen-generation oracle \
       (readers=%d seed=%d)"
      readers seed;
  (* The final engine state equals a from-scratch rebuild — the writer
     path itself stays exact. *)
  let fresh = ok (Engine.create ~pool:pool1 (Engine.instance e)) in
  ok (Engine.hits e ~target:0) = ok (Engine.hits fresh ~target:0)

let prop_torture_oracle =
  QCheck.Test.make
    ~name:"torture: concurrent mutations never leak into pinned snapshots \
           (readers 1 and 4)"
    ~count:4
    QCheck.(small_int)
    (fun seed -> List.for_all (fun readers -> torture ~readers ~seed) [ 1; 4 ])

let suite =
  [
    Alcotest.test_case "statement lifecycle: prepare/bind/step/finalize"
      `Quick test_stmt_lifecycle;
    Alcotest.test_case "statement misuse: typed runtime errors" `Quick
      test_stmt_misuse;
    Alcotest.test_case "session pins its generation; refresh is opt-in"
      `Quick test_session_pins_generation;
    Alcotest.test_case "statements outlive a session refresh" `Quick
      test_stmt_outlives_refresh;
    Alcotest.test_case "admission: ceiling, rejection, slot reuse" `Quick
      test_admission_ceiling;
    QCheck_alcotest.to_alcotest prop_torture_oracle;
  ]
