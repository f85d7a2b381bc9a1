(* The Parallel Domain pool: pool semantics (order preservation,
   exception propagation, nesting, sequential bypass) plus the
   determinism contract of the parallel search paths — Min-Cost /
   Max-Hit outcomes, their evaluation counts and built indexes must be
   identical under IQ_DOMAINS=1 and IQ_DOMAINS=4. *)

open Iq

(* One shared multi-domain pool for the whole suite; created eagerly
   so every test (and the QCheck properties) reuses the same workers
   rather than respawning domains per case. *)
let pool4 = Parallel.create ~domains:4 ()
let pool1 = Parallel.create ~domains:1 ()

let test_default_domains () =
  Alcotest.(check bool)
    "default_domains >= 1" true
    (Parallel.default_domains () >= 1);
  Alcotest.(check int) "config alias" (Parallel.default_domains ())
    (Workload.Config.domains ())

let test_map_array_order () =
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i) in
      let got = Parallel.map_array pool4 (fun x -> (3 * x) + 1) arr in
      Alcotest.(check int) "length" n (Array.length got);
      Array.iteri
        (fun i v ->
          if v <> (3 * i) + 1 then
            Alcotest.failf "map_array order broken at %d (n=%d)" i n)
        got)
    [ 0; 1; 2; 7; 64; 1000 ]

let test_map_array_matches_sequential () =
  let arr = Array.init 500 (fun i -> float_of_int i /. 7.) in
  let f x = sin x +. (x *. x) in
  Alcotest.(check bool)
    "pool result = Array.map" true
    (Parallel.map_array pool4 f arr = Array.map f arr)

let test_map_array_covers () =
  let n = 2048 in
  let marks = Array.init n (fun _ -> Atomic.make 0) in
  ignore
    (Parallel.map_array pool4
       (fun i -> Atomic.incr marks.(i))
       (Array.init n Fun.id));
  Alcotest.(check bool)
    "every element exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) marks);
  Alcotest.(check int) "empty input runs nothing" 0
    (Array.length
       (Parallel.map_array pool4 (fun _ -> Alcotest.fail "empty input") [||]))

exception Boom of int

let test_exception_propagation () =
  let raised =
    try
      ignore
        (Parallel.map_array pool4
           (fun x -> if x = 321 then raise (Boom x) else x)
           (Array.init 1000 (fun i -> i)));
      None
    with Boom x -> Some x
  in
  Alcotest.(check (option int)) "map_array re-raises" (Some 321) raised;
  (* The seed element runs on the caller before any chunk is
     dispatched; its exception propagates directly. *)
  let raised_seed =
    try
      ignore
        (Parallel.map_array pool4
           (fun i -> if i = 0 then failwith "seed-boom" else i)
           (Array.init 1000 Fun.id));
      false
    with Failure m -> m = "seed-boom"
  in
  Alcotest.(check bool) "seed element re-raises" true raised_seed;
  (* The pool survives a failed job. *)
  let ok = Parallel.map_array pool4 (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check bool) "pool usable after failure" true (ok = [| 2; 3; 4 |])

(* Regression for the failure-drain audit: a raising task at ANY
   position must propagate exactly once, leave the completion wait
   un-wedged and leak nothing — the pool (and the process-wide live
   count) must be immediately reusable. Sweeping every position covers
   first-in-chunk, mid-chunk and last-chunk boundaries. *)
let test_raise_at_every_position () =
  let live_before = Parallel.live () in
  let n = 97 in
  for bad = 0 to n - 1 do
    let raised =
      try
        ignore
          (Parallel.map_array pool4
             (fun i -> if i = bad then raise (Boom i) else i)
             (Array.init n Fun.id));
        false
      with Boom i -> i = bad
    in
    if not raised then Alcotest.failf "no propagation for position %d" bad;
    let r = Parallel.map_array pool4 (fun x -> x * 2) [| 1; 2; 3 |] in
    if r <> [| 2; 4; 6 |] then Alcotest.failf "pool wedged after %d" bad
  done;
  Alcotest.(check int) "live pools unchanged" live_before (Parallel.live ())

(* The cooperative-stop contract: a tripped [stop] drains the job
   cleanly (no exception, no busy workers), and hook exceptions
   propagate exactly like body exceptions. *)
let test_stop_drains_cleanly () =
  let count = Atomic.make 0 in
  let stop () = Atomic.get count >= 5 in
  ignore
    (Parallel.map_array ~stop pool4
       (fun _ -> Atomic.incr count)
       (Array.init 10_000 Fun.id));
  Alcotest.(check bool)
    "stop abandoned most of the range" true
    (Atomic.get count < 10_000);
  (* stop already true: map_array still seeds and returns a full-length
     array (contents discardable by contract). *)
  let r =
    Parallel.map_array
      ~stop:(fun () -> true)
      pool4
      (fun x -> x + 1)
      (Array.init 100 Fun.id)
  in
  Alcotest.(check int) "length preserved under stop" 100 (Array.length r);
  let raised =
    try
      ignore
        (Parallel.map_array
           ~on_chunk:(fun () -> failwith "chunk-boom")
           pool4 Fun.id (Array.init 100 Fun.id));
      false
    with Failure m -> m = "chunk-boom"
  in
  Alcotest.(check bool) "on_chunk exception propagates" true raised;
  let ok = Parallel.map_array pool4 (fun x -> x + 1) [| 1 |] in
  Alcotest.(check bool) "usable after hook failure" true (ok = [| 2 |])

let test_nested () =
  let outer = Array.init 40 (fun i -> i) in
  let got =
    Parallel.map_array pool4
      (fun x ->
        Array.fold_left ( + ) 0
          (Parallel.map_array pool4 (fun y -> x + y) (Array.init 10 Fun.id)))
      outer
  in
  Array.iteri
    (fun i v ->
      if v <> (10 * i) + 45 then Alcotest.failf "nested map wrong at %d" i)
    got

let test_sequential_bypass () =
  Alcotest.(check int) "domains pool1" 1 (Parallel.domains pool1);
  (* A domains=1 pool runs everything on the caller: side-effect order
     is exactly the sequential one. *)
  let seen = ref [] in
  let r =
    Parallel.map_array pool1
      (fun i ->
        seen := i :: !seen;
        i * i)
      (Array.init 5 Fun.id)
  in
  Alcotest.(check (list int)) "caller-order iteration" [ 4; 3; 2; 1; 0 ] !seen;
  Alcotest.(check (array int)) "results in place" [| 0; 1; 4; 9; 16 |] r

let test_shutdown_idempotent () =
  let p = Parallel.create ~domains:3 () in
  let r = Parallel.map_array p string_of_int (Array.init 10 Fun.id) in
  Alcotest.(check string) "works before shutdown" "9" r.(9);
  Parallel.shutdown p;
  (* The double shutdown and the post-shutdown use below are the point
     of this test: shutdown must be idempotent and the pool must
     degrade to sequential execution, exactly the misuse the
     handle-lifecycle rule exists to flag elsewhere. *)
  (* iqlint: allow handle-lifecycle *)
  Parallel.shutdown p;
  (* iqlint: allow handle-lifecycle *)
  let r = Parallel.map_array p (fun i -> i * i) (Array.init 10 Fun.id) in
  Alcotest.(check int) "sequential after shutdown" 81 r.(9)

(* --- determinism across IQ_DOMAINS settings ------------------------- *)

let instance_gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* n = int_range 20 80 in
    let* m = int_range 10 50 in
    let* d = int_range 2 4 in
    return (seed, n, m, d))

let make_instance (seed, n, m, d) =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5) ~m
      ~d ()
  in
  Instance.create ~data ~queries ()

let arb_instance =
  QCheck.make
    ~print:(fun (seed, n, m, d) ->
      Printf.sprintf "seed=%d n=%d m=%d d=%d" seed n m d)
    instance_gen

let same_min_cost_outcome (a : Min_cost.outcome option) b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Min_cost.strategy = b.Min_cost.strategy
      && a.Min_cost.total_cost = b.Min_cost.total_cost
      && a.Min_cost.incremental_cost = b.Min_cost.incremental_cost
      && a.Min_cost.hits_after = b.Min_cost.hits_after
      (* Evaluations are counted by an Atomic that every pool task
         bumps; a non-atomic counter would lose increments here. *)
      && a.Min_cost.evaluations = b.Min_cost.evaluations
  | _ -> false

let prop_search_deterministic_across_domains =
  QCheck.Test.make
    ~name:"Min-Cost/Max-Hit identical under IQ_DOMAINS=1 and IQ_DOMAINS=4"
    ~count:12 arb_instance (fun params ->
      let inst = make_instance params in
      let d = Instance.dim inst in
      let cost = Cost.euclidean d in
      (* Index build must shard identically. *)
      let idx1 = Query_index.build ~pool:pool1 inst in
      let idx4 = Query_index.build ~pool:pool4 inst in
      if Query_index.n_groups idx1 <> Query_index.n_groups idx4 then false
      else begin
        let prefixes_equal = ref true in
        for qi = 0 to Instance.n_queries inst - 1 do
          if
            (Query_index.group_of idx1 qi).Query_index.prefix
            <> (Query_index.group_of idx4 qi).Query_index.prefix
          then prefixes_equal := false
        done;
        !prefixes_equal
        && begin
             let target = 0 in
             let tau = 3 and beta = 0.25 in
             let mc pool idx =
               Min_cost.search ~pool
                 ~evaluator:(Evaluator.ese idx ~target)
                 ~cost ~target ~tau ()
             in
             let mh pool idx =
               Max_hit.search ~pool
                 ~evaluator:(Evaluator.ese idx ~target)
                 ~cost ~target ~beta ()
             in
             let mc1 = mc pool1 idx1 and mc4 = mc pool4 idx4 in
             let mh1 = mh pool1 idx1 and mh4 = mh pool4 idx4 in
             same_min_cost_outcome mc1 mc4
             && mh1.Max_hit.strategy = mh4.Max_hit.strategy
             && mh1.Max_hit.incremental_cost = mh4.Max_hit.incremental_cost
             && mh1.Max_hit.hits_after = mh4.Max_hit.hits_after
             && mh1.Max_hit.evaluations = mh4.Max_hit.evaluations
           end
      end)

let prop_parallel_evaluators_agree =
  QCheck.Test.make
    ~name:"naive/rta hit counts identical with and without a pool" ~count:10
    arb_instance (fun params ->
      let inst = make_instance params in
      let d = Instance.dim inst in
      let seed, _, _, _ = params in
      let rng = Workload.Rng.make (seed + 13) in
      let ok = ref true in
      let target = 0 in
      let seq_naive = Evaluator.naive inst ~target in
      let par_naive = Evaluator.naive ~pool:pool4 inst ~target in
      let seq_rta = Evaluator.rta inst ~target in
      let par_rta = Evaluator.rta ~pool:pool4 inst ~target in
      if seq_naive.Evaluator.base_hits <> par_naive.Evaluator.base_hits then
        ok := false;
      if seq_rta.Evaluator.base_hits <> par_rta.Evaluator.base_hits then
        ok := false;
      for _ = 1 to 5 do
        let s =
          Array.init d (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.5)
        in
        if
          seq_naive.Evaluator.hit_count s <> par_naive.Evaluator.hit_count s
          || seq_rta.Evaluator.hit_count s <> par_rta.Evaluator.hit_count s
        then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "IQ_DOMAINS default" `Quick test_default_domains;
    Alcotest.test_case "map_array preserves order" `Quick test_map_array_order;
    Alcotest.test_case "map_array = Array.map" `Quick
      test_map_array_matches_sequential;
    Alcotest.test_case "map_array covers range" `Quick test_map_array_covers;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "raise at every position drains" `Quick
      test_raise_at_every_position;
    Alcotest.test_case "cooperative stop drains" `Quick
      test_stop_drains_cleanly;
    Alcotest.test_case "nested parallelism" `Quick test_nested;
    Alcotest.test_case "domains=1 sequential bypass" `Quick
      test_sequential_bypass;
    Alcotest.test_case "shutdown idempotent + degrade" `Quick
      test_shutdown_idempotent;
    QCheck_alcotest.to_alcotest prop_search_deterministic_across_domains;
    QCheck_alcotest.to_alcotest prop_parallel_evaluators_agree;
  ]
