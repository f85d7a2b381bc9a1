open Iq

(* --- Nonlinear (Sections 5.2 / 5.3) --- *)

let test_monomial_utility () =
  let map =
    [| { Nonlinear.attr = 0; degree = 2 }; { Nonlinear.attr = 1; degree = 1 } |]
  in
  let u = Nonlinear.monomial_utility ~dim_in:2 map in
  let f = u.Topk.Utility.features [| 3.; 5. |] in
  Alcotest.(check (float 1e-9)) "x0^2" 9. f.(0);
  Alcotest.(check (float 1e-9)) "x1" 5. f.(1)

let test_invert_strategy_roundtrip () =
  let map =
    [| { Nonlinear.attr = 0; degree = 3 }; { Nonlinear.attr = 1; degree = 2 } |]
  in
  let u = Nonlinear.monomial_utility ~dim_in:2 map in
  let raw = [| 0.5; 0.8 |] in
  let s_feature = [| 0.2; -0.1 |] in
  match Nonlinear.invert_strategy map ~raw ~s_feature with
  | None -> Alcotest.fail "expected inversion"
  | Some s_raw ->
      (* Applying the raw adjustment must reproduce the improved
         feature vector. *)
      let raw' = Geom.Vec.add raw s_raw in
      let f' = u.Topk.Utility.features raw' in
      let expected = Geom.Vec.add (u.Topk.Utility.features raw) s_feature in
      Alcotest.(check bool)
        "features match after inversion" true
        (Geom.Vec.equal ~eps:1e-9 f' expected)

let test_invert_no_real_root () =
  let map = [| { Nonlinear.attr = 0; degree = 2 } |] in
  (* New feature value 0.04 - 0.5 < 0 with even degree: no real root. *)
  Alcotest.(check bool)
    "even-degree negative rejected" true
    (Nonlinear.invert_strategy map ~raw:[| 0.2 |] ~s_feature:[| -0.5 |] = None)

let test_invert_odd_root_negative () =
  let map = [| { Nonlinear.attr = 0; degree = 3 } |] in
  match Nonlinear.invert_strategy map ~raw:[| 0.0 |] ~s_feature:[| -0.008 |] with
  | None -> Alcotest.fail "odd roots of negatives exist"
  | Some s -> Alcotest.(check (float 1e-9)) "cube root" (-0.2) s.(0)

let test_generic_function () =
  (* Two heterogeneous families over the Car dataset (Section 5.3). *)
  let u = Topk.Utility.custom ~name:"u" ~dim_in:3 [ Topk.Utility.sqrt_term 0 ] in
  let v =
    Topk.Utility.custom ~name:"v" ~dim_in:3
      [ (fun c -> c.(2) /. Float.max 1e-9 c.(0)); (fun c -> c.(1) ** 2.) ]
  in
  let g = Nonlinear.generic [ u; v ] in
  Alcotest.(check int) "combined dims" 3 g.Topk.Utility.dim_out;
  (* A query in family u zero-pads family v's block. *)
  let q = Topk.Query.make ~k:1 [| 2. |] in
  let embedded = Nonlinear.embed_query ~families:[ u; v ] ~family:0 q in
  Alcotest.(check int) "embedded arity" 3 (Geom.Vec.dim embedded.Topk.Query.weights);
  Alcotest.(check (float 0.)) "block v zero" 0. embedded.Topk.Query.weights.(1);
  let car = [| 4.; 3.; 8. |] in
  Alcotest.(check (float 1e-9))
    "embedded score = family score" (2. *. sqrt 4.)
    (Topk.Utility.score g ~weights:embedded.Topk.Query.weights car)

let test_generic_end_to_end () =
  (* Mixed workload: some users rank by family u, others by family v;
     IQ processing works in the unified space. *)
  let rng = Workload.Rng.make 55 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:60 ~d:2 in
  let u = Topk.Utility.linear 2 in
  let v = Topk.Utility.polynomial ~dim_in:2 ~terms:[ [ (0, 2) ]; [ (1, 2) ] ] in
  let g = Nonlinear.generic [ u; v ] in
  let queries =
    List.init 30 (fun i ->
        let fam = i mod 2 in
        let q =
          Topk.Query.make ~id:i ~k:(1 + Workload.Rng.int rng 4)
            (Array.init 2 (fun _ -> Workload.Rng.uniform rng))
        in
        Nonlinear.embed_query ~families:[ u; v ] ~family:fam q)
  in
  let inst = Instance.create ~utility:g ~data ~queries () in
  let idx = Query_index.build inst in
  let ev = Evaluator.ese idx ~target:0 in
  let naive = Evaluator.naive inst ~target:0 in
  Alcotest.(check int) "ESE = naive on generic" naive.Evaluator.base_hits ev.Evaluator.base_hits;
  match
    Min_cost.search ~evaluator:ev ~cost:(Cost.euclidean 4) ~target:0 ~tau:5 ()
  with
  | Some o -> Alcotest.(check bool) "tau reached" true (o.Min_cost.hits_after >= 5)
  | None -> Alcotest.fail "generic-function search failed"

(* --- Data updating (Section 4.3) --- *)

let fresh_index seed =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:80 ~d:3 in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 6)
      ~m:60 ~d:3 ()
  in
  let inst = Instance.create ~data ~queries () in
  Query_index.build inst

(* Same instance shape, same groups and the same membership everywhere. *)
let assert_same ~what idx fresh =
  let inst = Query_index.instance idx in
  let inst' = Query_index.instance fresh in
  Alcotest.(check int)
    (what ^ ": objects") (Instance.n_objects inst') (Instance.n_objects inst);
  Alcotest.(check int)
    (what ^ ": queries") (Instance.n_queries inst') (Instance.n_queries inst);
  Alcotest.(check int)
    (what ^ ": groups") (Query_index.n_groups fresh) (Query_index.n_groups idx);
  for id = 0 to Instance.n_objects inst - 1 do
    for q = 0 to Instance.n_queries inst - 1 do
      if Query_index.member idx ~q id <> Query_index.member fresh ~q id then
        Alcotest.failf "%s: stale membership id=%d q=%d" what id q
    done
  done

let assert_index_consistent idx =
  assert_same ~what:"successor" idx (Query_index.build (Query_index.instance idx))

(* Run a copy-on-write update on a fresh index, then check the parent
   still equals the fresh build of its instance taken before the
   update: no update may write through to the generation it came from.
   Returns the (checked) parent and the update's result. *)
let on_parent seed update =
  let idx = fresh_index seed in
  let before = Query_index.build (Query_index.instance idx) in
  let r = update idx in
  assert_same ~what:"parent" idx before;
  (idx, r)

let test_add_query () =
  let _, (idx, qi) =
    on_parent 101 (fun idx ->
        Query_index.with_query_added idx (Topk.Query.make ~k:3 [| 0.2; 0.3; 0.5 |]))
  in
  Alcotest.(check int) "appended" (Instance.n_queries (Query_index.instance idx) - 1) qi;
  assert_index_consistent idx

let test_add_query_hint_hits_for_duplicate () =
  let parent, (idx, _) =
    on_parent 102 (fun idx ->
        let inst = Query_index.instance idx in
        (* Re-adding an existing query point must verify via the kNN hint. *)
        let w = Geom.Vec.copy inst.Instance.queries.(0).Topk.Query.weights in
        let k = inst.Instance.queries.(0).Topk.Query.k in
        Query_index.with_query_added idx (Topk.Query.make ~k w))
  in
  Alcotest.(check (pair int int))
    "parent hint stats unmoved" (0, 0) (Query_index.hint_stats parent);
  let hits, misses = Query_index.hint_stats idx in
  Alcotest.(check bool)
    (Printf.sprintf "hint hit (%d/%d)" hits misses)
    true (hits >= 1);
  assert_index_consistent idx

let test_add_query_k_guard () =
  snd @@ on_parent 103 (fun idx ->
      Alcotest.(check bool)
        "too-deep k rejected" true
        (try
           ignore
             (Query_index.with_query_added idx
                (Topk.Query.make ~k:100 [| 1.; 1.; 1. |]));
           false
         with Invalid_argument _ -> true))

let test_remove_query () =
  let parent, idx =
    on_parent 104 (fun idx -> Query_index.with_query_removed idx 10)
  in
  Alcotest.(check int)
    "one fewer"
    (Instance.n_queries (Query_index.instance parent) - 1)
    (Instance.n_queries (Query_index.instance idx));
  assert_index_consistent idx

let test_add_object () =
  (* A dominant object must enter many prefixes. *)
  let _, (idx, id) =
    on_parent 105 (fun idx ->
        Query_index.with_object_added idx [| 0.01; 0.01; 0.01 |])
  in
  Alcotest.(check int) "id appended" (Instance.n_objects (Query_index.instance idx) - 1) id;
  assert_index_consistent idx;
  (* It should now hit top-1 for every query (it dominates everything). *)
  let inst = Query_index.instance idx in
  for q = 0 to Instance.n_queries inst - 1 do
    Alcotest.(check bool)
      "dominant object hits all" true
      (Query_index.member idx ~q id)
  done

let test_add_object_mediocre () =
  (* A dominated object should change nothing. *)
  let parent, (idx, _) =
    on_parent 106 (fun idx ->
        Query_index.with_object_added idx [| 0.99; 0.99; 0.99 |])
  in
  assert_index_consistent idx;
  Alcotest.(check int)
    "groups unchanged" (Query_index.n_groups parent) (Query_index.n_groups idx)

let test_remove_object () =
  (* Remove an object that appears in prefixes (pick a rival). *)
  let _, idx =
    on_parent 107 (fun idx ->
        let victim = (Query_index.candidate_rivals idx).(0) in
        Query_index.with_object_removed idx victim)
  in
  assert_index_consistent idx

let test_remove_uninvolved_object () =
  snd @@ on_parent 108 (fun idx ->
      let inst = Query_index.instance idx in
      let rivals = Query_index.candidate_rivals idx in
      let is_rival id = Array.exists (fun r -> r = id) rivals in
      let victim = ref (-1) in
      for id = Instance.n_objects inst - 1 downto 0 do
        if !victim < 0 && not (is_rival id) then victim := id
      done;
      if !victim >= 0 then
        assert_index_consistent (Query_index.with_object_removed idx !victim))

let test_update_sequence () =
  (* A realistic mixed maintenance sequence stays consistent. It opens
     by moving a rival out of the prefixes it bounds, so the prefixes
     [with_object_updated] recomputes are the parent's own. *)
  let _, idx =
    on_parent 109 (fun idx ->
        let rival = (Query_index.candidate_rivals idx).(0) in
        let idx = Query_index.with_object_updated idx rival [| 0.99; 0.99; 0.99 |] in
        let idx, _ = Query_index.with_object_added idx [| 0.3; 0.1; 0.5 |] in
        let idx, _ =
          Query_index.with_query_added idx (Topk.Query.make ~k:2 [| 0.5; 0.5; 0.1 |])
        in
        let idx = Query_index.with_object_removed idx 3 in
        let idx = Query_index.with_query_removed idx 0 in
        let idx, _ =
          Query_index.with_query_added idx (Topk.Query.make ~k:4 [| 0.1; 0.8; 0.3 |])
        in
        fst (Query_index.with_object_added idx [| 0.05; 0.6; 0.2 |]))
  in
  assert_index_consistent idx

let test_save_load_roundtrip () =
  let idx = fresh_index 111 in
  let path = Filename.temp_file "iq_index" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Query_index.save idx path;
      let loaded = Query_index.load path in
      let inst = Query_index.instance idx in
      Alcotest.(check int)
        "same object count"
        (Instance.n_objects inst)
        (Instance.n_objects (Query_index.instance loaded));
      Alcotest.(check int) "same depth" (Query_index.depth idx) (Query_index.depth loaded);
      Alcotest.(check int) "same groups" (Query_index.n_groups idx) (Query_index.n_groups loaded);
      for id = 0 to Instance.n_objects inst - 1 do
        for q = 0 to Instance.n_queries inst - 1 do
          if Query_index.member idx ~q id <> Query_index.member loaded ~q id
          then Alcotest.failf "loaded membership mismatch id=%d q=%d" id q
        done
      done;
      (* A search on the loaded index behaves identically. *)
      let cost = Cost.euclidean 3 in
      let a =
        Min_cost.search ~evaluator:(Evaluator.ese idx ~target:0) ~cost
          ~target:0 ~tau:5 ()
      in
      let b =
        Min_cost.search
          ~evaluator:(Evaluator.ese loaded ~target:0)
          ~cost ~target:0 ~tau:5 ()
      in
      match (a, b) with
      | Some x, Some y ->
          Alcotest.(check (float 1e-9))
            "same cost" x.Min_cost.total_cost y.Min_cost.total_cost
      | None, None -> ()
      | _ -> Alcotest.fail "feasibility differs after reload")

let test_load_rejects_garbage () =
  let path = Filename.temp_file "iq_bad" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Marshal.to_channel oc (1, "not an index") [];
      close_out oc;
      Alcotest.(check bool)
        "garbage rejected" true
        (try
           ignore (Query_index.load path);
           false
         with Invalid_argument _ | Failure _ -> true))

let test_prefix_filter () =
  let idx = fresh_index 110 in
  let filter = Query_index.prefix_filter idx in
  Array.iter
    (fun id ->
      Alcotest.(check bool) "rival in filter" true (Bloom.mem filter id))
    (Query_index.candidate_rivals idx)

let suite =
  [
    Alcotest.test_case "monomial utility" `Quick test_monomial_utility;
    Alcotest.test_case "invert strategy round trip" `Quick test_invert_strategy_roundtrip;
    Alcotest.test_case "no real root" `Quick test_invert_no_real_root;
    Alcotest.test_case "odd root of negative" `Quick test_invert_odd_root_negative;
    Alcotest.test_case "generic function (Sec 5.3)" `Quick test_generic_function;
    Alcotest.test_case "generic end-to-end" `Quick test_generic_end_to_end;
    Alcotest.test_case "add query" `Quick test_add_query;
    Alcotest.test_case "add query kNN hint" `Quick test_add_query_hint_hits_for_duplicate;
    Alcotest.test_case "add query k guard" `Quick test_add_query_k_guard;
    Alcotest.test_case "remove query" `Quick test_remove_query;
    Alcotest.test_case "add dominant object" `Quick test_add_object;
    Alcotest.test_case "add dominated object" `Quick test_add_object_mediocre;
    Alcotest.test_case "remove rival object" `Quick test_remove_object;
    Alcotest.test_case "remove uninvolved object" `Quick test_remove_uninvolved_object;
    Alcotest.test_case "mixed update sequence" `Quick test_update_sequence;
    Alcotest.test_case "prefix bloom filter" `Quick test_prefix_filter;
    Alcotest.test_case "save/load round trip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
  ]
