open Iq

let make_instance ?(seed = 31) ?(n = 120) ?(m = 80) ?(d = 3) ?(kmax = 8)
    ?(kind = Workload.Datagen.Independent) () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng kind ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, kmax)
      ~m ~d ()
  in
  Instance.create ~data ~queries ()

(* --- Query_index --- *)

let test_index_membership_matches_eval () =
  let inst = make_instance () in
  let idx = Query_index.build inst in
  for id = 0 to Instance.n_objects inst - 1 do
    for q = 0 to Instance.n_queries inst - 1 do
      let w = inst.Instance.queries.(q).Topk.Query.weights in
      let k = inst.Instance.queries.(q).Topk.Query.k in
      let expected = Topk.Eval.hits inst.Instance.features ~weights:w ~k id in
      if Query_index.member idx ~q id <> expected then
        Alcotest.failf "membership mismatch id=%d q=%d" id q
    done
  done

let test_index_groups_cover_queries () =
  let inst = make_instance () in
  let idx = Query_index.build inst in
  let m = Instance.n_queries inst in
  let seen = Array.make m 0 in
  Array.iter
    (fun g ->
      Array.iter (fun qi -> seen.(qi) <- seen.(qi) + 1) g.Query_index.members)
    (Query_index.groups idx);
  Array.iteri
    (fun qi c -> Alcotest.(check int) (Printf.sprintf "query %d" qi) 1 c)
    seen

let test_index_prefix_sorted () =
  let inst = make_instance () in
  let idx = Query_index.build inst in
  Array.iter
    (fun g ->
      let qi = g.Query_index.members.(0) in
      let w = inst.Instance.queries.(qi).Topk.Query.weights in
      let prefix = g.Query_index.prefix in
      for i = 0 to Array.length prefix - 2 do
        let si = Geom.Vec.dot w inst.Instance.features.(prefix.(i)) in
        let sj = Geom.Vec.dot w inst.Instance.features.(prefix.(i + 1)) in
        Alcotest.(check bool)
          "prefix ordered" true
          (si < sj || (si = sj && prefix.(i) < prefix.(i + 1)))
      done)
    (Query_index.groups idx)

let test_kth_other () =
  let inst = make_instance ~n:50 ~m:30 () in
  let idx = Query_index.build inst in
  for target = 0 to 9 do
    for q = 0 to Instance.n_queries inst - 1 do
      let w = inst.Instance.queries.(q).Topk.Query.weights in
      let k = inst.Instance.queries.(q).Topk.Query.k in
      let expected =
        Topk.Eval.kth_score_excluding inst.Instance.features ~weights:w ~k
          ~excl:target
      in
      let got = Query_index.kth_other idx ~q ~target in
      match (expected, got) with
      | Some (id, _), Some id' ->
          if id <> id' then Alcotest.failf "kth mismatch t=%d q=%d" target q
      | None, None -> ()
      | _ -> Alcotest.failf "kth presence mismatch t=%d q=%d" target q
    done
  done

let test_slab_search_exact () =
  let inst = make_instance ~n:40 ~m:200 () in
  let idx = Query_index.build inst in
  let rng = Workload.Rng.make 77 in
  let point () = Array.init 3 (fun _ -> Workload.Rng.uniform rng) in
  for trial = 1 to 30 do
    let rival = point () and before = point () in
    (* Every fifth trial starts on the rival: a tie under every query. *)
    let before = if trial mod 5 = 0 then Array.copy rival else before in
    let after = point () in
    let got = ref [] in
    Query_index.slab_queries idx ~rival ~before ~after (fun qi ->
        got := qi :: !got);
    let expected = ref [] in
    Array.iteri
      (fun qi (q : Topk.Query.t) ->
        let w = q.Topk.Query.weights in
        let sr = Geom.Vec.dot w rival in
        let sb = Geom.Vec.dot w before and sa = Geom.Vec.dot w after in
        if not ((sb > sr && sa > sr) || (sb < sr && sa < sr)) then
          expected := qi :: !expected)
      inst.Instance.queries;
    Alcotest.(check (list int))
      "slab = brute force"
      (List.sort Int.compare !expected)
      (List.sort Int.compare !got)
  done

(* --- ESE vs naive (the paper's core equivalence) --- *)

let ese_matches_naive ~kind ~seed () =
  let inst = make_instance ~seed ~kind () in
  let idx = Query_index.build inst in
  let rng = Workload.Rng.make (seed * 13) in
  for target = 0 to 9 do
    let ese = Evaluator.ese idx ~target in
    let naive = Evaluator.naive inst ~target in
    Alcotest.(check int)
      (Printf.sprintf "base hits target=%d" target)
      naive.Evaluator.base_hits ese.Evaluator.base_hits;
    for trial = 1 to 8 do
      let s =
        Array.init 3 (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.6)
      in
      let h_ese = ese.Evaluator.hit_count s in
      let h_naive = naive.Evaluator.hit_count s in
      if h_ese <> h_naive then
        Alcotest.failf "H mismatch target=%d trial=%d: ese=%d naive=%d" target
          trial h_ese h_naive
    done
  done

let test_ese_zero_strategy () =
  let inst = make_instance () in
  let idx = Query_index.build inst in
  let state = Ese.prepare idx ~target:0 in
  Alcotest.(check int)
    "H(p + 0) = H(p)" (Ese.base_hits state)
    (Ese.evaluate state ~s:(Strategy.zero 3))

let test_ese_fact1_unmoved_queries () =
  (* Fact 1: queries outside every affected subspace keep their result. *)
  let inst = make_instance ~n:60 ~m:120 () in
  let idx = Query_index.build inst in
  let state = Ese.prepare idx ~target:3 in
  let s = [| -0.2; 0.05; -0.1 |] in
  let dirty = Ese.dirty_queries state ~s in
  let naive = Evaluator.naive inst ~target:3 in
  for q = 0 to Instance.n_queries inst - 1 do
    if not (List.mem q dirty) then begin
      let before = Ese.member state ~q in
      let after = naive.Evaluator.member ~q s in
      if before <> after then
        Alcotest.failf "untouched query %d changed result" q
    end
  done

let test_ese_member_after_matches_naive () =
  let inst = make_instance ~n:80 ~m:60 ~seed:41 () in
  let idx = Query_index.build inst in
  let state = Ese.prepare idx ~target:7 in
  let naive = Evaluator.naive inst ~target:7 in
  let rng = Workload.Rng.make 5 in
  for _ = 1 to 10 do
    let s = Array.init 3 (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.5) in
    for q = 0 to Instance.n_queries inst - 1 do
      if Ese.member_after state ~s ~q <> naive.Evaluator.member ~q s then
        Alcotest.failf "member_after mismatch q=%d" q
    done
  done

let test_hit_constraint_is_tight () =
  (* Taking exactly the min step for query q must make the target hit q. *)
  let inst = make_instance ~n:100 ~m:50 ~seed:51 () in
  let idx = Query_index.build inst in
  let target = 11 in
  let state = Ese.prepare idx ~target in
  let cost = Cost.euclidean 3 in
  let current = inst.Instance.features.(target) in
  for q = 0 to Instance.n_queries inst - 1 do
    if not (Ese.member state ~q) then
      match Ese.hit_constraint state ~q ~current with
      | None -> Alcotest.failf "non-member with no constraint q=%d" q
      | Some (a, b) -> (
          match
            cost.Cost.min_step ~a ~b ~bounds:(Lp.Projection.unbounded 3)
          with
          | None -> Alcotest.failf "no step for q=%d" q
          | Some s ->
              if not (Ese.member_after state ~s ~q) then
                Alcotest.failf "min step does not hit q=%d" q)
  done

let test_dirty_between_covers_changes () =
  (* Any membership difference between two strategy positions must lie
     in their dirty_between set — the invariant the combinatorial
     search relies on for its incremental membership caches. Checked on
     the slab search of an unpruned state and on the reach band of a
     pruned one, which lists each query once. *)
  let inst = make_instance ~n:70 ~m:90 ~seed:47 () in
  let idx = Query_index.build inst in
  let full = Ese.prepare ~prune:false idx ~target:4 in
  let kth = Ese.prepare idx ~target:4 in
  Alcotest.(check bool) "Algorithm 2 state is unpruned" false (Ese.pruned full);
  Alcotest.(check bool) "default state is pruned" true (Ese.pruned kth);
  let rng = Workload.Rng.make 29 in
  for _ = 1 to 12 do
    let s1 = Array.init 3 (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.4) in
    let s2 = Array.init 3 (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.4) in
    List.iter
      (fun state ->
        let dirty = Ese.dirty_between state ~s_from:s1 ~s_to:s2 in
        if List.length (List.sort_uniq Int.compare dirty) <> List.length dirty
        then Alcotest.fail "dirty_between listed a query twice";
        for q = 0 to Instance.n_queries inst - 1 do
          let m1 = Ese.member_after state ~s:s1 ~q in
          let m2 = Ese.member_after state ~s:s2 ~q in
          if m1 <> m2 && not (List.mem q dirty) then
            Alcotest.failf "change at q=%d missed by dirty_between (pruned=%b)"
              q (Ese.pruned state)
        done)
      [ full; kth ]
  done

let test_evaluations_counter () =
  let inst = make_instance () in
  let idx = Query_index.build inst in
  let ese = Evaluator.ese idx ~target:0 in
  let before = ese.Evaluator.evaluations () in
  ignore (ese.Evaluator.hit_count [| 0.1; 0.; 0. |]);
  ignore (ese.Evaluator.hit_count [| 0.; 0.1; 0. |]);
  Alcotest.(check int) "2 evaluations" (before + 2) (ese.Evaluator.evaluations ())

let test_rta_evaluator_matches () =
  let inst = make_instance ~n:90 ~m:40 ~seed:61 () in
  let naive = Evaluator.naive inst ~target:2 in
  let rta = Evaluator.rta inst ~target:2 in
  Alcotest.(check int) "base" naive.Evaluator.base_hits rta.Evaluator.base_hits;
  let rng = Workload.Rng.make 8 in
  for _ = 1 to 10 do
    let s = Array.init 3 (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.4) in
    Alcotest.(check int)
      "rta = naive"
      (naive.Evaluator.hit_count s)
      (rta.Evaluator.hit_count s)
  done

let suite =
  [
    Alcotest.test_case "index membership = eval" `Quick test_index_membership_matches_eval;
    Alcotest.test_case "groups cover queries" `Quick test_index_groups_cover_queries;
    Alcotest.test_case "prefixes sorted" `Quick test_index_prefix_sorted;
    Alcotest.test_case "kth other (Eq 6 threshold)" `Quick test_kth_other;
    Alcotest.test_case "slab search exact" `Quick test_slab_search_exact;
    Alcotest.test_case "ESE = naive (IN)" `Quick
      (ese_matches_naive ~kind:Workload.Datagen.Independent ~seed:31);
    Alcotest.test_case "ESE = naive (CO)" `Quick
      (ese_matches_naive ~kind:Workload.Datagen.Correlated ~seed:32);
    Alcotest.test_case "ESE = naive (AC)" `Quick
      (ese_matches_naive ~kind:Workload.Datagen.Anticorrelated ~seed:33);
    Alcotest.test_case "zero strategy" `Quick test_ese_zero_strategy;
    Alcotest.test_case "Fact 1: unmoved queries" `Quick test_ese_fact1_unmoved_queries;
    Alcotest.test_case "member_after = naive" `Quick test_ese_member_after_matches_naive;
    Alcotest.test_case "hit constraint tight" `Quick test_hit_constraint_is_tight;
    Alcotest.test_case "dirty_between covers changes" `Quick test_dirty_between_covers_changes;
    Alcotest.test_case "evaluation counter" `Quick test_evaluations_counter;
    Alcotest.test_case "RTA evaluator = naive" `Quick test_rta_evaluator_matches;
  ]
