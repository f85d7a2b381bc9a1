(* Iq.Engine: the lifecycle-managed serving facade. Covers the
   generation-tracked cache (mutation -> transparent re-preparation),
   the typed error taxonomy, the pluggable backends, and the contract
   that the facade is byte-identical to wiring the search layer
   directly. *)

open Iq

let pool1 = Parallel.create ~domains:1 ()
let pool4 = Parallel.create ~domains:4 ()

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
  | Error e -> Alcotest.failf "unexpected engine error: %s" (Engine.Error.to_string e)

let engine ?backend ?(pool = pool1) inst =
  ok (Engine.create ?backend ~pool inst)

(* --- lifecycle: mutations, generations, transparent re-preparation --- *)

let test_lifecycle_reprepare () =
  let inst = make_instance () in
  let e = engine inst in
  let target = 5 in
  Alcotest.(check int) "starts at generation 0" 0 (Engine.generation e);
  let h0 = ok (Engine.hits e ~target) in
  let st0 = Engine.stats e in
  Alcotest.(check int) "one cached target" 1 st0.Engine.cached_targets;
  Alcotest.(check int) "no repreparations yet" 0 st0.Engine.repreparations;
  (* Move the target itself: its hit count must change under the same
     engine exactly as under a fresh build. *)
  let moved = Array.map (fun v -> Float.max 0. (v -. 0.4)) inst.Instance.raw.(target) in
  ok (Engine.update_object e target moved);
  Alcotest.(check int) "mutation bumps generation" 1 (Engine.generation e);
  let h1 = ok (Engine.hits e ~target) in
  let fresh = engine (Engine.instance e) in
  Alcotest.(check int)
    "re-prepared hits = fresh-build hits"
    (ok (Engine.hits fresh ~target))
    h1;
  let st1 = Engine.stats e in
  Alcotest.(check int) "one repreparation recorded" 1 st1.Engine.repreparations;
  Alcotest.(check int) "no stale entries after re-use" 0 st1.Engine.stale_cached;
  ignore h0

let test_hits_match_direct_membership () =
  let inst = make_instance ~seed:31 () in
  let e = engine inst in
  let target = 0 in
  let count = ref 0 in
  for q = 0 to Instance.n_queries inst - 1 do
    if ok (Engine.member e ~target ~q) then incr count
  done;
  Alcotest.(check int) "hits = #member" (ok (Engine.hits e ~target)) !count

let test_per_call_evaluations () =
  let inst = make_instance ~seed:19 () in
  let e = engine inst in
  let cost = Cost.euclidean (Instance.dim inst) in
  let o1 = ok (Engine.min_cost e ~cost ~target:2 ~tau:4) in
  let o2 = ok (Engine.min_cost e ~cost ~target:2 ~tau:4) in
  (* The cached evaluator accumulates, but each outcome reports only
     its own call's work. *)
  Alcotest.(check int)
    "identical repeated call, identical evaluations" o1.Min_cost.evaluations
    o2.Min_cost.evaluations;
  Alcotest.(check bool)
    "evaluations are per-call, not cumulative" true
    (o2.Min_cost.evaluations > 0
    && Engine.(stats e).Engine.evaluations
       >= o1.Min_cost.evaluations + o2.Min_cost.evaluations)

(* --- engine vs direct wiring: byte-identical searches ---------------- *)

let check_engine_matches_direct pool =
  let inst = make_instance ~seed:23 ~n:150 ~m:80 () in
  let e = ok (Engine.create ~pool inst) in
  let d = Instance.dim inst in
  let cost = Cost.euclidean d in
  let index = Query_index.build ~pool inst in
  List.iter
    (fun target ->
      let direct_mc =
        Min_cost.search ~pool ~evaluator:(Evaluator.ese index ~target) ~cost
          ~target ~tau:5 ()
      in
      (match (Engine.min_cost e ~cost ~target ~tau:5, direct_mc) with
      | Ok a, Some b ->
          if a <> b then Alcotest.failf "min_cost diverges at target %d" target
      | Error Engine.Error.Infeasible, None -> ()
      | _ -> Alcotest.failf "min_cost feasibility diverges at target %d" target);
      let direct_mh =
        Max_hit.search ~pool ~evaluator:(Evaluator.ese index ~target) ~cost
          ~target ~beta:0.3 ()
      in
      let via = ok (Engine.max_hit e ~cost ~target ~beta:0.3) in
      if via <> direct_mh then
        Alcotest.failf "max_hit diverges at target %d" target)
    [ 0; 7; 42 ]

let test_engine_matches_direct_seq () = check_engine_matches_direct pool1

let test_engine_matches_direct_par () = check_engine_matches_direct pool4

(* --- typed errors ---------------------------------------------------- *)

let test_errors () =
  let inst = make_instance ~seed:5 () in
  let e = engine inst in
  let d = Instance.dim inst in
  let cost = Cost.euclidean d in
  let fail_as expected = function
    | Error got ->
        Alcotest.(check string)
          "error" expected
          (Engine.Error.to_string got)
    | Ok _ -> Alcotest.failf "expected error: %s" expected
  in
  fail_as
    (Engine.Error.to_string
       (Engine.Error.Unknown_target
          { id = 9999; n_objects = Instance.n_objects inst }))
    (Engine.hits e ~target:9999);
  fail_as
    (Engine.Error.to_string (Engine.Error.Unknown_target { id = -1; n_objects = Instance.n_objects inst }))
    (Engine.min_cost e ~cost ~target:(-1) ~tau:3);
  fail_as
    (Engine.Error.to_string (Engine.Error.Dim_mismatch { expected = d; got = d + 2 }))
    (Engine.min_cost e ~cost:(Cost.euclidean (d + 2)) ~target:0 ~tau:3);
  fail_as
    (Engine.Error.to_string
       (Engine.Error.Unknown_query { q = 10_000; n_queries = Instance.n_queries inst }))
    (Engine.member e ~target:0 ~q:10_000);
  fail_as
    (Engine.Error.to_string (Engine.Error.Budget_exhausted (-0.5)))
    (Engine.max_hit e ~cost ~target:0 ~beta:(-0.5));
  fail_as
    (Engine.Error.to_string Engine.Error.Empty_targets)
    (Engine.min_cost_multi e ~costs:[] ~tau:3);
  (match Engine.min_cost e ~cost ~target:0 ~tau:(Instance.n_queries inst + 1) with
  | Error Engine.Error.Infeasible -> ()
  | Ok _ -> Alcotest.fail "tau > |Q| must be infeasible"
  | Error err -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string err));
  (match
     Engine.add_query e
       (Topk.Query.make ~k:10_000 (Array.init d (fun _ -> 0.5)))
   with
  | Error (Engine.Error.Depth_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "huge k must exceed index depth"
  | Error err -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string err));
  (match Engine.backend_of_name "frobnicate" with
  | Error (Engine.Error.Unknown_backend "frobnicate") -> ()
  | _ -> Alcotest.fail "unknown backend name must be rejected")

(* --- pluggable backends ---------------------------------------------- *)

let test_backends_agree () =
  let inst = make_instance ~seed:47 ~n:90 ~m:40 () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let by_name name =
    engine ~backend:(ok (Engine.backend_of_name name)) inst
  in
  let ese = by_name "ese" and scan = by_name "scan" and rta = by_name "rta" in
  Alcotest.(check string) "ese name" "ese" (Engine.backend_name ese);
  Alcotest.(check string) "scan name" "scan" (Engine.backend_name scan);
  Alcotest.(check string) "rta name" "rta" (Engine.backend_name rta);
  List.iter
    (fun target ->
      let h = ok (Engine.hits ese ~target) in
      Alcotest.(check int) "scan hits agree" h (ok (Engine.hits scan ~target));
      Alcotest.(check int) "rta hits agree" h (ok (Engine.hits rta ~target));
      let o = Engine.min_cost ese ~cost ~target ~tau:4 in
      let strategy = function
        | Ok (o : Min_cost.outcome) -> Some o.Min_cost.strategy
        | Error _ -> None
      in
      Alcotest.(check bool)
        "scan strategy agrees" true
        (strategy o = strategy (Engine.min_cost scan ~cost ~target ~tau:4));
      Alcotest.(check bool)
        "rta strategy agrees" true
        (strategy o = strategy (Engine.min_cost rta ~cost ~target ~tau:4)))
    [ 1; 33 ]

let test_backend_aliases () =
  List.iter
    (fun (alias, canonical) ->
      match Engine.backend_of_name alias with
      | Ok (module B : Engine.BACKEND) ->
          Alcotest.(check string) alias canonical B.name
      | Error e -> Alcotest.failf "%s rejected: %s" alias (Engine.Error.to_string e))
    [
      ("ese", "ese"); ("Efficient-IQ", "ese"); ("efficient", "ese");
      ("scan", "scan"); ("naive", "scan");
      ("rta", "rta"); ("RTA-IQ", "rta");
    ]

let test_dirty_queries () =
  let inst = make_instance ~seed:3 () in
  let e = engine inst in
  let d = Instance.dim inst in
  Alcotest.(check (list int))
    "zero move dirties nothing" []
    (ok (Engine.dirty_queries e ~target:0 ~s:(Geom.Vec.zero d)));
  let scan = engine ~backend:(module Engine.Scan_backend) inst in
  Alcotest.(check int)
    "scan backend reports all queries conservatively"
    (Instance.n_queries inst)
    (List.length (ok (Engine.dirty_queries scan ~target:0 ~s:(Geom.Vec.zero d))))

(* --- multi-target through the cached states -------------------------- *)

let test_multi_uses_cached_states () =
  let inst = make_instance ~seed:61 ~n:100 ~m:50 () in
  let e = engine inst in
  let cost = Cost.euclidean (Instance.dim inst) in
  let costs = [ (2, cost); (9, cost) ] in
  let via_engine = ok (Engine.min_cost_multi e ~costs ~tau:6) in
  let index = Query_index.build ~pool:pool1 inst in
  (match Combinatorial.min_cost ~index ~costs ~tau:6 () with
  | Some direct ->
      Alcotest.(check bool) "multi = direct combinatorial" true (via_engine = direct)
  | None -> Alcotest.fail "direct combinatorial infeasible");
  let mh_engine = ok (Engine.max_hit_multi e ~costs ~beta:0.4) in
  let mh_direct = Combinatorial.max_hit ~index ~costs ~beta:0.4 () in
  Alcotest.(check bool) "multi max-hit = direct" true (mh_engine = mh_direct)

(* --- QCheck: any interleaving matches a from-scratch rebuild --------- *)

type op = Add_query of int | Add_object of int | Update_object of int | Search

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun s -> Add_query s) (int_range 1 1000));
        (2, map (fun s -> Add_object s) (int_range 1 1000));
        (2, map (fun s -> Update_object s) (int_range 1 1000));
        (1, return Search);
      ])

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_range 1 5000 in
    let* ops = list_size (int_range 1 12) op_gen in
    return (seed, ops))

let print_op = function
  | Add_query s -> Printf.sprintf "add_query(%d)" s
  | Add_object s -> Printf.sprintf "add_object(%d)" s
  | Update_object s -> Printf.sprintf "update_object(%d)" s
  | Search -> "search"

let arb_scenario =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed=%d ops=[%s]" seed
        (String.concat "; " (List.map print_op ops)))
    scenario_gen

let prop_interleaving_matches_rebuild =
  QCheck.Test.make
    ~name:"any add_query/add_object/update_object/min_cost interleaving \
           matches a from-scratch rebuild"
    ~count:15 arb_scenario (fun (seed, ops) ->
      let inst = make_instance ~seed ~n:40 ~m:20 () in
      let e = ok (Engine.create ~pool:pool1 inst) in
      let d = Instance.dim inst in
      let dr = Instance.dim_raw inst in
      let cost = Cost.euclidean d in
      let target = 0 in
      let vec rng = Array.init dr (fun _ -> Workload.Rng.uniform rng) in
      (* object mutations leave the query points alone, so their
         successors must keep the parent's query R-tree itself *)
      let rtree_shared = ref true in
      let sharing f =
        let parent = Query_index.rtree (Engine.index e) in
        f ();
        if Query_index.rtree (Engine.index e) != parent then rtree_shared := false
      in
      List.iter
        (fun op ->
          match op with
          | Add_query s ->
              let rng = Workload.Rng.make s in
              ignore
                (ok
                   (Engine.add_query e
                      (Topk.Query.make
                         ~k:(1 + Workload.Rng.int rng 4)
                         (Array.init d (fun _ -> Workload.Rng.uniform rng)))))
          | Add_object s ->
              sharing (fun () ->
                  ignore (ok (Engine.add_object e (vec (Workload.Rng.make s)))))
          | Update_object s ->
              let rng = Workload.Rng.make s in
              let id =
                Workload.Rng.int rng (Instance.n_objects (Engine.instance e))
              in
              sharing (fun () -> ok (Engine.update_object e id (vec rng)))
          | Search -> ignore (Engine.min_cost e ~cost ~target ~tau:3))
        ops;
      (* Oracle: a fresh engine over the final instance. *)
      let fresh = ok (Engine.create ~pool:pool1 (Engine.instance e)) in
      let hits_agree =
        ok (Engine.hits e ~target) = ok (Engine.hits fresh ~target)
      in
      let members_agree = ref true in
      for q = 0 to Instance.n_queries (Engine.instance e) - 1 do
        if ok (Engine.member e ~target ~q) <> ok (Engine.member fresh ~target ~q)
        then members_agree := false
      done;
      let searches_agree =
        match
          (Engine.min_cost e ~cost ~target ~tau:3,
           Engine.min_cost fresh ~cost ~target ~tau:3)
        with
        | Ok a, Ok b ->
            a.Min_cost.strategy = b.Min_cost.strategy
            && a.Min_cost.total_cost = b.Min_cost.total_cost
            && a.Min_cost.hits_after = b.Min_cost.hits_after
        | Error Engine.Error.Infeasible, Error Engine.Error.Infeasible -> true
        | _ -> false
      in
      (* the incrementally maintained index equals a fresh build *)
      let idx = Engine.index e and idx' = Engine.index fresh in
      let slabs_agree =
        let rng = Workload.Rng.make (seed + 1) in
        List.for_all
          (fun _ ->
            let point () = Array.init d (fun _ -> Workload.Rng.uniform rng) in
            let rival = point () and before = point () and after = point () in
            let visited idx =
              let acc = ref [] in
              Query_index.slab_queries idx ~rival ~before ~after (fun q ->
                  acc := q :: !acc);
              List.sort Int.compare !acc
            in
            visited idx = visited idx')
          (List.init 8 Fun.id)
      in
      let index_agrees =
        Query_index.groups idx = Query_index.groups idx'
        && Query_index.candidate_rivals idx = Query_index.candidate_rivals idx'
        && slabs_agree
      in
      hits_agree && !members_agree && searches_agree && !rtree_shared
      && index_agrees)

(* Query mutations move query points and rebuild the R-tree; every
   object mutation's successor shares its parent's. *)
let test_rtree_sharing () =
  let e = engine (make_instance ~n:40 ~m:20 ()) in
  let rtree () = Query_index.rtree (Engine.index e) in
  let check name shared f =
    let parent = rtree () in
    f ();
    Alcotest.(check bool) name shared (rtree () == parent)
  in
  check "update_object shares" true (fun () ->
      ok (Engine.update_object e 3 [| 0.2; 0.4; 0.6 |]));
  check "add_object shares" true (fun () ->
      ignore (ok (Engine.add_object e [| 0.1; 0.9; 0.5 |])));
  check "remove_object shares" true (fun () -> ok (Engine.remove_object e 7));
  check "add_query rebuilds" false (fun () ->
      ignore (ok (Engine.add_query e (Topk.Query.make ~k:2 [| 0.3; 0.3; 0.4 |]))));
  check "remove_query rebuilds" false (fun () -> ok (Engine.remove_query e 0));
  Alcotest.(check int) "rebuilt tree covers the queries"
    (Instance.n_queries (Engine.instance e))
    (Rtree.size (rtree ()))

(* --- snapshot footprint: removals must shrink, never ratchet up --- *)

let test_size_words_shrinks_on_removal () =
  let inst = make_instance ~n:12 ~m:24 () in
  let e = engine inst in
  let size () = Snapshot.size_words (Engine.snapshot e) in
  let depth = Query_index.depth (Engine.index e) in
  (* query removals strictly shrink: one prefix, one gid slot and one
     rival slot leave the bundle each time — a copy-on-write slip that
     kept dropped queries alive would plateau here *)
  let before = ref (size ()) in
  for i = 0 to 7 do
    ok (Engine.remove_query e 0);
    let after = size () in
    Alcotest.(check bool)
      (Printf.sprintf "query removal %d shrinks the snapshot (%d -> %d)" i
         !before after)
      true (after < !before);
    before := after
  done;
  (* object removals never grow the footprint (prefixes recompute at
     the same depth while enough objects remain)... *)
  let n0 = Instance.n_objects (Engine.instance e) in
  for i = 0 to n0 - 4 do
    ignore (ok (Engine.remove_object e 0));
    let after = size () in
    let n = Instance.n_objects (Engine.instance e) in
    Alcotest.(check bool)
      (Printf.sprintf "object removal %d never grows the snapshot (%d -> %d)"
         i !before after)
      true (after <= !before);
    (* ...and strictly shrink once the prefixes clamp to the shrunken
       dataset: fewer objects than index depth means every prefix
       must lose a slot per removal *)
    if n < depth then
      Alcotest.(check bool)
        (Printf.sprintf
           "object removal %d below depth %d shrinks the snapshot (%d -> %d)"
           i depth !before after)
        true (after < !before);
    before := after
  done;
  (* the gauge moves both ways: an insertion grows it again *)
  ignore (ok (Engine.add_object e [| 0.5; 0.5; 0.5 |]));
  Alcotest.(check bool) "insertion grows the snapshot" true (size () > !before)

(* --- retired generations: the engine holds none of them --- *)

(* Its own frame, so no register or stack slot of the caller keeps
   the current snapshot reachable. *)
let[@inline never] weak_current e =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Engine.snapshot e));
  w

let test_retired_generation_collectable () =
  let inst = make_instance () in
  let e = engine inst in
  let target = 5 in
  (* fill generation 0's evaluator cache, so a retention slip would
     keep that alive too *)
  ignore (ok (Engine.hits e ~target));
  let gen0 = weak_current e in
  let moved =
    Array.map (fun v -> Float.max 0. (v -. 0.4)) inst.Instance.raw.(target)
  in
  ok (Engine.update_object e target moved);
  Gc.full_major ();
  Alcotest.(check bool)
    "unpinned generation 0 reclaimed" true
    (Option.is_none (Weak.get gen0 0));
  (* the engine is still live (and still serving) past the collection *)
  Alcotest.(check int) "engine serves generation 1" 1 (Engine.generation e);
  Alcotest.(check int)
    "hits = fresh build"
    (ok (Engine.hits (engine (Engine.instance e)) ~target))
    (ok (Engine.hits e ~target))

let suite =
  [
    Alcotest.test_case "lifecycle: mutate, re-prepare, fresh-equal" `Quick
      test_lifecycle_reprepare;
    Alcotest.test_case "retired unpinned generation is collectable" `Quick
      test_retired_generation_collectable;
    Alcotest.test_case "size_words shrinks under removals" `Quick
      test_size_words_shrinks_on_removal;
    Alcotest.test_case "hits = membership count" `Quick
      test_hits_match_direct_membership;
    Alcotest.test_case "per-call evaluation accounting" `Quick
      test_per_call_evaluations;
    Alcotest.test_case "engine = direct wiring (sequential)" `Quick
      test_engine_matches_direct_seq;
    Alcotest.test_case "engine = direct wiring (4 domains)" `Quick
      test_engine_matches_direct_par;
    Alcotest.test_case "typed error taxonomy" `Quick test_errors;
    Alcotest.test_case "backends agree on hits and strategies" `Quick
      test_backends_agree;
    Alcotest.test_case "backend name aliases" `Quick test_backend_aliases;
    Alcotest.test_case "dirty-query introspection" `Quick test_dirty_queries;
    Alcotest.test_case "multi-target = direct combinatorial" `Quick
      test_multi_uses_cached_states;
    QCheck_alcotest.to_alcotest prop_interleaving_matches_rebuild;
    Alcotest.test_case "object mutations share the query R-tree" `Quick
      test_rtree_sharing;
  ]
