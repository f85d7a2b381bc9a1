(* Bechamel micro-benchmarks for the core operations: one Test.make per
   building block, measured with the monotonic clock and OLS. *)

open Bechamel
open Toolkit

let prepared =
  lazy
    (let rng = Harness.rng 77 in
     let data =
       Workload.Datagen.generate rng Workload.Datagen.Independent ~n:2000 ~d:3
     in
     let queries =
       Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 20)
         ~m:400 ~d:3 ()
     in
     let inst = Iq.Instance.create ~data ~queries () in
     let engine = Harness.engine inst in
     let index = Iq.Engine.index engine in
     let ese =
       match Iq.Engine.evaluator engine ~target:0 with
       | Ok e -> e
       | Error e -> failwith (Iq.Engine.Error.to_string e)
     in
     let ta = Topk.Ta.build data in
     let dominance = Topk.Dominance.build data in
     let rtree =
       Rtree.bulk_load ~dim:3
         (List.init (Array.length data) (fun i ->
              (Geom.Box.of_point data.(i), i)))
     in
     let ese_full = Iq.Ese.prepare ~prune:false index ~target:0 in
     let ese_pruned = Iq.Ese.prepare index ~target:0 in
     (data, inst, index, ese, ta, dominance, rtree, ese_full, ese_pruned))

let tests () =
  let data, inst, index, ese, ta, dominance, rtree, ese_full, ese_pruned =
    Lazy.force prepared
  in
  let features = inst.Iq.Instance.features in
  let w = [| 0.4; 0.3; 0.3 |] in
  let s = [| -0.05; -0.02; -0.01 |] in
  [
    Test.make ~name:"topk/scan-top10"
      (Staged.stage (fun () -> Topk.Eval.top_k data ~weights:w ~k:10));
    Test.make ~name:"topk/ta-top10"
      (Staged.stage (fun () -> Topk.Ta.top_k ta ~weights:w ~k:10));
    Test.make ~name:"topk/dominance-top10"
      (Staged.stage (fun () ->
           Topk.Dominance.top_k dominance ~data ~weights:w ~k:10));
    Test.make ~name:"ese/evaluate"
      (Staged.stage (fun () -> ese.Iq.Evaluator.hit_count s));
    Test.make ~name:"ese/evaluate-unpruned"
      (Staged.stage (fun () -> Iq.Ese.evaluate ese_full ~s));
    Test.make ~name:"ese/evaluate-pruned"
      (Staged.stage (fun () -> Iq.Ese.evaluate ese_pruned ~s));
    Test.make ~name:"topk/dominance-build"
      (Staged.stage (fun () -> Topk.Onion.build features));
    Test.make ~name:"geom/flat-slab-classify"
      (Staged.stage (fun () ->
           let flat = inst.Iq.Instance.flat in
           let fdata = Geom.Flat.data flat in
           let d = Geom.Flat.dim flat in
           (* One rival row against the whole slab: the inner loop of
              the fused classification kernels. *)
           let acc = ref 0 in
           for i = 0 to Geom.Flat.rows flat - 1 do
             let ioff = i * d in
             let dot = ref 0. in
             for j = 0 to d - 1 do
               dot := !dot +. (w.(j) *. fdata.(ioff + j))
             done;
             if !dot >= 0.5 then incr acc
           done;
           !acc));
    Test.make ~name:"rtree/range-search"
      (Staged.stage (fun () ->
           Rtree.search rtree
             (Geom.Box.make ~lo:[| 0.2; 0.2; 0.2 |] ~hi:[| 0.4; 0.4; 0.4 |])));
    Test.make ~name:"rtree/knn-10"
      (Staged.stage (fun () -> Rtree.nearest rtree [| 0.5; 0.5; 0.5 |] 10));
    Test.make ~name:"index/kth-other"
      (Staged.stage (fun () -> Iq.Query_index.kth_other index ~q:0 ~target:0));
    Test.make ~name:"lp/l2-projection"
      (Staged.stage (fun () ->
           Lp.Projection.l2_boxed ~a:[| 0.3; 0.5; 0.2 |] ~b:(-0.4) ()));
    Test.make ~name:"lp/simplex-3x3"
      (Staged.stage (fun () ->
           Lp.Simplex.minimize ~objective:[| 1.; 1.; 1. |]
             ~constraints:
               [
                 ([| 1.; 2.; 0. |], Lp.Simplex.Ge, 4.);
                 ([| 3.; 1.; 1. |], Lp.Simplex.Ge, 6.);
                 ([| 0.; 1.; 2. |], Lp.Simplex.Ge, 3.);
               ]));
  ]

let run () =
  Harness.header "Bechamel micro-benchmarks (ns per call, OLS on run count)";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"core" ~fmt:"%s %s" (tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt results name with
      | None -> Printf.printf "  %-28s (no result)\n" name
      | Some r -> (
          match Analyze.OLS.estimates r with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name))
    (List.sort String.compare names)
