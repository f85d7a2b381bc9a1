(* Raw-speed gate for the hot-path pass: flat SoA geometry vs the
   boxed array-of-arrays layout, bounded top-k selection vs a full
   tuple sort for prefix recomputes, and dominance-layer rival pruning
   vs the full cached prefix set. Each kernel pair computes a checksum
   both ways — any divergence is a hard failure, not a report — and
   the gate fails the bench if the flat/pruned side is slower than its
   baseline beyond noise (10% + a small absolute floor, since smoke
   runs are tiny). Results land in BENCH_hotpath.json. *)

let reps = 5

(* The 10%-plus-floor noise envelope shared by every gate below. *)
let within_noise ~fast ~base = fast <= (base *. 1.10) +. 0.02

let make_workload ?(seed = 1717) ~n ~m ~d () =
  let rng = Harness.rng seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 20) ~m
      ~d ()
  in
  Iq.Instance.create ~data ~queries ()

(* --- kernel 1: query-score dot products, boxed rows vs flat slab --- *)

let bench_dots inst =
  let n = Iq.Instance.n_objects inst and m = Iq.Instance.n_queries inst in
  let features = inst.Iq.Instance.features in
  let queries = inst.Iq.Instance.queries in
  let flat = inst.Iq.Instance.flat in
  let boxed () =
    let acc = ref 0. in
    for _ = 1 to reps do
      for q = 0 to m - 1 do
        let w = queries.(q).Topk.Query.weights in
        for i = 0 to n - 1 do
          acc := !acc +. Geom.Vec.dot w features.(i)
        done
      done
    done;
    !acc
  in
  let flat_kernel () =
    let acc = ref 0. in
    for _ = 1 to reps do
      for q = 0 to m - 1 do
        let w = queries.(q).Topk.Query.weights in
        for i = 0 to n - 1 do
          acc := !acc +. Geom.Flat.dot flat i w
        done
      done
    done;
    !acc
  in
  let sum_boxed, t_boxed = Harness.time boxed in
  let sum_flat, t_flat = Harness.time flat_kernel in
  if sum_boxed <> sum_flat then
    failwith "hotpath: boxed and flat dot checksums diverged";
  (t_boxed, t_flat)

(* --- kernel 2: slab classification over all object pairs ----------- *)

(* Boxed baseline: the shape the subdomain layer had before the pass —
   allocate the difference vector per pair, wrap it in a hyperplane,
   and range it over the query box. *)
let slab_boxed features ~lo ~hi =
  let n = Array.length features in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for l = i + 1 to n - 1 do
      let normal = Geom.Vec.sub features.(i) features.(l) in
      if not (Geom.Vec.is_zero ~eps:0. normal) then begin
        let h = Geom.Hyperplane.make ~normal ~offset:0. in
        let mn, mx = Geom.Hyperplane.box_min_max h ~lo ~hi in
        if mn < 0. && mx >= 0. then incr count
      end
    done
  done;
  !count

(* Flat kernel: one fused pass over the SoA slab, no per-pair
   allocation — the same loop the library's pairwise classification now
   runs. *)
let slab_flat flat ~lo ~hi =
  let n = Geom.Flat.rows flat and d = Geom.Flat.dim flat in
  let fdata = Geom.Flat.data flat in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let ioff = i * d in
    for l = i + 1 to n - 1 do
      let loff = l * d in
      let nonzero = ref false in
      let mn = ref (-.0.) and mx = ref (-.0.) in
      for j = 0 to d - 1 do
        let c = fdata.(ioff + j) -. fdata.(loff + j) in
        if Geom.Fp.nonzero ~eps:0. c then nonzero := true;
        if c >= 0. then begin
          mn := !mn +. (c *. lo.(j));
          mx := !mx +. (c *. hi.(j))
        end
        else begin
          mn := !mn +. (c *. hi.(j));
          mx := !mx +. (c *. lo.(j))
        end
      done;
      if !nonzero && !mn < 0. && !mx >= 0. then incr count
    done
  done;
  !count

let bench_slab inst =
  let features = inst.Iq.Instance.features in
  let d = Iq.Instance.dim inst in
  let lo = Geom.Vec.zero d and hi = Geom.Vec.make d 1. in
  let boxed, t_boxed = Harness.time (fun () -> slab_boxed features ~lo ~hi) in
  let flat, t_flat =
    Harness.time (fun () -> slab_flat inst.Iq.Instance.flat ~lo ~hi)
  in
  if boxed <> flat then
    failwith "hotpath: boxed and flat slab-crossing counts diverged";
  (t_boxed, t_flat, flat)

(* --- kernel 3: prefix recompute, tuple sort vs bounded selection --- *)

(* Baseline: the full sort of boxed (score, id) tuples that the index's
   prefix recompute ran before the bounded selection replaced it. *)
let top_k_by_sort data ~weights ~k =
  let scored =
    Array.mapi (fun id p -> (Geom.Vec.dot weights p, id)) data
  in
  Array.sort compare scored;
  List.init (Int.min k (Array.length data)) (fun i -> snd scored.(i))

(* Every query's top-[depth] prefix, as [Query_index] computes it on a
   build and after each object mutation that touches the prefix. *)
let bench_prefix inst =
  let data = inst.Iq.Instance.features in
  let queries = inst.Iq.Instance.queries in
  let depth =
    Int.min (Iq.Instance.n_objects inst) (Iq.Instance.max_k inst + 1)
  in
  let prefixes top_k () =
    List.init reps (fun _ ->
        Array.map
          (fun (q : Topk.Query.t) -> top_k data ~weights:q.Topk.Query.weights ~k:depth)
          queries)
  in
  let sorted, t_sort = Harness.time (prefixes top_k_by_sort) in
  let selected, t_select = Harness.time (prefixes Topk.Eval.top_k) in
  if sorted <> selected then
    failwith "hotpath: tuple-sort and bounded-selection prefixes diverged";
  (t_sort, t_select, depth)

(* --- kernel 4 + 5: dominance-layer build, pruned vs full rivals ---- *)

let bench_pruning inst pool =
  let idx = Iq.Query_index.build ~pool inst in
  let onion, t_dom =
    Harness.time (fun () -> Topk.Onion.build inst.Iq.Instance.features)
  in
  let layers = Topk.Onion.layer_of onion in
  let full = Iq.Ese.prepare idx ~target:0 in
  let kth = Iq.Ese.prepare ~layers idx ~target:0 in
  if not (Iq.Ese.pruned kth) then
    failwith "hotpath: layer certificate failed on the reference workload";
  let d = Iq.Instance.dim inst in
  let rng = Harness.rng 909 in
  let strategies =
    Array.init 200 (fun _ ->
        Array.init d (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.2))
  in
  let eval state () =
    let acc = ref 0 in
    Array.iter (fun s -> acc := !acc + Iq.Ese.evaluate state ~s) strategies;
    !acc
  in
  let sum_full, t_full = Harness.time (eval full) in
  let sum_kth, t_kth = Harness.time (eval kth) in
  if sum_full <> sum_kth then
    failwith "hotpath: pruned and unpruned evaluations diverged";
  ( t_dom,
    Topk.Onion.layer_count onion,
    t_full,
    t_kth,
    Iq.Ese.rival_count full,
    Iq.Ese.rival_count kth )

(* --- engine identity matrix: prune on/off must be byte-identical --- *)

let outcome_sig (o : Iq.Min_cost.outcome option) =
  Option.map
    (fun (o : Iq.Min_cost.outcome) ->
      (o.Iq.Min_cost.strategy, o.Iq.Min_cost.total_cost,
       o.Iq.Min_cost.hits_after))
    o

let engine_identity inst =
  let cost = Iq.Cost.euclidean (Iq.Instance.dim inst) in
  let run_engine ~backend ~prune ~pool target =
    let e =
      match Iq.Engine.create ~backend ~prune ~pool inst with
      | Ok e -> e
      | Error e -> failwith (Iq.Engine.Error.to_string e)
    in
    match Iq.Engine.min_cost ~candidate_cap:24 e ~cost ~target ~tau:3 with
    | Ok o -> Some o
    | Error Iq.Engine.Error.Infeasible -> None
    | Error e -> failwith (Iq.Engine.Error.to_string e)
  in
  List.iter
    (fun name ->
      let backend =
        match Iq.Engine.backend_of_name name with
        | Ok b -> b
        | Error e -> failwith (Iq.Engine.Error.to_string e)
      in
      List.iter
        (fun dc ->
          let pool = Parallel.create ~domains:dc () in
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown pool)
            (fun () ->
              List.iter
                (fun target ->
                  let on = run_engine ~backend ~prune:true ~pool target in
                  let off = run_engine ~backend ~prune:false ~pool target in
                  if outcome_sig on <> outcome_sig off then
                    failwith
                      (Printf.sprintf
                         "hotpath: prune on/off outcomes diverged \
                          (backend=%s domains=%d target=%d)"
                         name dc target))
                [ 0; 1 ]))
        [ 1; 2 ])
    [ "ese"; "scan"; "rta" ]

let run () =
  Harness.header
    "Hot path: flat SoA layout, prefix selection & dominance-layer \
     pruning (gated)";
  let cfg = Harness.defaults in
  let d = cfg.Workload.Config.dimension in
  (* The dot/eval workload at the scaled Table-2 size; the O(n^2) slab
     kernel on a capped object count so the bench stays seconds. *)
  let n = cfg.Workload.Config.n_objects in
  let m = cfg.Workload.Config.n_queries in
  let inst = make_workload ~n ~m ~d () in
  let slab_inst = make_workload ~seed:2718 ~n:(Int.min n 1200) ~m:10 ~d () in
  let pool = Parallel.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let t_dot_boxed, t_dot_flat = bench_dots inst in
      let t_slab_boxed, t_slab_flat, crossings = bench_slab slab_inst in
      let t_sort, t_select, depth = bench_prefix inst in
      let t_dom, n_layers, t_full, t_kth, rivals_full, rivals_kth =
        bench_pruning inst pool
      in
      engine_identity (make_workload ~seed:3141 ~n:200 ~m:80 ~d ());
      Harness.row [ "  kernel"; "  baseline(s)"; "      new(s)"; "  ratio" ];
      let show name base fast =
        Harness.row
          [
            Printf.sprintf "%-24s" name;
            Printf.sprintf "%13.4f" base;
            Printf.sprintf "%12.4f" fast;
            Printf.sprintf "%6.2fx" (base /. Float.max fast 1e-9);
          ]
      in
      show "dots boxed->flat" t_dot_boxed t_dot_flat;
      show "slab boxed->flat" t_slab_boxed t_slab_flat;
      show "prefix sort->select" t_sort t_select;
      show "ese full->pruned" t_full t_kth;
      Harness.note "dominance build %.4fs (%d layers); rivals %d -> %d"
        t_dom n_layers rivals_full rivals_kth;
      Harness.note
        "identity: dot checksums, slab crossings (%d), top-%d prefixes, \
         eval counts and engine prune on/off outcomes all byte-identical"
        crossings depth;
      if not (within_noise ~fast:t_dot_flat ~base:t_dot_boxed) then
        failwith "hotpath: flat dot kernel slower than boxed beyond noise";
      if not (within_noise ~fast:t_slab_flat ~base:t_slab_boxed) then
        failwith "hotpath: flat slab kernel slower than boxed beyond noise";
      if not (within_noise ~fast:t_select ~base:t_sort) then
        failwith "hotpath: bounded selection slower than tuple sort beyond noise";
      if not (within_noise ~fast:t_kth ~base:(t_full +. t_dom)) then
        failwith
          "hotpath: pruned evaluation (incl. layer build) slower than \
           unpruned beyond noise";
      Harness.write_json ~name:"hotpath"
        (Harness.Obj
           [
             ("bench", Harness.String "hotpath");
             ("scale", Harness.Float Harness.scale);
             ("n_objects", Harness.Int (Iq.Instance.n_objects inst));
             ("n_queries", Harness.Int (Iq.Instance.n_queries inst));
             ("dimension", Harness.Int d);
             ( "dots",
               Harness.Obj
                 [
                   ("boxed_seconds", Harness.Float t_dot_boxed);
                   ("flat_seconds", Harness.Float t_dot_flat);
                 ] );
             ( "slab",
               Harness.Obj
                 [
                   ("n_objects", Harness.Int (Iq.Instance.n_objects slab_inst));
                   ("boxed_seconds", Harness.Float t_slab_boxed);
                   ("flat_seconds", Harness.Float t_slab_flat);
                   ("crossings", Harness.Int crossings);
                 ] );
             ( "prefix",
               Harness.Obj
                 [
                   ("depth", Harness.Int depth);
                   ("sort_seconds", Harness.Float t_sort);
                   ("select_seconds", Harness.Float t_select);
                 ] );
             ( "pruning",
               Harness.Obj
                 [
                   ("dominance_build_seconds", Harness.Float t_dom);
                   ("layers", Harness.Int n_layers);
                   ("unpruned_eval_seconds", Harness.Float t_full);
                   ("pruned_eval_seconds", Harness.Float t_kth);
                   ("rivals_unpruned", Harness.Int rivals_full);
                   ("rivals_pruned", Harness.Int rivals_kth);
                 ] );
             ("outcomes_identical", Harness.Bool true);
           ]))
