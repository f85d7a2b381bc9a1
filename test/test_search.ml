open Iq

let make ?(seed = 71) ?(n = 150) ?(m = 60) ?(d = 3) ?(kmax = 6) () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, kmax)
      ~m ~d ()
  in
  let inst = Instance.create ~data ~queries () in
  (inst, Query_index.build inst)

(* --- Min-Cost IQ (Algorithm 3) --- *)

let test_min_cost_reaches_tau () =
  let inst, idx = make () in
  let cost = Cost.euclidean 3 in
  for target = 0 to 4 do
    let ev = Evaluator.ese idx ~target in
    match Min_cost.search ~evaluator:ev ~cost ~target ~tau:10 () with
    | None -> Alcotest.failf "target %d: search failed" target
    | Some o ->
        Alcotest.(check bool)
          (Printf.sprintf "target %d reaches tau" target)
          true
          (o.Min_cost.hits_after >= 10);
        (* Verify against ground truth. *)
        let naive = Evaluator.naive inst ~target in
        Alcotest.(check int)
          "reported hits are real"
          (naive.Evaluator.hit_count o.Min_cost.strategy)
          o.Min_cost.hits_after
  done

let test_min_cost_already_satisfied () =
  let _, idx = make () in
  (* tau = 1: some object already hits something; search must return the
     zero strategy for it. *)
  let inst = Query_index.instance idx in
  let best = ref None in
  for t = 0 to Instance.n_objects inst - 1 do
    if !best = None then begin
      let ev = Evaluator.ese idx ~target:t in
      if ev.Evaluator.base_hits >= 1 then best := Some t
    end
  done;
  match !best with
  | None -> Alcotest.fail "no object hits anything"
  | Some target -> (
      let ev = Evaluator.ese idx ~target in
      match
        Min_cost.search ~evaluator:ev ~cost:(Cost.euclidean 3) ~target ~tau:1 ()
      with
      | None -> Alcotest.fail "search failed"
      | Some o ->
          Alcotest.(check (float 1e-12)) "zero cost" 0. o.Min_cost.total_cost;
          Alcotest.(check int) "no iterations" 0 o.Min_cost.iterations)

let test_min_cost_respects_limits () =
  let _, idx = make ~seed:72 () in
  let cost = Cost.euclidean 3 in
  let target = 0 in
  let inst = Query_index.instance idx in
  let limits = Strategy.freeze (Strategy.unrestricted 3) 2 in
  let ev = Evaluator.ese idx ~target in
  match Min_cost.search ~limits ~evaluator:ev ~cost ~target ~tau:5 () with
  | None -> () (* may genuinely be unreachable with a frozen attribute *)
  | Some o ->
      Alcotest.(check (float 1e-9)) "frozen attr unchanged" 0. o.Min_cost.strategy.(2);
      Alcotest.(check bool)
        "valid strategy" true
        (Strategy.is_valid limits ~p:inst.Instance.features.(target)
           o.Min_cost.strategy)

let test_min_cost_tau_too_high () =
  let _, idx = make ~m:20 () in
  let ev = Evaluator.ese idx ~target:0 in
  (* tau greater than |Q| is unreachable. *)
  Alcotest.(check bool)
    "unreachable tau" true
    (Min_cost.search ~evaluator:ev ~cost:(Cost.euclidean 3) ~target:0 ~tau:21 ()
     = None)

let test_min_cost_efficient_vs_simple_greedy () =
  (* The paper's claim: ratio-greedy beats cheapest-first greedy on
     cost-per-hit, at least not worse on average. *)
  let _, idx = make ~seed:73 ~n:200 ~m:80 () in
  let cost = Cost.euclidean 3 in
  let total_eff = ref 0. and total_greedy = ref 0. and cases = ref 0 in
  for target = 0 to 7 do
    let ev = Evaluator.ese idx ~target in
    match
      ( Min_cost.search ~evaluator:ev ~cost ~target ~tau:12 (),
        Baselines.greedy_min_cost ~evaluator:(Evaluator.ese idx ~target) ~cost
          ~target ~tau:12 () )
    with
    | Some eff, Some greedy ->
        incr cases;
        total_eff := !total_eff +. Min_cost.per_hit_cost eff;
        total_greedy :=
          !total_greedy
          +. greedy.Baselines.total_cost
             /. float_of_int (Int.max 1 greedy.Baselines.hits_after)
    | _ -> ()
  done;
  Alcotest.(check bool) "has cases" true (!cases > 0);
  Alcotest.(check bool)
    (Printf.sprintf "efficient (%.4f) <= greedy (%.4f) on average" !total_eff
       !total_greedy)
    true
    (!total_eff <= !total_greedy +. 1e-9)

let test_min_cost_rta_same_quality () =
  (* RTA-IQ shares the search; quality must match Efficient-IQ. *)
  let inst, idx = make ~seed:74 ~n:80 ~m:30 () in
  let cost = Cost.euclidean 3 in
  let target = 3 in
  let eff =
    Min_cost.search ~evaluator:(Evaluator.ese idx ~target) ~cost ~target
      ~tau:8 ()
  in
  let rta =
    Min_cost.search ~evaluator:(Evaluator.rta inst ~target) ~cost ~target
      ~tau:8 ()
  in
  match (eff, rta) with
  | Some a, Some b ->
      Alcotest.(check (float 1e-6))
        "same cost" a.Min_cost.total_cost b.Min_cost.total_cost;
      Alcotest.(check int) "same hits" a.Min_cost.hits_after b.Min_cost.hits_after
  | _ -> Alcotest.fail "searches disagree on feasibility"

(* --- Max-Hit IQ (Algorithm 4) --- *)

let test_max_hit_respects_budget () =
  let _, idx = make ~seed:75 () in
  let cost = Cost.euclidean 3 in
  for target = 0 to 4 do
    let ev = Evaluator.ese idx ~target in
    let o = Max_hit.search ~evaluator:ev ~cost ~target ~beta:0.15 () in
    Alcotest.(check bool)
      (Printf.sprintf "budget respected (spent %.3f)" o.Max_hit.incremental_cost)
      true
      (o.Max_hit.incremental_cost <= 0.15 +. 1e-9);
    Alcotest.(check bool)
      "hits do not decrease" true
      (o.Max_hit.hits_after >= 0)
  done

let test_max_hit_zero_budget () =
  let _, idx = make () in
  let ev = Evaluator.ese idx ~target:0 in
  let o = Max_hit.search ~evaluator:ev ~cost:(Cost.euclidean 3) ~target:0 ~beta:0. () in
  Alcotest.(check (float 1e-12)) "no spend" 0. o.Max_hit.incremental_cost;
  Alcotest.(check int) "hits unchanged" o.Max_hit.hits_before o.Max_hit.hits_after

let test_max_hit_monotone_in_budget () =
  let _, idx = make ~seed:76 () in
  let cost = Cost.euclidean 3 in
  let target = 1 in
  let hits_for beta =
    (Max_hit.search ~evaluator:(Evaluator.ese idx ~target) ~cost ~target ~beta ())
      .Max_hit.hits_after
  in
  let h1 = hits_for 0.05 and h2 = hits_for 0.2 and h3 = hits_for 0.8 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %d <= %d <= %d" h1 h2 h3)
    true
    (h1 <= h2 && h2 <= h3)

let test_max_hit_reported_hits_real () =
  let inst, idx = make ~seed:77 () in
  let cost = Cost.euclidean 3 in
  let target = 2 in
  let o =
    Max_hit.search ~evaluator:(Evaluator.ese idx ~target) ~cost ~target
      ~beta:0.3 ()
  in
  let naive = Evaluator.naive inst ~target in
  Alcotest.(check int)
    "hits verified" (naive.Evaluator.hit_count o.Max_hit.strategy)
    o.Max_hit.hits_after

(* --- Baselines --- *)

let test_greedy_reaches_tau () =
  let _, idx = make ~seed:78 () in
  let cost = Cost.euclidean 3 in
  match
    Baselines.greedy_min_cost ~evaluator:(Evaluator.ese idx ~target:0) ~cost
      ~target:0 ~tau:8 ()
  with
  | None -> Alcotest.fail "greedy failed"
  | Some o -> Alcotest.(check bool) "tau reached" true (o.Baselines.hits_after >= 8)

let test_greedy_max_hit_budget () =
  let _, idx = make ~seed:79 () in
  let cost = Cost.euclidean 3 in
  let o =
    Baselines.greedy_max_hit ~evaluator:(Evaluator.ese idx ~target:0) ~cost
      ~target:0 ~beta:0.1 ()
  in
  Alcotest.(check bool)
    "budget respected" true
    (o.Baselines.total_cost <= 0.1 +. 1e-6)

let test_random_baselines () =
  let _, idx = make ~seed:80 () in
  let cost = Cost.euclidean 3 in
  let rng = Workload.Rng.make 17 in
  let draw () = Workload.Rng.uniform rng in
  (match
     Baselines.random_min_cost ~rng:draw
       ~evaluator:(Evaluator.ese idx ~target:0) ~cost ~target:0 ~tau:3 ()
   with
  | Some o ->
      Alcotest.(check bool) "tau reached" true (o.Baselines.hits_after >= 3)
  | None -> Alcotest.fail "random min-cost failed on easy goal");
  let o =
    Baselines.random_max_hit ~rng:draw
      ~evaluator:(Evaluator.ese idx ~target:1) ~cost ~target:1 ~beta:0.5 ()
  in
  Alcotest.(check bool) "budget" true (o.Baselines.total_cost <= 0.5 +. 1e-9)

(* --- Exhaustive vs heuristic --- *)

let small_instance seed =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:25 ~d:2 in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 3)
      ~m:7 ~d:2 ()
  in
  Instance.create ~data ~queries ()

let test_exhaustive_lower_bounds_heuristic () =
  (* Optimal cost <= heuristic cost, on several tiny instances. *)
  for seed = 90 to 94 do
    let inst = small_instance seed in
    let ones = [| 1.; 1. |] in
    match Exhaustive.min_cost ~inst ~weights:ones ~target:0 ~tau:3 () with
    | None -> ()
    | Some opt -> (
        let idx = Query_index.build inst in
        match
          Min_cost.search ~evaluator:(Evaluator.ese idx ~target:0)
            ~cost:(Cost.l1 2) ~target:0 ~tau:3 ()
        with
        | None -> Alcotest.fail "heuristic failed where optimal exists"
        | Some heur ->
            Alcotest.(check bool)
              (Printf.sprintf "optimal %.4f <= heuristic %.4f (seed %d)"
                 opt.Exhaustive.total_cost heur.Min_cost.total_cost seed)
              true
              (opt.Exhaustive.total_cost <= heur.Min_cost.total_cost +. 1e-6);
            Alcotest.(check bool)
              "optimal achieves tau" true
              (opt.Exhaustive.hits_after >= 3))
  done

let test_exhaustive_max_hit () =
  let inst = small_instance 95 in
  let ones = [| 1.; 1. |] in
  let opt = Exhaustive.max_hit ~inst ~weights:ones ~target:0 ~beta:0.4 () in
  Alcotest.(check bool) "within budget" true (opt.Exhaustive.total_cost <= 0.4 +. 1e-6);
  (* Optimal hits >= heuristic hits. *)
  let idx = Query_index.build inst in
  let heur =
    Max_hit.search ~evaluator:(Evaluator.ese idx ~target:0) ~cost:(Cost.l1 2)
      ~target:0 ~beta:0.4 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimal %d >= heuristic %d" opt.Exhaustive.hits_after
       heur.Max_hit.hits_after)
    true
    (opt.Exhaustive.hits_after >= heur.Max_hit.hits_after)

let test_exhaustive_guard () =
  let rng = Workload.Rng.make 96 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:10 ~d:2 in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~m:30 ~d:2 ()
  in
  let inst = Instance.create ~data ~queries () in
  Alcotest.(check bool)
    "refuses big instances" true
    (try
       ignore (Exhaustive.min_cost ~inst ~weights:[| 1.; 1. |] ~target:0 ~tau:2 ());
       false
     with Invalid_argument _ -> true)

(* --- Combinatorial (Section 5.1) --- *)

let test_combinatorial_min_cost () =
  let _, idx = make ~seed:81 ~n:100 ~m:50 () in
  let cost = Cost.euclidean 3 in
  match
    Combinatorial.min_cost ~index:idx ~costs:[ (0, cost); (1, cost); (2, cost) ]
      ~tau:12 ()
  with
  | None -> Alcotest.fail "combinatorial failed"
  | Some o ->
      Alcotest.(check bool) "tau reached" true (o.Combinatorial.union_hits_after >= 12);
      Alcotest.(check int) "3 strategies" 3 (List.length o.Combinatorial.strategies);
      (* Union verified against ground truth. *)
      let inst = Query_index.instance idx in
      let covered = Array.make (Instance.n_queries inst) false in
      List.iter
        (fun (t, s) ->
          let naive = Evaluator.naive inst ~target:t in
          for q = 0 to Instance.n_queries inst - 1 do
            if naive.Evaluator.member ~q s then covered.(q) <- true
          done)
        o.Combinatorial.strategies;
      let union =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 covered
      in
      Alcotest.(check int) "union verified" union o.Combinatorial.union_hits_after

let test_combinatorial_beats_single_target () =
  (* Multi-target can never do worse than the best single target on the
     same tau: check costs. *)
  let _, idx = make ~seed:82 ~n:120 ~m:60 () in
  let cost = Cost.euclidean 3 in
  let tau = 10 in
  let single =
    Min_cost.search ~evaluator:(Evaluator.ese idx ~target:0) ~cost ~target:0
      ~tau ()
  in
  let multi =
    Combinatorial.min_cost ~index:idx ~costs:[ (0, cost); (5, cost) ] ~tau ()
  in
  match (single, multi) with
  | Some s, Some m ->
      (* The greedy heuristic is not guaranteed dominant, but the
         combinatorial run must at least succeed and respect tau. *)
      Alcotest.(check bool) "multi reaches tau" true (m.Combinatorial.union_hits_after >= tau);
      Alcotest.(check bool) "single reaches tau" true (s.Min_cost.hits_after >= tau)
  | _ -> Alcotest.fail "feasibility mismatch"

let test_combinatorial_max_hit_budget () =
  let _, idx = make ~seed:83 () in
  let cost = Cost.euclidean 3 in
  let o =
    Combinatorial.max_hit ~index:idx ~costs:[ (0, cost); (1, cost) ] ~beta:0.2 ()
  in
  let spent =
    List.fold_left
      (fun acc (_, s) -> acc +. cost.Cost.eval s)
      0. o.Combinatorial.strategies
  in
  Alcotest.(check bool)
    (Printf.sprintf "budget respected (%.3f <= 0.2+slack)" spent)
    true
    (spent <= 0.2 +. 0.05)
  (* per-step accounting can slightly exceed the L2 norm of the total *)

(* --- candidate dedup: the gated relation vs plain key equality --- *)

(* The key [Candidates.collect] deduplicated on before the gate. *)
let ref_key step =
  String.concat ","
    (List.map (fun x -> Printf.sprintf "%.12g" x) (Array.to_list step))

(* A value just either side of a 12-significant-digit rounding
   boundary: [x]'s 12-digit rendering with a trailing 5 appended. *)
let rounding_boundary x =
  let r = Printf.sprintf "%.11e" x in
  match String.index_opt r 'e' with
  | Some i when Float.is_finite x ->
      Float.of_string (String.sub r 0 i ^ "5" ^ String.sub r i (String.length r - i))
  | Some _ | None -> x

let gen_base =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun m e -> m *. (10. ** float_of_int e)) (float_range (-10.) 10.)
              (int_range (-30) 30));
        (1, oneofl [ 0.; -0.; infinity; neg_infinity; nan; Float.neg nan;
                     5e-324; 1e-310; -2.2e-308; Float.max_float; 1.; 0.1 ]);
        (1, map (fun m -> m *. 1e-315) (float_range (-100.) 100.));
      ])

(* A partner for [x] that shares its rendering, just misses it, or
   straddles a rounding boundary. *)
let gen_partner x =
  QCheck.Gen.(
    let b = rounding_boundary x in
    oneofl
      [ x; Float.succ x; Float.pred x; Float.succ (Float.succ x);
        x *. (1. +. 1e-11); x *. (1. +. 5e-12); x *. (1. -. 2e-12);
        x *. (1. +. 1e-9); b; Float.pred b; Float.succ b; -.x; 0.; -0. ])

let gen_close_pair =
  QCheck.Gen.(
    let* d = int_range 1 3 in
    let* xs = array_repeat d gen_base in
    let* ys = flatten_a (Array.map gen_partner xs) in
    (* sometimes compare two boundary-adjacent values with each other *)
    let+ swap = bool in
    if swap then (Array.map rounding_boundary xs, ys) else (xs, ys))

let show_step v =
  "[" ^ String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") v)) ^ "]"

let show_steps (a, b) = show_step a ^ " vs " ^ show_step b

let prop_dedup_is_key_equality =
  QCheck.Test.make ~count:2000
    ~name:"candidate dedup equals %.12g key equality on adversarial floats"
    (QCheck.make ~print:show_steps gen_close_pair)
    (fun (a, b) ->
      let same = String.equal (ref_key a) (ref_key b) in
      (Candidates.duplicates [| a; b |]).(1) = same
      && (Candidates.duplicates [| b; a |]).(1) = same)

let prop_duplicates_keep_first =
  QCheck.Test.make ~count:300
    ~name:"Candidates.duplicates flags exactly the repeats of an earlier key"
    (QCheck.make
       ~print:(fun steps -> String.concat " " (Array.to_list (Array.map show_step steps)))
       QCheck.Gen.(
         (* draw repeatedly from a few close pairs of one dimension *)
         let* (a, b) = gen_close_pair in
         let* pairs = list_size (int_range 0 5) gen_close_pair in
         let pool =
           List.concat_map (fun (a, b) -> [ a; b ]) pairs
           |> List.filter (fun v -> Array.length v = Array.length a)
           |> Array.of_list |> Array.append [| a; b |]
         in
         array_size (int_range 0 40) (oneofa pool)))
    (fun steps ->
      let seen = Hashtbl.create 16 in
      let expected =
        Array.map
          (fun s ->
            let k = ref_key s in
            let dup = Hashtbl.mem seen k in
            Hashtbl.replace seen k ();
            dup)
          steps
      in
      Candidates.duplicates steps = expected)

(* The definition [Candidates.cheapest] had before it became a bounded
   selection: the oracle its first [n] must match entry for entry. *)
let cheapest_oracle ~cap by_cost steps =
  let sorted =
    List.stable_sort (fun a b -> Float.compare (by_cost a) (by_cost b)) steps
  in
  match cap with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let prop_cheapest_is_stable_prefix =
  let costs = [| 0.; -0.; 1.; 1.; 2.5; nan; infinity; neg_infinity; 1e-300 |] in
  QCheck.Test.make ~count:500
    ~name:"Candidates.cheapest equals the first n of a stable cost sort"
    (QCheck.make
       ~print:(fun l ->
         String.concat " "
           (List.map (fun (i, c) -> Printf.sprintf "%d:%h" i c) l))
       QCheck.Gen.(
         let* n = int_range 0 40 in
         let* picks = list_repeat n (int_range 0 (Array.length costs - 1)) in
         return (List.mapi (fun i p -> (i, costs.(p))) picks)))
    (fun steps ->
      let n = List.length steps in
      List.for_all
        (fun cap ->
          List.map fst (Candidates.cheapest ~cap snd steps)
          = List.map fst (cheapest_oracle ~cap snd steps))
        [ None; Some 0; Some (-1); Some 1; Some (n / 2); Some n; Some (n + 5) ])

let suite =
  [
    Alcotest.test_case "min-cost reaches tau" `Quick test_min_cost_reaches_tau;
    Alcotest.test_case "min-cost trivial tau" `Quick test_min_cost_already_satisfied;
    Alcotest.test_case "min-cost respects limits" `Quick test_min_cost_respects_limits;
    Alcotest.test_case "min-cost unreachable tau" `Quick test_min_cost_tau_too_high;
    Alcotest.test_case "efficient <= simple greedy" `Quick test_min_cost_efficient_vs_simple_greedy;
    Alcotest.test_case "RTA-IQ same quality" `Quick test_min_cost_rta_same_quality;
    Alcotest.test_case "max-hit respects budget" `Quick test_max_hit_respects_budget;
    Alcotest.test_case "max-hit zero budget" `Quick test_max_hit_zero_budget;
    Alcotest.test_case "max-hit monotone in budget" `Quick test_max_hit_monotone_in_budget;
    Alcotest.test_case "max-hit hits verified" `Quick test_max_hit_reported_hits_real;
    Alcotest.test_case "greedy baseline min-cost" `Quick test_greedy_reaches_tau;
    Alcotest.test_case "greedy baseline max-hit" `Quick test_greedy_max_hit_budget;
    Alcotest.test_case "random baselines" `Quick test_random_baselines;
    Alcotest.test_case "exhaustive optimal <= heuristic" `Quick test_exhaustive_lower_bounds_heuristic;
    Alcotest.test_case "exhaustive max-hit" `Quick test_exhaustive_max_hit;
    Alcotest.test_case "exhaustive size guard" `Quick test_exhaustive_guard;
    Alcotest.test_case "combinatorial min-cost" `Quick test_combinatorial_min_cost;
    Alcotest.test_case "combinatorial vs single" `Quick test_combinatorial_beats_single_target;
    Alcotest.test_case "combinatorial max-hit budget" `Quick test_combinatorial_max_hit_budget;
    QCheck_alcotest.to_alcotest prop_dedup_is_key_equality;
    QCheck_alcotest.to_alcotest prop_duplicates_keep_first;
    QCheck_alcotest.to_alcotest prop_cheapest_is_stable_prefix;
  ]
