open Topk

let rng () = Workload.Rng.make 99

let random_data n d =
  Workload.Datagen.generate (rng ()) Workload.Datagen.Independent ~n ~d

(* --- Utility --- *)

let test_linear_utility () =
  let u = Utility.linear 3 in
  Alcotest.(check (float 1e-12))
    "dot product" 2.3
    (Utility.score u ~weights:[| 1.; 2.; 3. |] [| 0.3; 0.4; 0.4 |])

let test_polynomial_utility () =
  (* w1*x0^3 + w2*(x1*x2) + w3*x3^2 — the Section 5.2 example. *)
  let u =
    Utility.polynomial ~dim_in:4 ~terms:[ [ (0, 3) ]; [ (1, 1); (2, 1) ]; [ (3, 2) ] ]
  in
  Alcotest.(check int) "dim_out" 3 u.Utility.dim_out;
  let p = [| 2.; 3.; 4.; 5. |] in
  let f = u.Utility.features p in
  Alcotest.(check (float 1e-9)) "x0^3" 8. f.(0);
  Alcotest.(check (float 1e-9)) "x1*x2" 12. f.(1);
  Alcotest.(check (float 1e-9)) "x3^2" 25. f.(2)

let test_concat_utility () =
  let a = Utility.linear 2 in
  let b = Utility.polynomial ~dim_in:2 ~terms:[ [ (0, 2) ] ] in
  let g = Utility.concat a b in
  Alcotest.(check int) "dims add" 3 g.Utility.dim_out;
  let f = g.Utility.features [| 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "block a" 3. f.(0);
  Alcotest.(check (float 1e-9)) "block b" 9. f.(2)

let test_desc_order () =
  let w = [| 1.; 2. |] in
  let w' = Utility.effective_weights Utility.Desc w in
  Alcotest.(check (float 1e-12)) "negated" (-1.) w'.(0);
  Alcotest.(check bool)
    "asc unchanged" true
    (Utility.effective_weights Utility.Asc w == w)

(* --- Eval --- *)

let brute_top_k data ~weights ~k =
  Array.to_list data
  |> List.mapi (fun i p -> (Geom.Vec.dot weights p, i))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

let test_eval_matches_brute () =
  let data = random_data 200 3 in
  let r = rng () in
  for _ = 1 to 20 do
    let w = Array.init 3 (fun _ -> Workload.Rng.uniform r) in
    let k = 1 + Workload.Rng.int r 20 in
    Alcotest.(check (list int))
      "top_k = brute force" (brute_top_k data ~weights:w ~k)
      (Eval.top_k data ~weights:w ~k)
  done

let test_eval_k_larger_than_n () =
  let data = random_data 5 2 in
  Alcotest.(check int)
    "clamped to n" 5
    (List.length (Eval.top_k data ~weights:[| 1.; 1. |] ~k:50))

let test_rank_and_hits () =
  let data = [| [| 0.1; 0.1 |]; [| 0.5; 0.5 |]; [| 0.9; 0.9 |] |] in
  let w = [| 1.; 1. |] in
  Alcotest.(check int) "rank best" 1 (Eval.rank data ~weights:w 0);
  Alcotest.(check int) "rank worst" 3 (Eval.rank data ~weights:w 2);
  Alcotest.(check bool) "hits top-1" true (Eval.hits data ~weights:w ~k:1 0);
  Alcotest.(check bool) "misses top-1" false (Eval.hits data ~weights:w ~k:1 1);
  Alcotest.(check bool) "hits top-2" true (Eval.hits data ~weights:w ~k:2 1)

let test_kth_excluding () =
  let data = [| [| 0.1 |]; [| 0.2 |]; [| 0.3 |] |] in
  let w = [| 1. |] in
  (match Eval.kth_score_excluding data ~weights:w ~k:1 ~excl:0 with
  | Some (id, s) ->
      Alcotest.(check int) "next best" 1 id;
      Alcotest.(check (float 1e-12)) "score" 0.2 s
  | None -> Alcotest.fail "expected threshold");
  Alcotest.(check bool)
    "too few others" true
    (Eval.kth_score_excluding data ~weights:w ~k:3 ~excl:0 = None)

let test_hit_count () =
  let data = [| [| 0.1; 0.9 |]; [| 0.9; 0.1 |]; [| 0.5; 0.5 |] |] in
  let queries =
    [ Query.make ~id:0 ~k:1 [| 1.; 0. |]; Query.make ~id:1 ~k:1 [| 0.; 1. |] ]
  in
  Alcotest.(check int) "object 0 hits one" 1 (Eval.hit_count data ~queries 0);
  Alcotest.(check int) "object 2 hits none" 0 (Eval.hit_count data ~queries 2)

(* --- Dominance --- *)

let test_dominates () =
  Alcotest.(check bool) "strict" true (Dominance.dominates [| 0.1; 0.2 |] [| 0.3; 0.2 |]);
  Alcotest.(check bool) "equal not dominating" false (Dominance.dominates [| 0.1 |] [| 0.1 |]);
  Alcotest.(check bool) "incomparable" false (Dominance.dominates [| 0.1; 0.9 |] [| 0.5; 0.5 |])

let test_dominance_layers () =
  let data =
    [| [| 0.1; 0.1 |]; [| 0.2; 0.2 |]; [| 0.3; 0.3 |]; [| 0.05; 0.9 |] |]
  in
  let t = Dominance.build data in
  Alcotest.(check int) "layer of best" 0 (Dominance.layer_of t 0);
  Alcotest.(check int) "skyline companion" 0 (Dominance.layer_of t 3);
  Alcotest.(check int) "second layer" 1 (Dominance.layer_of t 1);
  Alcotest.(check int) "third layer" 2 (Dominance.layer_of t 2);
  Alcotest.(check int) "3 layers" 3 (Dominance.layer_count t)

let test_dominance_topk_matches_eval () =
  let data = random_data 300 3 in
  let t = Dominance.build data in
  let r = rng () in
  for _ = 1 to 20 do
    let w = Array.init 3 (fun _ -> Workload.Rng.uniform r) in
    let k = 1 + Workload.Rng.int r 10 in
    Alcotest.(check (list int))
      "dominance top-k = scan" (Eval.top_k data ~weights:w ~k)
      (Dominance.top_k t ~data ~weights:w ~k)
  done

let test_dominance_layer_invariant () =
  let data = random_data 150 2 in
  let t = Dominance.build data in
  (* No object may be dominated by an object in its own layer. *)
  Array.iteri
    (fun _ layer ->
      Array.iter
        (fun id ->
          Array.iter
            (fun other ->
              if other <> id then
                Alcotest.(check bool)
                  "no intra-layer dominance" false
                  (Dominance.dominates data.(other) data.(id)))
            layer)
        layer)
    (Dominance.layers t)

let test_dominance_edges () =
  let data = [| [| 0.1; 0.1 |]; [| 0.2; 0.2 |]; [| 0.3; 0.3 |] |] in
  let t = Dominance.build ~with_edges:true data in
  Alcotest.(check int) "chain edges" 2 (Dominance.edge_count t);
  Alcotest.(check bool) "size grows with edges" true (Dominance.size_words t > 3)

(* --- TA --- *)

let test_ta_matches_eval () =
  let data = random_data 400 4 in
  let t = Ta.build data in
  let r = rng () in
  for _ = 1 to 25 do
    let w = Array.init 4 (fun _ -> Workload.Rng.uniform r) in
    let k = 1 + Workload.Rng.int r 15 in
    Alcotest.(check (list int))
      "TA top-k = scan" (Eval.top_k data ~weights:w ~k)
      (Ta.top_k t ~weights:w ~k)
  done

let test_ta_early_termination () =
  (* Clustered data: TA should stop well before scanning everything. *)
  let r = rng () in
  let data =
    Array.init 1000 (fun i ->
        if i < 10 then Array.make 3 (0.01 *. float_of_int i)
        else Array.init 3 (fun _ -> 0.5 +. (0.5 *. Workload.Rng.uniform r)))
  in
  let t = Ta.build data in
  let _, depth = Ta.top_k_stats t ~weights:[| 1.; 1.; 1. |] ~k:5 in
  Alcotest.(check bool)
    (Printf.sprintf "stopped at depth %d < 1000" depth)
    true (depth < 1000)

let test_ta_rejects_negative_weights () =
  let t = Ta.build (random_data 10 2) in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Ta.top_k: negative weight") (fun () ->
      ignore (Ta.top_k t ~weights:[| -1.; 0.5 |] ~k:3))

(* --- RTA --- *)

let test_rta_matches_brute () =
  let data = random_data 250 3 in
  let queries =
    Workload.Querygen.linear (rng ()) Workload.Querygen.Uniform
      ~k_range:(1, 10) ~m:80 ~d:3 ()
  in
  for target = 0 to 15 do
    let expected = Eval.hit_count data ~queries target in
    Alcotest.(check int)
      (Printf.sprintf "H(p%d)" target)
      expected
      (Rta.hit_count ~data ~queries target)
  done

let test_rta_prunes () =
  let data = random_data 500 3 in
  let queries =
    Workload.Querygen.linear (rng ()) Workload.Querygen.Uniform
      ~k_range:(1, 5) ~m:200 ~d:3 ()
  in
  (* A mid-pack object should be prunable for most queries. *)
  let _, stats = Rta.reverse_top_k ~data ~queries ~target:100 in
  Alcotest.(check bool)
    (Printf.sprintf "pruned %d of 200" stats.Rta.pruned)
    true
    (stats.Rta.pruned > 0)

(* --- Oracles: bounded selection and one-pass peel vs references --- *)

(* Reference top-k: the full tuple sort the bounded selection replaced.
   Polymorphic [compare] on (score, id) is the (score asc, id asc)
   order for non-NaN scores, [-0.0 = 0.0] included. *)
let sorted_scores ?(excl = -1) data ~weights =
  Array.to_list data
  |> List.mapi (fun i p -> (Geom.Vec.dot weights p, i))
  |> List.filter (fun (_, i) -> i <> excl)
  |> List.sort compare

let ref_top_k_scored data ~weights ~k =
  sorted_scores data ~weights
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (s, i) -> (i, s))

let ref_kth_excluding data ~weights ~k ~excl =
  match List.nth_opt (sorted_scores ~excl data ~weights) (k - 1) with
  | Some (s, i) when Array.length data - 1 >= k -> Some (i, s)
  | Some _ | None -> None

(* Few distinct coordinate values force score ties and duplicate
   points; [-0.0] and negative weights are in the palettes. *)
let coord_palette = [| 0.; -0.; 0.1; 0.2; 0.3; 0.5; 0.7; 1.; -0.25 |]
let weight_palette = [| 0.; -0.; 1.; 0.5; 0.1; 2.; -1.; -0.3 |]

let gen_coord palette =
  QCheck.Gen.(
    frequency
      [ (3, oneofa palette); (1, float_range (-1.) 1.) ])

type topk_case = { data : Geom.Vec.t array; w : Geom.Vec.t; k : int; excl : int }

let gen_topk_case =
  QCheck.Gen.(
    let* d = int_range 1 4 in
    (* one case in six is large: k > 24 with n > 512, the old sort branch *)
    let* large = map (fun i -> i = 0) (int_bound 5) in
    let* n = if large then int_range 513 600 else int_range 0 40 in
    let* k = if large then int_range 25 60 else int_range 0 (n + 3) in
    let* data = array_repeat n (array_repeat d (gen_coord coord_palette)) in
    let* w = array_repeat d (gen_coord weight_palette) in
    let+ excl = int_range (-1) (Int.max 0 (n - 1)) in
    { data; w; k; excl })

let arb_topk_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "n=%d d=%d k=%d excl=%d" (Array.length c.data)
        (Array.length c.w) c.k c.excl)
    gen_topk_case

let bits_scored l = List.map (fun (i, s) -> (i, Int64.bits_of_float s)) l

let prop_top_k_matches_sort =
  QCheck.Test.make ~count:200
    ~name:"top_k and top_k_scored equal the reference tuple sort" arb_topk_case
    (fun { data; w; k; _ } ->
      let expected = ref_top_k_scored data ~weights:w ~k in
      bits_scored (Eval.top_k_scored data ~weights:w ~k) = bits_scored expected
      && Eval.top_k data ~weights:w ~k = List.map fst expected)

let prop_kth_matches_sort =
  QCheck.Test.make ~count:200
    ~name:"kth_score_excluding equals the reference tuple sort" arb_topk_case
    (fun { data; w; k; excl } ->
      let k = Int.max 1 k in
      let bits = Option.map (fun (i, s) -> (i, Int64.bits_of_float s)) in
      bits (Eval.kth_score_excluding data ~weights:w ~k ~excl)
      = bits (ref_kth_excluding data ~weights:w ~k ~excl))

(* Reference peel: pass-by-pass sort-filter-skyline over id lists, the
   construction the one-pass build replaced. *)
let ref_peel data =
  let n = Array.length data in
  let sums = Array.map (Array.fold_left ( +. ) 0.) data in
  let order =
    List.sort
      (fun a b ->
        match Float.compare sums.(a) sums.(b) with
        | 0 -> Int.compare a b
        | c -> c)
      (List.init n Fun.id)
  in
  let layer_of = Array.make n (-1) in
  let rec peel l remaining acc =
    if remaining = [] then List.rev acc
    else begin
      let layer, rest =
        List.fold_left
          (fun (layer, rest) id ->
            if List.exists (fun s -> Dominance.dominates data.(s) data.(id)) layer
            then (layer, id :: rest)
            else begin
              layer_of.(id) <- l;
              (id :: layer, rest)
            end)
          ([], []) remaining
      in
      peel (l + 1) (List.rev rest) (Array.of_list (List.rev layer) :: acc)
    end
  in
  let layers = Array.of_list (peel 0 order []) in
  (layers, layer_of)

let gen_points =
  QCheck.Gen.(
    let* d = int_range 1 4 in
    let* n = frequency [ (4, int_range 0 60); (1, int_range 150 300) ] in
    (* tenths: permuted coordinates give sums that tie, or just miss
       tying, in floating point (0.1 + 0.2 <> 0.3) *)
    let tenth = map (fun i -> float_of_int i /. 10.) (int_bound 7) in
    array_repeat n
      (array_repeat d (frequency [ (3, tenth); (1, float_range 0. 1.) ])))

let prop_dominance_matches_peel =
  QCheck.Test.make ~count:150
    ~name:"Dominance.build layers equal a pass-by-pass peel"
    (QCheck.make
       ~print:(fun pts ->
         Printf.sprintf "n=%d d=%d" (Array.length pts)
           (if Array.length pts = 0 then 0 else Array.length pts.(0)))
       gen_points)
    (fun data ->
      let n = Array.length data in
      let layers, layer_of = ref_peel data in
      let t = Dominance.build data in
      (* outside 2-D the onion is the dominance peel *)
      let onion_agrees =
        (n > 0 && Array.length data.(0) = 2)
        ||
        let o = Onion.build data in
        Onion.layers o = layers && Array.init n (Onion.layer_of o) = layer_of
      in
      Dominance.layers t = layers
      && Array.init n (Dominance.layer_of t) = layer_of
      && onion_agrees)

let suite =
  [
    Alcotest.test_case "linear utility" `Quick test_linear_utility;
    Alcotest.test_case "polynomial utility (Sec 5.2)" `Quick test_polynomial_utility;
    Alcotest.test_case "concat utility (Sec 5.3)" `Quick test_concat_utility;
    Alcotest.test_case "desc order" `Quick test_desc_order;
    Alcotest.test_case "eval matches brute force" `Quick test_eval_matches_brute;
    Alcotest.test_case "k > n" `Quick test_eval_k_larger_than_n;
    Alcotest.test_case "rank & hits" `Quick test_rank_and_hits;
    Alcotest.test_case "kth score excluding" `Quick test_kth_excluding;
    Alcotest.test_case "hit count" `Quick test_hit_count;
    Alcotest.test_case "dominates" `Quick test_dominates;
    Alcotest.test_case "dominance layers" `Quick test_dominance_layers;
    Alcotest.test_case "dominance top-k correct" `Quick test_dominance_topk_matches_eval;
    Alcotest.test_case "layer invariant" `Quick test_dominance_layer_invariant;
    Alcotest.test_case "dominance edges" `Quick test_dominance_edges;
    Alcotest.test_case "TA correct" `Quick test_ta_matches_eval;
    Alcotest.test_case "TA early termination" `Quick test_ta_early_termination;
    Alcotest.test_case "TA weight guard" `Quick test_ta_rejects_negative_weights;
    Alcotest.test_case "RTA correct" `Quick test_rta_matches_brute;
    Alcotest.test_case "RTA prunes" `Quick test_rta_prunes;
    QCheck_alcotest.to_alcotest prop_top_k_matches_sort;
    QCheck_alcotest.to_alcotest prop_kth_matches_sort;
    QCheck_alcotest.to_alcotest prop_dominance_matches_peel;
  ]
