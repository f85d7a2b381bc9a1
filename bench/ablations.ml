(* Ablations over the design choices DESIGN.md calls out:
   - the candidate-evaluation cap in the greedy searches;
   - ESE's affected-subspace evaluation vs full re-evaluation;
   - top-k evaluator choices (scan / TA / dominance / onion / views);
   - Section 4.3 incremental maintenance vs index rebuild.

   Everything runs through [Iq.Engine]; the evaluation-substrate
   ablation swaps engine backends rather than wiring evaluators by
   hand. *)

let ok = function
  | Ok v -> v
  | Error e -> failwith (Iq.Engine.Error.to_string e)

let make_engine ~seed ~n ~m ~d =
  let rng = Harness.rng seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 20) ~m
      ~d ()
  in
  Harness.engine (Iq.Instance.create ~data ~queries ())

(* A sibling engine over the same built index with another evaluation
   backend (read-only sharing, same pool). *)
let with_backend engine backend =
  ok
    (Iq.Engine.of_index ~backend
       ~pool:(Iq.Engine.pool engine)
       (Iq.Engine.index engine))

(* --- candidate cap: time/quality trade-off of Algorithm 3 ----------- *)

let cap_sweep () =
  Harness.header
    "Ablation: candidate-evaluation cap in the greedy ratio search";
  let engine = make_engine ~seed:9001 ~n:4000 ~m:400 ~d:3 in
  let cost = Iq.Cost.euclidean 3 in
  let targets = [ 3; 17; 99; 240 ] in
  List.iter (fun target -> ignore (ok (Iq.Engine.evaluator engine ~target))) targets;
  Harness.row [ "      cap"; "   time(ms)"; "  avg cost"; " avg hits" ];
  List.iter
    (fun cap ->
      let times = ref [] and costs = ref [] and hits = ref [] in
      List.iter
        (fun target ->
          let r, seconds =
            Harness.time (fun () ->
                Iq.Engine.min_cost ?candidate_cap:cap engine ~cost ~target
                  ~tau:15)
          in
          match r with
          | Ok o ->
              times := seconds :: !times;
              costs := o.Iq.Min_cost.total_cost :: !costs;
              hits := float_of_int o.Iq.Min_cost.hits_after :: !hits
          | Error Iq.Engine.Error.Infeasible -> ()
          | Error e -> failwith (Iq.Engine.Error.to_string e))
        targets;
      Harness.row
        [
          Printf.sprintf "%9s"
            (match cap with None -> "none" | Some c -> string_of_int c);
          Printf.sprintf "%11.1f" (1000. *. Harness.mean !times);
          Printf.sprintf "%10.4f" (Harness.mean !costs);
          Printf.sprintf "%9.1f" (Harness.mean !hits);
        ])
    [ Some 2; Some 4; Some 8; Some 16; Some 32; Some 64; None ];
  Harness.note
    "small caps trade a little strategy cost for much less evaluation time"

(* --- ESE vs full re-evaluation -------------------------------------- *)

let ese_vs_naive () =
  Harness.header
    "Ablation: ESE affected-subspace evaluation vs full re-evaluation";
  let engine = make_engine ~seed:9002 ~n:6000 ~m:800 ~d:3 in
  let target = 42 in
  (* Per-target setup: ESE reuses the shared index (cheap); the
     scan-based backends each pay an O(|Q| * |D|) threshold pass. *)
  let scan_engine = with_backend engine (module Iq.Engine.Scan_backend) in
  let rta_engine = with_backend engine (module Iq.Engine.Rta_backend) in
  let ese, t_ese_setup =
    Harness.time (fun () -> ok (Iq.Engine.evaluator engine ~target))
  in
  let naive, t_naive_setup =
    Harness.time (fun () -> ok (Iq.Engine.evaluator scan_engine ~target))
  in
  let rta, t_rta_setup =
    Harness.time (fun () -> ok (Iq.Engine.evaluator rta_engine ~target))
  in
  Printf.printf
    "    per-target setup: ese %.1f ms | naive %.1f ms | rta %.1f ms\n"
    (1000. *. t_ese_setup) (1000. *. t_naive_setup) (1000. *. t_rta_setup);
  (* The band state the engine's ESE backend holds, prepared here too
     so the table can show the band prefix [evaluate] re-scores. *)
  let state = Iq.Ese.prepare (Iq.Engine.index engine) ~target in
  Harness.row
    [
      " step size"; "   ese(us)"; " naive(us)"; "   rta(us)"; " dirty-qs";
      " rescored";
    ];
  List.iter
    (fun magnitude ->
      let s = [| -.magnitude; -.magnitude /. 2.; -.magnitude /. 4. |] in
      let h_ese = ref 0 and h_naive = ref 0 and h_rta = ref 0 in
      let reps = 100 in
      let t_ese =
        Harness.time_only (fun () ->
            for _ = 1 to reps do
              h_ese := ese.Iq.Evaluator.hit_count s
            done)
      in
      let t_naive =
        Harness.time_only (fun () ->
            for _ = 1 to reps do
              h_naive := naive.Iq.Evaluator.hit_count s
            done)
      in
      let t_rta =
        Harness.time_only (fun () ->
            for _ = 1 to reps do
              h_rta := rta.Iq.Evaluator.hit_count s
            done)
      in
      assert (!h_ese = !h_naive && !h_naive = !h_rta);
      let dirty = List.length (ok (Iq.Engine.dirty_queries engine ~target ~s)) in
      let rescored =
        List.length
          (Iq.Ese.dirty_between state ~s_from:(Array.make 3 0.) ~s_to:s)
      in
      let us t = Printf.sprintf "%10.2f" (1e6 *. t /. float_of_int reps) in
      Harness.row
        [
          Printf.sprintf "%10.3f" magnitude;
          us t_ese;
          us t_naive;
          us t_rta;
          Printf.sprintf "%9d" dirty;
          Printf.sprintf "%9d" rescored;
        ])
    [ 0.001; 0.01; 0.05; 0.1; 0.25 ];
  Harness.note
    "ESE rides the shared index; the scan evaluators pay an O(|Q|*|D|) \
     per-target setup before their per-evaluation numbers apply"

(* --- top-k evaluator comparison ------------------------------------- *)

let topk_evaluators () =
  Harness.header
    "Ablation: top-k evaluator substrates (time per query, identical \
     results)";
  let rng = Harness.rng 9003 in
  let n = 20_000 and d = 3 in
  let data =
    Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d
  in
  let ta = Topk.Ta.build data in
  let dominance = Topk.Dominance.build data in
  let onion = Topk.Onion.build data in
  let views =
    Topk.View.build
      ~views:[ [| 0.2; 0.4; 0.4 |]; [| 0.6; 0.2; 0.2 |]; [| 0.33; 0.33; 0.34 |] ]
      data
  in
  let queries =
    List.init 50 (fun _ -> Array.init d (fun _ -> Workload.Rng.uniform rng))
  in
  let k = 10 in
  let evaluators =
    [
      ("scan", fun w -> Topk.Eval.top_k data ~weights:w ~k);
      ("TA", fun w -> Topk.Ta.top_k ta ~weights:w ~k);
      ("dominance", fun w -> Topk.Dominance.top_k dominance ~data ~weights:w ~k);
      ("onion", fun w -> Topk.Onion.top_k onion ~data ~weights:w ~k);
      ("views", fun w -> Topk.View.top_k views ~weights:w ~k);
    ]
  in
  Harness.row [ "  evaluator"; "  us/query" ];
  List.iter
    (fun (name, f) ->
      (* correctness cross-check first *)
      List.iter
        (fun w ->
          if f w <> Topk.Eval.top_k data ~weights:w ~k then
            failwith (name ^ ": wrong result"))
        queries;
      let t =
        Harness.time_only (fun () -> List.iter (fun w -> ignore (f w)) queries)
      in
      Harness.row
        [
          Printf.sprintf "%11s" name;
          Printf.sprintf "%10.1f" (1e6 *. t /. 50.);
        ])
    evaluators;
  Harness.note "all five agree on results; costs differ by orders of magnitude"

(* --- Section 4.3 maintenance vs rebuild ------------------------------ *)

let updates () =
  Harness.header "Ablation: incremental maintenance (Section 4.3) vs rebuild";
  let engine = make_engine ~seed:9004 ~n:4000 ~m:600 ~d:3 in
  let rng = Harness.rng 90041 in
  let ops = 50 in
  let t_addq =
    Harness.time_only (fun () ->
        for _ = 1 to ops do
          ignore
            (ok
               (Iq.Engine.add_query engine
                  (Topk.Query.make
                     ~k:(1 + Workload.Rng.int rng 19)
                     (Array.init 3 (fun _ -> Workload.Rng.uniform rng)))))
        done)
  in
  let t_addo =
    Harness.time_only (fun () ->
        for _ = 1 to ops do
          ignore
            (ok
               (Iq.Engine.add_object engine
                  (Array.init 3 (fun _ -> Workload.Rng.uniform rng))))
        done)
  in
  let t_updo =
    Harness.time_only (fun () ->
        for _ = 1 to ops do
          let id =
            Workload.Rng.int rng
              (Iq.Instance.n_objects (Iq.Engine.instance engine))
          in
          ok
            (Iq.Engine.update_object engine id
               (Array.init 3 (fun _ -> Workload.Rng.uniform rng)))
        done)
  in
  let t_remo =
    Harness.time_only (fun () ->
        for _ = 1 to ops do
          ok
            (Iq.Engine.remove_object engine
               (Workload.Rng.int rng
                  (Iq.Instance.n_objects (Iq.Engine.instance engine))))
        done)
  in
  let t_remq =
    Harness.time_only (fun () ->
        for _ = 1 to ops do
          ok
            (Iq.Engine.remove_query engine
               (Workload.Rng.int rng
                  (Iq.Instance.n_queries (Iq.Engine.instance engine))))
        done)
  in
  let t_rebuild =
    Harness.time_only (fun () ->
        ignore (Harness.engine (Iq.Engine.instance engine)))
  in
  let hint_hits, hint_misses =
    Iq.Query_index.hint_stats (Iq.Engine.index engine)
  in
  Harness.row [ "          op"; "   ms/op" ];
  List.iter
    (fun (name, t) ->
      Harness.row
        [
          Printf.sprintf "%12s" name;
          Printf.sprintf "%8.2f" (1000. *. t /. float_of_int ops);
        ])
    [
      ("add-query", t_addq);
      ("add-object", t_addo);
      ("upd-object", t_updo);
      ("rem-object", t_remo);
      ("rem-query", t_remq);
    ];
  Harness.row
    [ Printf.sprintf "%12s" "full-rebuild"; Printf.sprintf "%8.2f" (1000. *. t_rebuild) ];
  Harness.note "kNN subdomain hint: %d hits / %d misses" hint_hits hint_misses;
  Harness.note "engine generation after the update storm: %d"
    (Iq.Engine.generation engine)

(* --- combinatorial vs independent allocation (Section 5.1) ---------- *)

let combinatorial () =
  Harness.header
    "Ablation: combinatorial multi-target improvement vs independent \
     per-target allocation (Section 5.1)";
  let engine = make_engine ~seed:9005 ~n:3000 ~m:400 ~d:3 in
  let cost3 = Iq.Cost.euclidean 3 in
  let targets = [ 5; 77; 199 ] in
  let tau = 30 in
  (* Warm every target's evaluator so both timings below measure pure
     search work. *)
  List.iter (fun target -> ignore (ok (Iq.Engine.evaluator engine ~target))) targets;
  (* Combinatorial: one shared goal, strategy mass goes to whichever
     target covers queries cheapest. *)
  let comb, t_comb =
    Harness.time (fun () ->
        Iq.Engine.min_cost_multi engine
          ~costs:(List.map (fun t -> (t, cost3)) targets)
          ~tau ~candidate_cap:24)
  in
  (* Independent: split tau evenly, each target fends for itself. *)
  let share = (tau + List.length targets - 1) / List.length targets in
  let indep, t_indep =
    Harness.time (fun () ->
        List.filter_map
          (fun target ->
            match
              Iq.Engine.min_cost ~candidate_cap:24 engine ~cost:cost3 ~target
                ~tau:share
            with
            | Ok o -> Some (target, o)
            | Error Iq.Engine.Error.Infeasible -> None
            | Error e -> failwith (Iq.Engine.Error.to_string e))
          targets)
  in
  (match comb with
  | Ok o ->
      Printf.printf
        "  combinatorial: union hits %d, total cost %.4f (%.0f ms)\n"
        o.Iq.Combinatorial.union_hits_after o.Iq.Combinatorial.total_cost
        (1000. *. t_comb)
  | Error Iq.Engine.Error.Infeasible ->
      print_endline "  combinatorial: infeasible"
  | Error e -> failwith (Iq.Engine.Error.to_string e));
  let indep_cost =
    List.fold_left (fun acc (_, o) -> acc +. o.Iq.Min_cost.total_cost) 0. indep
  in
  (* Union hits of the independent strategies, counted once per query
     against the ground-truth scan backend. *)
  let inst = Iq.Engine.instance engine in
  let scan_engine = with_backend engine (module Iq.Engine.Scan_backend) in
  let covered = Array.make (Iq.Instance.n_queries inst) false in
  List.iter
    (fun (target, o) ->
      let naive = ok (Iq.Engine.evaluator scan_engine ~target) in
      for q = 0 to Iq.Instance.n_queries inst - 1 do
        if naive.Iq.Evaluator.member ~q o.Iq.Min_cost.strategy then
          covered.(q) <- true
      done)
    indep;
  let union =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 covered
  in
  Printf.printf
    "  independent:   union hits %d, total cost %.4f (%.0f ms)\n" union
    indep_cost
    (1000. *. t_indep);
  Harness.note
    "the combinatorial search spends the budget where coverage is cheapest"

(* --- tau sensitivity: ratio-greedy vs cheapest-first ----------------- *)

let tau_sensitivity () =
  Harness.header
    "Ablation: Efficient-IQ vs simple Greedy as tau grows (quality gap)";
  let engine = make_engine ~seed:9006 ~n:2500 ~m:500 ~d:3 in
  let cost = Iq.Cost.euclidean 3 in
  let targets = [ 11; 402; 1200 ] in
  Harness.row [ "      tau"; "  eff-cost"; " greedy-cost"; "  gap(%)" ];
  List.iter
    (fun tau ->
      let eff = ref [] and greedy = ref [] in
      List.iter
        (fun target ->
          (match
             Iq.Engine.min_cost ~candidate_cap:16 engine ~cost ~target ~tau
           with
          | Ok o -> eff := o.Iq.Min_cost.total_cost :: !eff
          | Error Iq.Engine.Error.Infeasible -> ()
          | Error e -> failwith (Iq.Engine.Error.to_string e));
          match
            Iq.Baselines.greedy_min_cost
              ~evaluator:(ok (Iq.Engine.evaluator engine ~target))
              ~cost ~target ~tau ()
          with
          | Some o -> greedy := o.Iq.Baselines.total_cost :: !greedy
          | None -> ())
        targets;
      let e = Harness.mean !eff and g = Harness.mean !greedy in
      Harness.row
        [
          Printf.sprintf "%9d" tau;
          Printf.sprintf "%10.4f" e;
          Printf.sprintf "%12.4f" g;
          Printf.sprintf "%8.1f" (100. *. ((g /. e) -. 1.));
        ])
    [ 10; 30; 60; 120 ];
  Harness.note
    "cheapest-first myopia compounds with more iterations (larger tau)"

let run_all () =
  cap_sweep ();
  tau_sensitivity ();
  ese_vs_naive ();
  topk_evaluators ();
  updates ();
  combinatorial ()
