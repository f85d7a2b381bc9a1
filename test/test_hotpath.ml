(* The hot path: flat SoA geometry and the reach band over the kth-rival
   thresholds. The contract under test is exactness — the band must
   return bit-for-bit the same counts, strategies and dirty sets as the
   paper's Algorithm 2 slab search ([~prune:false]), on any weight
   signs, at every pool size and backend, and across interleaved
   mutations. *)

open Iq

let pool1 = Parallel.create ~domains:1 ()
let pool4 = Parallel.create ~domains:4 ()

let make_instance ?order ?(seed = 77) ?(n = 120) ?(m = 60) ?(d = 3) ?(kmax = 6)
    () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, kmax)
      ~m ~d ()
  in
  Instance.create ?order ~data ~queries ()

let ok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "unexpected engine error: %s" (Engine.Error.to_string e)

(* --- Ese level: pruned state == full state, observably ---------------- *)

(* Band [evaluate], Algorithm 2 [evaluate] and [Evaluator.naive] must
   agree exactly on every strategy, and [member_after] on every query;
   the band's dirty set must hold every query whose membership the
   strategy changes. Every default state must be pruned: the band
   needs no sign or layer assumption. [strategies target] is called
   once per target, in order. *)
let check_pruned_equals_full inst ~targets ~strategies =
  let idx = Query_index.build inst in
  let zero = Array.make (Instance.dim inst) 0. in
  List.iter
    (fun target ->
      let full = Ese.prepare ~prune:false idx ~target in
      let kth = Ese.prepare idx ~target in
      let naive = Evaluator.naive inst ~target in
      Alcotest.(check bool) "full state is unpruned" false (Ese.pruned full);
      Alcotest.(check bool) "default state is pruned" true (Ese.pruned kth);
      Alcotest.(check bool)
        "pruned rival set is no larger" true
        (Ese.rival_count kth <= Ese.rival_count full);
      Alcotest.(check int) "base hits agree" (Ese.base_hits full)
        (Ese.base_hits kth);
      Alcotest.(check int) "base hits match naive" naive.Evaluator.base_hits
        (Ese.base_hits kth);
      (* The base memberships the pruned path keeps for every query it
         does not re-score. *)
      for q = 0 to Instance.n_queries inst - 1 do
        if Ese.member kth ~q <> Ese.member_after kth ~s:zero ~q then
          Alcotest.failf "target=%d q=%d: member <> member_after at 0" target q
      done;
      List.iter
        (fun s ->
          let label =
            Printf.sprintf "target=%d s=[%s]" target
              (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") s)))
          in
          Alcotest.(check int) ("full evaluate matches naive, " ^ label)
            (naive.Evaluator.hit_count s) (Ese.evaluate full ~s);
          Alcotest.(check int) ("pruned evaluate matches full, " ^ label)
            (Ese.evaluate full ~s) (Ese.evaluate kth ~s);
          for q = 0 to Instance.n_queries inst - 1 do
            let expected = naive.Evaluator.member ~q s in
            if
              Ese.member_after full ~s ~q <> expected
              || Ese.member_after kth ~s ~q <> expected
            then Alcotest.failf "member_after diverges at %s q=%d" label q
          done;
          let full_dirty = Ese.dirty_queries full ~s in
          List.iter
            (fun q ->
              if not (List.mem q full_dirty) then
                Alcotest.failf "pruned dirty set invented query %d" q)
            (Ese.dirty_queries kth ~s);
          let band_dirty = Ese.dirty_between kth ~s_from:zero ~s_to:s in
          for q = 0 to Instance.n_queries inst - 1 do
            if
              Ese.member_after kth ~s ~q <> Ese.member kth ~q
              && not (List.mem q band_dirty)
            then Alcotest.failf "band dirty set misses %s q=%d" label q
          done)
        (strategies target))
    targets

let test_ese_pruned_equals_full () =
  let inst = make_instance ~seed:31 ~n:140 ~m:90 () in
  let d = Instance.dim inst in
  let rng = Workload.Rng.make 404 in
  (* Twelve fresh strategies per target, drawn from one stream. *)
  let strategies _target =
    List.init 12 (fun _ ->
        Array.init d (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.6))
  in
  check_pruned_equals_full inst ~targets:(List.init 8 Fun.id) ~strategies

(* Exactness on degenerate inputs: duplicated objects put
   exact ties at rank k (the target against its own copy, both ways
   round the id tie-break), queries with zero weight components tie
   every object that differs only there, and the strategies include
   the zero step and steps with [-0.]/[0.] coordinates. *)
let test_ese_pruned_degenerate () =
  let d = 3 in
  let rng = Workload.Rng.make 58 in
  let base = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:60 ~d in
  (* Copy the 12 objects with the lowest coordinate sums, the ones that
     sit inside top-k results. *)
  let sum v = Array.fold_left ( +. ) 0. v in
  let best = Array.init 60 Fun.id in
  Array.stable_sort (fun i j -> Float.compare (sum base.(i)) (sum base.(j))) best;
  let copies = Array.init 12 (fun c -> Array.copy base.(best.(c))) in
  let data = Array.append base copies in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 6) ~m:60
      ~d ()
    |> List.mapi (fun i (q : Topk.Query.t) ->
           if i mod 2 = 0 then begin
             let w = Array.copy q.Topk.Query.weights in
             w.(i / 2 mod d) <- 0.;
             Topk.Query.make ~id:q.Topk.Query.id ~k:q.Topk.Query.k w
           end
           else q)
  in
  let inst = Instance.create ~data ~queries () in
  let targets = [ best.(0); 60; best.(1); 61; best.(5); 65 ] in
  let strategies _target =
    [
      [| 0.; 0.; 0. |];
      [| -0.; -0.; -0. |];
      [| -0.; 0.; -0. |];
      [| -0.1; -0.; 0. |];
      [| 0.; -0.05; -0. |];
      [| -0.; 0.; -0.2 |];
      [| 0.05; -0.; -0.05 |];
      [| -0.15; -0.15; -0.15 |];
    ]
  in
  check_pruned_equals_full inst ~targets ~strategies

(* The evaluation hot path allocates per call, not per query it
   re-scores: a pruned [evaluate] only its boxed reach bound,
   [member_after] nothing. The query counts run from 60 to 2400, so a
   cost that grew with m would show. Bytecode boxes every float, so the
   bound is checked on native code only. *)
let test_ese_allocation () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun m ->
        let inst = make_instance ~seed:12 ~n:300 ~m ~kmax:12 () in
        let idx = Query_index.build inst in
        let st = Ese.prepare idx ~target:3 in
        Alcotest.(check bool) "state is pruned" true (Ese.pruned st);
        let s = [| -0.2; -0.15; -0.25 |] in
        (* On a pruned state, the band prefix [evaluate] re-scores. *)
        let rescored =
          List.length (Ese.dirty_between st ~s_from:(Array.make 3 0.) ~s_to:s)
        in
        if rescored < m / 4 then
          Alcotest.failf "m=%d: only %d re-scored queries, too few to show a \
                          per-query allocation" m rescored;
        let calls = 500 in
        let words f =
          f ();
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            f ()
          done;
          (Gc.minor_words () -. before) /. float_of_int calls
        in
        let per_eval =
          words (fun () -> ignore (Sys.opaque_identity (Ese.evaluate st ~s)))
        in
        let per_member =
          words (fun () ->
              ignore (Sys.opaque_identity (Ese.member_after st ~s ~q:(m - 1))))
        in
        if per_eval > 2. then
          Alcotest.failf "m=%d: %.1f words per evaluate (%d re-scored)" m
            per_eval rescored;
        if per_member > 1. then
          Alcotest.failf "m=%d: %.1f words per member_after" m per_member)
      [ 60; 240; 2400 ]

(* The reach band on its edges. Targets are near copies of good objects
   (exact, and one ulp either side on one coordinate), so scores tie
   the k-th threshold or miss it by an ulp; query 0 has all-zero
   weights. Steps include, per query, the L∞-smallest step that
   reaches its threshold scaled by [1 ± 1e-9] (and unscaled),
   subnormal steps and [±infinity]/[nan] coordinates. (The index built
   here is only read for the kth rivals the steps aim at.) *)
let prop_ese_band_exact =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let* d = oneofl [ 1; 3; 8 ] in
      return (seed, d))
  in
  let arb =
    QCheck.make ~print:(fun (seed, d) -> Printf.sprintf "seed=%d d=%d" seed d) gen
  in
  QCheck.Test.make ~name:"ESE pruned == full == naive on the reach band's edges"
    ~count:6 arb (fun (seed, d) ->
      let rng = Workload.Rng.make seed in
      let n = 40 in
      let base =
        Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d
      in
      let sum v = Array.fold_left ( +. ) 0. v in
      let best = Array.init n Fun.id in
      Array.stable_sort (fun i j -> Float.compare (sum base.(i)) (sum base.(j))) best;
      let near c nudge =
        let p = Array.copy base.(best.(c)) in
        p.(c mod d) <- nudge p.(c mod d);
        p
      in
      let copies =
        List.concat_map
          (fun c -> [ near c Fun.id; near c Float.succ; near c Float.pred ])
          [ 0; 1; 2 ]
      in
      let data = Array.append base (Array.of_list copies) in
      let queries =
        Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5)
          ~m:30 ~d ()
        |> List.mapi (fun i (q : Topk.Query.t) ->
               if i = 0 then
                 Topk.Query.make ~id:q.Topk.Query.id ~k:q.Topk.Query.k
                   (Array.make d 0.)
               else q)
      in
      let inst = Instance.create ~data ~queries () in
      let idx = Query_index.build inst in
      let tiny = Float.succ 0. in
      let fixed =
        [
          Array.make d 0.;
          Array.make d tiny;
          Array.make d (-.tiny);
          Array.init d (fun j -> if j = 0 then -5e-320 else 0.);
          Array.init d (fun j -> if j = 0 then infinity else -0.1);
          Array.init d (fun j -> if j = 0 then neg_infinity else 0.);
          Array.init d (fun j -> if j = d - 1 then nan else -0.1);
        ]
      in
      (* Per query, the step of L∞ norm |gap| / ‖w‖₁ that moves the
         score by the gap towards the threshold, scaled. *)
      let reaching target =
        let p = inst.Instance.features.(target) in
        List.concat_map
          (fun q ->
            match Query_index.kth_other idx ~q ~target with
            | None -> []
            | Some r ->
                let w = inst.Instance.queries.(q).Topk.Query.weights in
                let gap = Geom.Vec.dot w p -. Geom.Vec.dot w inst.Instance.features.(r) in
                let w1 = Array.fold_left (fun a x -> a +. abs_float x) 0. w in
                let c = abs_float gap /. w1 in
                let dir = if gap > 0. then -1. else 1. in
                List.map
                  (fun f -> Array.make d (dir *. c *. f))
                  [ 1. -. 1e-9; 1.; 1. +. 1e-9 ])
          (List.init (Instance.n_queries inst) Fun.id)
      in
      let targets = best.(0) :: List.init 9 (fun i -> n + i) in
      check_pruned_equals_full inst ~targets
        ~strategies:(fun target -> fixed @ reaching target);
      true)

(* The band on any weight signs: [Desc]-order instances (whose weights
   are negated at construction), hand-built mixed-sign weight vectors
   with and without zero components, an all-zero one, and ties at rank
   k (every object in the first half has an exact copy, so a rank-k
   rival ties its copy and a target ties its own). The reach bound is
   in [|w|] and [‖w‖₁] only, so every state must evaluate through the
   band and still answer like Algorithm 2 and the naive scan. *)
let prop_ese_any_sign =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let* d = oneofl [ 1; 2; 3; 5 ] in
      let* desc = bool in
      return (seed, d, desc))
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, d, desc) ->
        Printf.sprintf "seed=%d d=%d desc=%b" seed d desc)
      gen
  in
  QCheck.Test.make ~name:"ESE band exact on any signs" ~count:8 arb
    (fun (seed, d, desc) ->
      let rng = Workload.Rng.make seed in
      let n = 36 in
      let base =
        Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d
      in
      let data =
        Array.append base (Array.init (n / 2) (fun i -> Array.copy base.(i)))
      in
      let signed () = (2. *. Workload.Rng.uniform rng) -. 1. in
      let queries =
        Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5)
          ~m:32 ~d ()
        |> List.mapi (fun i (q : Topk.Query.t) ->
               let make w =
                 Topk.Query.make ~id:q.Topk.Query.id ~k:q.Topk.Query.k w
               in
               let zero_at j = if j = i mod d then 0. else signed () in
               match i mod 4 with
               | _ when i = 0 -> make (Array.make d 0.)
               | 1 -> make (Array.init d (fun _ -> signed ()))
               | 2 -> make (Array.init d zero_at)
               | 3 -> make (Array.map (fun w -> -.w) q.Topk.Query.weights)
               | _ -> q)
      in
      let order = if desc then Topk.Utility.Desc else Topk.Utility.Asc in
      let inst = Instance.create ~order ~data ~queries () in
      let targets = [ 0; 1; 2; n; n + 1; n + 2; n - 1; (n / 2) + 3 ] in
      let strategies _target =
        Array.make d 0.
        :: List.concat_map
             (fun scale ->
               List.init 4 (fun _ -> Array.init d (fun _ -> scale *. signed ())))
             [ 0.02; 0.2; 1. ]
      in
      check_pruned_equals_full inst ~targets ~strategies;
      true)

(* --- Engine level: prune on/off outcomes are byte-identical ---------- *)

let outcome_sig_mc (o : Min_cost.outcome) =
  (o.Min_cost.strategy, o.Min_cost.total_cost, o.Min_cost.hits_after,
   o.Min_cost.iterations)

let outcome_sig_mh (o : Max_hit.outcome) =
  (o.Max_hit.strategy, o.Max_hit.total_cost, o.Max_hit.hits_after,
   o.Max_hit.iterations)

let prop_engine_prune_oracle =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let* n = int_range 20 60 in
      let* m = int_range 10 40 in
      let* d = int_range 2 5 in
      let* desc = bool in
      return (seed, n, m, d, desc))
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, n, m, d, desc) ->
        Printf.sprintf "seed=%d n=%d m=%d d=%d desc=%b" seed n m d desc)
      gen
  in
  QCheck.Test.make
    ~name:"engine outcomes identical with pruning on/off (backends x pools)"
    ~count:10 arb (fun (seed, n, m, d, desc) ->
      let order = if desc then Topk.Utility.Desc else Topk.Utility.Asc in
      let inst = make_instance ~order ~seed ~n ~m ~d ~kmax:4 () in
      let cost = Cost.euclidean d in
      let ok' = function
        | Ok v -> v
        | Error e ->
            QCheck.Test.fail_reportf "engine error: %s"
              (Engine.Error.to_string e)
      in
      List.for_all
        (fun backend_name ->
          let backend = ok' (Engine.backend_of_name backend_name) in
          List.for_all
            (fun pool ->
              let on = ok' (Engine.create ~backend ~prune:true ~pool inst) in
              let off = ok' (Engine.create ~backend ~prune:false ~pool inst) in
              let target = seed mod Int.min 5 n in
              let mc e =
                Engine.min_cost ~candidate_cap:16 e ~cost ~target ~tau:3
              in
              let mh e =
                Engine.max_hit ~candidate_cap:16 e ~cost ~target ~beta:0.3
              in
              (match (mc on, mc off) with
              | Ok a, Ok b ->
                  if outcome_sig_mc a <> outcome_sig_mc b then
                    QCheck.Test.fail_reportf
                      "min-cost diverges: backend=%s" backend_name
              | Error Engine.Error.Infeasible, Error Engine.Error.Infeasible
                ->
                  ()
              | _ ->
                  QCheck.Test.fail_reportf
                    "min-cost feasibility diverges: backend=%s" backend_name);
              let a = ok' (mh on) and b = ok' (mh off) in
              if outcome_sig_mh a <> outcome_sig_mh b then
                QCheck.Test.fail_reportf "max-hit diverges: backend=%s"
                  backend_name;
              true)
            [ pool1; pool4 ])
        [ "ese"; "scan"; "rta" ])

(* [Engine.dirty_queries] is the paper's affected subspace whichever
   ESE path evaluates: pruning changes which queries [evaluate]
   re-scores, never this set. *)
let test_dirty_queries_prune_invariant () =
  let inst = make_instance ~seed:21 ~n:150 ~m:80 () in
  let on = ok (Engine.create ~prune:true ~pool:pool1 inst) in
  let off = ok (Engine.create ~prune:false ~pool:pool1 inst) in
  let rng = Workload.Rng.make 8 in
  let total = ref 0 in
  List.iter
    (fun target ->
      for _ = 1 to 6 do
        let s =
          Array.init 3 (fun _ -> (Workload.Rng.uniform rng -. 0.5) *. 0.5)
        in
        let pruned = ok (Engine.dirty_queries on ~target ~s) in
        Alcotest.(check (list int))
          "prune on = prune off"
          (ok (Engine.dirty_queries off ~target ~s))
          pruned;
        total := !total + List.length pruned
      done)
    [ 0; 7; 42 ];
  Alcotest.(check bool) "some query is affected" true (!total > 0)

(* --- mutations: the band stays exact and no layer index is built ----- *)

let no_layer_index msg e =
  Alcotest.(check (option (pair int int))) msg None (Engine.dominance_stats e)

let test_band_across_mutations () =
  let inst = make_instance ~seed:77 () in
  let e = ok (Engine.create ~prune:true ~pool:pool1 inst) in
  let _ = ok (Engine.hits e ~target:2) in
  no_layer_index "after a prepare" e;
  let target = 2 in
  let moved =
    Array.map (fun v -> Float.max 0. (v -. 0.3)) inst.Instance.raw.(target)
  in
  ok (Engine.update_object e target moved);
  Alcotest.(check int) "mutation bumped generation" 1 (Engine.generation e);
  no_layer_index "after update_object" e;
  let h1 = ok (Engine.hits e ~target) in
  (* The re-prepared engine answers exactly like a fresh build and
     like an Algorithm 2 engine over the same mutated instance. *)
  let fresh = ok (Engine.create ~prune:true ~pool:pool1 (Engine.instance e)) in
  let off = ok (Engine.create ~prune:false ~pool:pool1 (Engine.instance e)) in
  Alcotest.(check int) "pruned = fresh build" (ok (Engine.hits fresh ~target)) h1;
  Alcotest.(check int) "pruned = unpruned" (ok (Engine.hits off ~target)) h1;
  ok (Engine.remove_object e (Instance.n_objects (Engine.instance e) - 1));
  no_layer_index "after remove_object" e;
  let h2 = ok (Engine.hits e ~target) in
  let off2 =
    ok (Engine.create ~prune:false ~pool:pool1 (Engine.instance e))
  in
  Alcotest.(check int) "post-removal pruned = unpruned"
    (ok (Engine.hits off2 ~target)) h2;
  let cost = Cost.euclidean (Instance.dim (Engine.instance e)) in
  let costs = [ (target, cost); (9, cost) ] in
  Alcotest.(check bool) "multi-target pruned = unpruned" true
    (ok (Engine.max_hit_multi e ~costs ~beta:0.4)
    = ok (Engine.max_hit_multi off2 ~costs ~beta:0.4));
  no_layer_index "after a multi-target search" e;
  Alcotest.(check bool) "stats carry the flag" true (Engine.stats e).Engine.prune

(* [prune] reaches the backend as its [layers] flag: the default engine
   prepares band states, [~prune:false] the paper's Algorithm 2. *)
let test_prune_flag_picks_path () =
  let inst = make_instance ~seed:5 ~n:60 ~m:30 () in
  let seen = ref [] in
  let module Recording : Engine.BACKEND = struct
    let name = Engine.Ese_backend.name

    let prepare ~layers ~index ~pool ~target =
      let ev, st = Engine.Ese_backend.prepare ~layers ~index ~pool ~target in
      Option.iter (fun st -> seen := (layers, Ese.pruned st) :: !seen) st;
      (ev, st)
  end in
  let backend = (module Recording : Engine.BACKEND) in
  let on = ok (Engine.create ~backend ~pool:pool1 inst) in
  let off = ok (Engine.create ~backend ~prune:false ~pool:pool1 inst) in
  let h_on = ok (Engine.hits on ~target:0) in
  Alcotest.(check (list (pair bool bool))) "default: band" [ (true, true) ] !seen;
  seen := [];
  Alcotest.(check int) "same answer" h_on (ok (Engine.hits off ~target:0));
  Alcotest.(check (list (pair bool bool)))
    "prune off: Algorithm 2" [ (false, false) ] !seen;
  Alcotest.(check bool) "stats flag off" false (Engine.stats off).Engine.prune

(* --- the flat SoA views stay in sync through every mutation ---------- *)

let check_sync msg inst =
  let open Geom in
  let n = Instance.n_objects inst and m = Instance.n_queries inst in
  Alcotest.(check int) (msg ^ ": flat rows") n (Flat.rows inst.Instance.flat);
  Alcotest.(check int) (msg ^ ": qflat rows") m (Flat.rows inst.Instance.qflat);
  for i = 0 to n - 1 do
    if Flat.row inst.Instance.flat i <> inst.Instance.features.(i) then
      Alcotest.failf "%s: flat row %d diverged from features" msg i
  done;
  for q = 0 to m - 1 do
    if Flat.row inst.Instance.qflat q
       <> inst.Instance.queries.(q).Topk.Query.weights
    then Alcotest.failf "%s: qflat row %d diverged from weights" msg q
  done

let test_flat_views_sync () =
  let inst = make_instance ~seed:13 ~n:30 ~m:20 () in
  check_sync "create" inst;
  let d = Instance.dim inst in
  let inst = Instance.with_feature inst ~target:4 (Array.make d 0.25) in
  check_sync "with_feature" inst;
  let inst = Instance.add_object inst (Array.make (Instance.dim_raw inst) 0.7) in
  check_sync "add_object" inst;
  let inst = Instance.update_object inst 2 (Array.make (Instance.dim_raw inst) 0.1) in
  check_sync "update_object" inst;
  let inst = Instance.remove_object inst 0 in
  check_sync "remove_object" inst;
  let inst =
    Instance.add_query inst
      (Topk.Query.make ~id:999 ~k:2 (Array.init d (fun j -> 0.1 *. float_of_int (j + 1))))
  in
  check_sync "add_query" inst;
  let inst = Instance.remove_query inst 3 in
  check_sync "remove_query" inst

let suite =
  [
    Alcotest.test_case "ESE pruned state == full state" `Quick
      test_ese_pruned_equals_full;
    QCheck_alcotest.to_alcotest prop_ese_any_sign;
    QCheck_alcotest.to_alcotest prop_engine_prune_oracle;
    Alcotest.test_case "band exact across mutations" `Quick
      test_band_across_mutations;
    Alcotest.test_case "prune flag picks ESE path" `Quick
      test_prune_flag_picks_path;
    Alcotest.test_case "flat SoA views track all mutations" `Quick
      test_flat_views_sync;
    Alcotest.test_case "ESE pruned == full == naive on ties and zeros" `Quick
      test_ese_pruned_degenerate;
    Alcotest.test_case "ESE evaluation allocates O(d), not O(m)" `Quick
      test_ese_allocation;
    QCheck_alcotest.to_alcotest prop_ese_band_exact;
    Alcotest.test_case "dirty_queries is the same set with pruning on/off"
      `Quick test_dirty_queries_prune_invariant;
  ]
