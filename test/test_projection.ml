open Lp.Projection

let dot a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let norm s = sqrt (dot s s)

let test_l2_zero_when_satisfied () =
  let s = l2 ~a:[| 1.; 1. |] ~b:2. in
  Alcotest.(check (float 1e-12)) "zero step" 0. (norm s)

let test_l2_projection () =
  let a = [| 1.; 1. |] and b = -2. in
  let s = l2 ~a ~b in
  Alcotest.(check (float 1e-9)) "constraint tight" b (dot a s);
  (* min-norm solution is along -a: (-1, -1). *)
  Alcotest.(check (float 1e-9)) "s0" (-1.) s.(0);
  Alcotest.(check (float 1e-9)) "s1" (-1.) s.(1)

let test_weighted_l2 () =
  let a = [| 1.; 1. |] and w = [| 1.; 4. |] in
  match weighted_l2 ~w ~a ~b:(-2.) with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      Alcotest.(check (float 1e-9)) "tight" (-2.) (dot a s);
      (* Cheap coordinate moves 4x more: s = (-1.6, -0.4). *)
      Alcotest.(check (float 1e-9)) "s0" (-1.6) s.(0);
      Alcotest.(check (float 1e-9)) "s1" (-0.4) s.(1)

let test_l2_boxed () =
  let a = [| 1.; 1. |] in
  let bounds = { lo = [| -0.5; -10. |]; hi = [| 10.; 10. |] } in
  match l2_boxed ~bounds ~a ~b:(-2.) () with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      Alcotest.(check bool) "within box" true (s.(0) >= -0.5 -. 1e-9);
      Alcotest.(check bool) "constraint" true (dot a s <= -2. +. 1e-6);
      (* Clamped coordinate takes -0.5; the rest falls on s1 = -1.5. *)
      Alcotest.(check (float 1e-6)) "s0 clamped" (-0.5) s.(0);
      Alcotest.(check (float 1e-6)) "s1 compensates" (-1.5) s.(1)

let test_l2_boxed_infeasible () =
  let bounds = { lo = [| -0.1; -0.1 |]; hi = [| 0.1; 0.1 |] } in
  Alcotest.(check bool)
    "unreachable halfspace" true
    (l2_boxed ~bounds ~a:[| 1.; 1. |] ~b:(-2.) () = None)

let test_l1 () =
  let a = [| 1.; 3. |] in
  match l1_boxed ~a ~b:(-3.) () with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      (* Leverage goes to coordinate 1: s = (0, -1), cost 1. *)
      Alcotest.(check (float 1e-9)) "s0" 0. s.(0);
      Alcotest.(check (float 1e-9)) "s1" (-1.) s.(1);
      Alcotest.(check bool) "constraint" true (dot a s <= -3. +. 1e-9)

let test_l1_boxed_spillover () =
  let a = [| 1.; 3. |] in
  let bounds = { lo = [| -10.; -0.5 |]; hi = [| 10.; 10. |] } in
  match l1_boxed ~bounds ~a ~b:(-3.) () with
  | None -> Alcotest.fail "expected solution"
  | Some s ->
      (* Coordinate 1 saturates at -0.5 (removes 1.5); coordinate 0
         covers the remaining 1.5. *)
      Alcotest.(check (float 1e-9)) "s1 saturated" (-0.5) s.(1);
      Alcotest.(check (float 1e-9)) "s0 spillover" (-1.5) s.(0)

let test_freeze () =
  let b = unbounded 3 in
  let b = freeze b 1 in
  Alcotest.(check (float 0.)) "frozen lo" 0. b.lo.(1);
  Alcotest.(check (float 0.)) "frozen hi" 0. b.hi.(1);
  let a = [| 0.; 5.; 0. |] in
  (* Only the frozen coordinate has leverage: infeasible. *)
  Alcotest.(check bool) "frozen leverage infeasible" true
    (l2_boxed ~bounds:b ~a ~b:(-1.) () = None)

let test_feasible () =
  let b = { lo = [| -1.; -1. |]; hi = [| 1.; 1. |] } in
  Alcotest.(check bool) "reachable" true (feasible ~a:[| 1.; 1. |] ~b:(-1.5) b);
  Alcotest.(check bool) "unreachable" false (feasible ~a:[| 1.; 1. |] ~b:(-3.) b)

let arb_case =
  QCheck.make
    ~print:(fun _ -> "case")
    QCheck.Gen.(
      pair
        (array_size (return 4) (float_range (-2.) 2.))
        (float_range (-3.) 1.))

let prop_l2_satisfies =
  QCheck.Test.make ~name:"l2 satisfies constraint when a <> 0" ~count:200
    arb_case (fun (a, b) ->
      QCheck.assume (Array.exists (fun x -> abs_float x > 0.1) a);
      let s = l2 ~a ~b in
      dot a s <= b +. 1e-6 || b >= 0.)

let prop_l2_boxed_within =
  QCheck.Test.make ~name:"l2_boxed stays in box and satisfies" ~count:200
    arb_case (fun (a, b) ->
      QCheck.assume (Array.exists (fun x -> abs_float x > 0.1) a);
      let bounds = { lo = Array.make 4 (-1.5); hi = Array.make 4 1.5 } in
      match l2_boxed ~bounds ~a ~b () with
      | None -> not (feasible ~a ~b bounds)
      | Some s ->
          Array.for_all2 (fun l x -> l -. 1e-9 <= x) bounds.lo s
          && Array.for_all2 (fun x h -> x <= h +. 1e-9) s bounds.hi
          && dot a s <= b +. 1e-6)

let prop_l1_never_beats_l2_constraintwise =
  QCheck.Test.make ~name:"l1 satisfies constraint too" ~count:200 arb_case
    (fun (a, b) ->
      QCheck.assume (Array.exists (fun x -> abs_float x > 0.1) a);
      match l1_boxed ~a ~b () with
      | None -> false (* unbounded box is always feasible for a <> 0 *)
      | Some s -> dot a s <= b +. 1e-6)

(* The closure-based solvers [l2_boxed] and [l1_boxed] replaced,
   kept as oracles: the allocation-free versions must return the same
   floats bit for bit. *)
module Reference = struct
  let min_dot a (bounds : bounds) =
    let acc = ref 0. in
    Array.iteri
      (fun j aj ->
        let contrib =
          if aj > 0. then aj *. bounds.lo.(j)
          else if aj < 0. then aj *. bounds.hi.(j)
          else 0.
        in
        acc := !acc +. contrib)
      a;
    !acc

  let l2_boxed ~bounds ~a ~b =
    let d = Array.length a in
    if not (min_dot a bounds <= b) then None
    else begin
      let clamp s =
        Array.mapi
          (fun j x -> Float.min bounds.hi.(j) (Float.max bounds.lo.(j) x))
          s
      in
      if
        b >= 0.
        && Array.for_all2 (fun l h -> l <= 0. && 0. <= h) bounds.lo bounds.hi
      then Some (Array.make d 0.)
      else begin
        let active = Array.make d false in
        let fixed = Array.make d 0. in
        for j = 0 to d - 1 do
          if bounds.lo.(j) > 0. then begin
            active.(j) <- true;
            fixed.(j) <- bounds.lo.(j)
          end
          else if bounds.hi.(j) < 0. then begin
            active.(j) <- true;
            fixed.(j) <- bounds.hi.(j)
          end
        done;
        let rec iterate round =
          if round > d + 1 then None
          else begin
            let b' = ref b in
            for j = 0 to d - 1 do
              if active.(j) then b' := !b' -. (a.(j) *. fixed.(j))
            done;
            let n2 = ref 0. in
            for j = 0 to d - 1 do
              if not active.(j) then n2 := !n2 +. (a.(j) *. a.(j))
            done;
            let s =
              if !b' >= 0. then
                Array.init d (fun j -> if active.(j) then fixed.(j) else 0.)
              else if Geom.Fp.is_zero !n2 then [||]
              else
                Array.init d (fun j ->
                    if active.(j) then fixed.(j) else !b' *. a.(j) /. !n2)
            in
            if Array.length s = 0 then None
            else begin
              let violated = ref false in
              for j = 0 to d - 1 do
                if not active.(j) then
                  if s.(j) < bounds.lo.(j) -. 1e-12 then begin
                    active.(j) <- true;
                    fixed.(j) <- bounds.lo.(j);
                    violated := true
                  end
                  else if s.(j) > bounds.hi.(j) +. 1e-12 then begin
                    active.(j) <- true;
                    fixed.(j) <- bounds.hi.(j);
                    violated := true
                  end
              done;
              if !violated then iterate (round + 1) else Some (clamp s)
            end
          end
        in
        iterate 0
      end
    end

  let l1_boxed ~bounds ~a ~b =
    let d = Array.length a in
    if not (min_dot a bounds <= b) then None
    else begin
      let s = Array.make d 0. in
      for j = 0 to d - 1 do
        if bounds.lo.(j) > 0. then s.(j) <- bounds.lo.(j)
        else if bounds.hi.(j) < 0. then s.(j) <- bounds.hi.(j)
      done;
      let need = ref (dot a s -. b) in
      if !need <= 0. then Some s
      else begin
        let order =
          List.sort
            (fun j1 j2 -> Float.compare (abs_float a.(j2)) (abs_float a.(j1)))
            (List.init d Fun.id)
        in
        List.iter
          (fun j ->
            if !need > 0. && Geom.Fp.nonzero a.(j) then begin
              let target_dir =
                if a.(j) > 0. then bounds.lo.(j) else bounds.hi.(j)
              in
              let max_decrease = -.(a.(j) *. (target_dir -. s.(j))) in
              if max_decrease > 0. then begin
                let take = Float.min max_decrease !need in
                s.(j) <- s.(j) +. (-.take /. a.(j));
                need := !need -. take
              end
            end)
          order;
        if !need > 1e-9 then None else Some s
      end
    end
end

let bits = Option.map (Array.map Int64.bits_of_float)

(* Boxes that exercise every branch: frozen coordinates, bounds that
   exclude zero on either side, half-open and unbounded ranges, a
   coordinate pinned at an infinity (a zero coefficient there makes the
   residual NaN), and tied leverages (repeated |a_j|, zero
   coefficients). *)
let arb_boxed =
  let coord = QCheck.Gen.oneofl [ -1.; -0.5; -0.25; 0.; -0.; 0.25; 0.5; 1.; 2. ] in
  let range =
    QCheck.Gen.oneofl
      [
        (neg_infinity, infinity); (0., 0.); (-0.5, 0.5); (0.1, 0.6);
        (-0.7, -0.2); (neg_infinity, 0.3); (-0.3, infinity); (-2., 0.);
        (infinity, infinity); (neg_infinity, neg_infinity);
      ]
  in
  QCheck.make
    ~print:(fun (a, b, lo, hi) ->
      let show v =
        String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") v))
      in
      Printf.sprintf "a=[%s] b=%h lo=[%s] hi=[%s]" (show a) b (show lo) (show hi))
    QCheck.Gen.(
      let* d = int_range 1 5 in
      let* a = array_repeat d coord in
      let* b = oneofl [ -1.5; -0.6; -0.1; 0.; 0.4 ] in
      let* ranges = array_repeat d range in
      return (a, b, Array.map fst ranges, Array.map snd ranges))

let prop_boxed_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"l2_boxed and l1_boxed equal the closure-based reference bit for bit"
    arb_boxed (fun (a, b, lo, hi) ->
      let bounds = { lo; hi } in
      bits (l2_boxed ~bounds ~a ~b ()) = bits (Reference.l2_boxed ~bounds ~a ~b)
      && bits (l1_boxed ~bounds ~a ~b ()) = bits (Reference.l1_boxed ~bounds ~a ~b)
      && feasible ~a ~b bounds = (Reference.min_dot a bounds <= b))

let suite =
  [
    Alcotest.test_case "l2 zero when satisfied" `Quick test_l2_zero_when_satisfied;
    Alcotest.test_case "l2 projection" `Quick test_l2_projection;
    Alcotest.test_case "weighted l2" `Quick test_weighted_l2;
    Alcotest.test_case "l2 boxed active-set" `Quick test_l2_boxed;
    Alcotest.test_case "l2 boxed infeasible" `Quick test_l2_boxed_infeasible;
    Alcotest.test_case "l1 leverage" `Quick test_l1;
    Alcotest.test_case "l1 boxed spillover" `Quick test_l1_boxed_spillover;
    Alcotest.test_case "freeze" `Quick test_freeze;
    Alcotest.test_case "feasible" `Quick test_feasible;
    QCheck_alcotest.to_alcotest prop_l2_satisfies;
    QCheck_alcotest.to_alcotest prop_l2_boxed_within;
    QCheck_alcotest.to_alcotest prop_l1_never_beats_l2_constraintwise;
    QCheck_alcotest.to_alcotest prop_boxed_match_reference;
  ]
