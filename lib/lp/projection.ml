type bounds = { lo : float array; hi : float array }

let unbounded d =
  { lo = Array.make d neg_infinity; hi = Array.make d infinity }

let freeze b i =
  let lo = Array.copy b.lo and hi = Array.copy b.hi in
  lo.(i) <- 0.;
  hi.(i) <- 0.;
  { lo; hi }

let l2 ~a ~b =
  let d = Array.length a in
  if b >= 0. then Array.make d 0.
  else begin
    let n2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. a in
    if Geom.Fp.is_zero n2 then Array.make d 0.
    else Array.map (fun aj -> b *. aj /. n2) a
  end

let weighted_l2 ~w ~a ~b =
  let d = Array.length a in
  Array.iter
    (fun wj -> if wj <= 0. then invalid_arg "Projection.weighted_l2: w <= 0")
    w;
  if b >= 0. then Some (Array.make d 0.)
  else begin
    (* Lagrangian: s_j = lambda * a_j / (2 w_j); constraint tight. *)
    let denom = ref 0. in
    for j = 0 to d - 1 do
      denom := !denom +. (a.(j) *. a.(j) /. w.(j))
    done;
    if Geom.Fp.is_zero !denom then None
    else begin
      let lambda = b /. !denom in
      Some (Array.init d (fun j -> lambda *. a.(j) /. w.(j)))
    end
  end

(* Best achievable value of [a . s] inside the box (its minimum). *)
let[@inline] min_dot a (bounds : bounds) =
  let acc = ref 0. in
  for j = 0 to Array.length a - 1 do
    let aj = a.(j) in
    let contrib =
      if aj > 0. then aj *. bounds.lo.(j)
      else if aj < 0. then aj *. bounds.hi.(j)
      else 0.
    in
    acc := !acc +. contrib
  done;
  !acc

let feasible ~a ~b bounds = min_dot a bounds <= b

(* The solvers below allocate their result (and {!l2_boxed} its
   d-byte active set) and nothing else on the common path: no
   closures, no boxed accumulators, no per-round vectors. [Geom.Fp]'s
   epsilon tests are spelled out against [Geom.Fp.default_eps] because
   a call into another module boxes its float argument. *)

let contains_zero (bounds : bounds) d =
  let j = ref 0 in
  while !j < d && bounds.lo.(!j) <= 0. && 0. <= bounds.hi.(!j) do
    incr j
  done;
  !j = d

(* The active set of {!l2_boxed}, a byte per coordinate. *)
let[@inline] is_active mask j = Bytes.get mask j = '\001'

(* One round of {!l2_boxed}'s active-set loop: solve the
   equality-projection on the free coordinates, fix any that leave the
   box at their bound, and go again. [s] holds each active coordinate's
   fixed bound between rounds and is the result. Terminates in <= d
   rounds because the active set only grows. *)
let rec l2_round ~a ~b ~lo ~hi s active round =
  let d = Array.length a in
  if round > d + 1 then None
  else begin
    let b' = ref b in
    for j = 0 to d - 1 do
      if is_active active j then b' := !b' -. (a.(j) *. s.(j))
    done;
    let n2 = ref 0. in
    for j = 0 to d - 1 do
      if not (is_active active j) then n2 := !n2 +. (a.(j) *. a.(j))
    done;
    if (not (!b' >= 0.)) && abs_float !n2 <= Geom.Fp.default_eps then None
    else begin
      for j = 0 to d - 1 do
        if not (is_active active j) then
          s.(j) <- (if !b' >= 0. then 0. else !b' *. a.(j) /. !n2)
      done;
      let violated = ref false in
      for j = 0 to d - 1 do
        if not (is_active active j) then
          if s.(j) < lo.(j) -. 1e-12 then begin
            Bytes.set active j '\001';
            s.(j) <- lo.(j);
            violated := true
          end
          else if s.(j) > hi.(j) +. 1e-12 then begin
            Bytes.set active j '\001';
            s.(j) <- hi.(j);
            violated := true
          end
      done;
      if !violated then l2_round ~a ~b ~lo ~hi s active (round + 1)
      else begin
        for j = 0 to d - 1 do
          s.(j) <- Float.min hi.(j) (Float.max lo.(j) s.(j))
        done;
        Some s
      end
    end
  end

let l2_boxed ?bounds ~a ~b () =
  let d = Array.length a in
  let bounds = match bounds with Some b -> b | None -> unbounded d in
  if not (feasible ~a ~b bounds) then None
  else if b >= 0. && contains_zero bounds d then Some (Array.make d 0.)
  else begin
    let lo = bounds.lo and hi = bounds.hi in
    let s = Array.make d 0. and active = Bytes.make d '\000' in
    (* Coordinates where 0 is outside the bound range must start fixed
       at their nearest bound. *)
    for j = 0 to d - 1 do
      if lo.(j) > 0. then begin
        Bytes.set active j '\001';
        s.(j) <- lo.(j)
      end
      else if hi.(j) < 0. then begin
        Bytes.set active j '\001';
        s.(j) <- hi.(j)
      end
    done;
    l2_round ~a ~b ~lo ~hi s active 0
  end

(* Whether coordinate [i] precedes [j] in {!l1_boxed}'s leverage order:
   descending [|a|] under [Float.compare] (NaN last), ties by index —
   the order a stable sort of the indices produces. *)
let[@inline] leverage_before a i j =
  let c = Float.compare (abs_float a.(j)) (abs_float a.(i)) in
  c < 0 || (c = 0 && i < j)

let l1_boxed ?bounds ~a ~b () =
  let d = Array.length a in
  let bounds = match bounds with Some b -> b | None -> unbounded d in
  if not (feasible ~a ~b bounds) then None
  else begin
    let s = Array.make d 0. in
    (* Start from the cheapest point of the box w.r.t. |s| that is
       closest to zero on every coordinate. *)
    for j = 0 to d - 1 do
      if bounds.lo.(j) > 0. then s.(j) <- bounds.lo.(j)
      else if bounds.hi.(j) < 0. then s.(j) <- bounds.hi.(j)
    done;
    let dot = ref 0. in
    for j = 0 to d - 1 do
      dot := !dot +. (a.(j) *. s.(j))
    done;
    let need = ref (!dot -. b) in
    if !need <= 0. then Some s
    else begin
      (* Reduce [a . s] by moving the highest-leverage coordinates toward
         their helpful bound. Moving s_j by delta changes a.s by
         a_j * delta; cost per unit decrease is 1 / |a_j|. Each pass
         picks the coordinate after [prev] in leverage order, so the
         order needs no sorted index list. *)
      let prev = ref (-1) in
      for _ = 1 to d do
        let next = ref (-1) in
        for j = 0 to d - 1 do
          if
            (!prev < 0 || leverage_before a !prev j)
            && (!next < 0 || leverage_before a j !next)
          then next := j
        done;
        let j = !next in
        prev := j;
        if !need > 0. && not (abs_float a.(j) <= Geom.Fp.default_eps) then begin
          let target_dir = if a.(j) > 0. then bounds.lo.(j) else bounds.hi.(j) in
          let room = target_dir -. s.(j) in
          (* room has the sign that decreases a.s *)
          let max_decrease = -.(a.(j) *. room) in
          if max_decrease > 0. then begin
            let take = Float.min max_decrease !need in
            let delta = -.take /. a.(j) in
            s.(j) <- s.(j) +. delta;
            need := !need -. take
          end
        end
      done;
      if !need > 1e-9 then None else Some s
    end
  end
