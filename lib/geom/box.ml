type t = { lo : Vec.t; hi : Vec.t }

let make ~lo ~hi =
  if Vec.dim lo <> Vec.dim hi then invalid_arg "Geom.Box.make: dim mismatch";
  if not (Vec.for_all2 ( <= ) lo hi) then
    invalid_arg "Geom.Box.make: lo > hi on some axis";
  { lo; hi }

let of_point p = { lo = Vec.copy p; hi = Vec.copy p }

let dim b = Vec.dim b.lo

let union a b =
  { lo = Vec.map2 Float.min a.lo b.lo; hi = Vec.map2 Float.max a.hi b.hi }

let union_many = function
  | [] -> invalid_arg "Geom.Box.union_many: empty"
  | b :: bs -> List.fold_left union b bs

let of_points = function
  | [] -> invalid_arg "Geom.Box.of_points: empty"
  | ps -> union_many (List.map of_point ps)

let intersects a b =
  Vec.for_all2 ( <= ) a.lo b.hi && Vec.for_all2 ( <= ) b.lo a.hi

let contains_point b p =
  Vec.for_all2 ( <= ) b.lo p && Vec.for_all2 ( <= ) p b.hi

let contains_box outer inner =
  Vec.for_all2 ( <= ) outer.lo inner.lo && Vec.for_all2 ( <= ) inner.hi outer.hi

let area b =
  let acc = ref 1. in
  for j = 0 to dim b - 1 do
    acc := !acc *. (b.hi.(j) -. b.lo.(j))
  done;
  !acc

let margin b =
  let acc = ref 0. in
  for j = 0 to dim b - 1 do
    acc := !acc +. (b.hi.(j) -. b.lo.(j))
  done;
  !acc

let enlargement b b' = area (union b b') -. area b

let overlap_area a b =
  let acc = ref 1. in
  (try
     for j = 0 to dim a - 1 do
       let w = Float.min a.hi.(j) b.hi.(j) -. Float.max a.lo.(j) b.lo.(j) in
       if w <= 0. then raise Exit;
       acc := !acc *. w
     done
   with Exit -> acc := 0.);
  !acc

let center b = Vec.scale 0.5 (Vec.add b.lo b.hi)

let min_dist2 b p =
  let acc = ref 0. in
  for j = 0 to dim b - 1 do
    let d =
      if p.(j) < b.lo.(j) then b.lo.(j) -. p.(j)
      else if p.(j) > b.hi.(j) then p.(j) -. b.hi.(j)
      else 0.
    in
    acc := !acc +. (d *. d)
  done;
  !acc

let unit d = { lo = Vec.zero d; hi = Vec.make d 1. }

let equal ?eps a b = Vec.equal ?eps a.lo b.lo && Vec.equal ?eps a.hi b.hi
