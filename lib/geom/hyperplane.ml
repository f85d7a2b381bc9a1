type t = { normal : Vec.t; offset : float }
type side = Above | Below | On

let make ~normal ~offset =
  if Vec.is_zero ~eps:0. normal then
    invalid_arg "Geom.Hyperplane.make: zero normal";
  { normal; offset }

let of_points p_i p_l =
  let normal = Vec.sub p_i p_l in
  if Vec.is_zero ~eps:0. normal then None
  else Some { normal; offset = 0. }

let eval h x = Vec.dot h.normal x -. h.offset

let side ?(eps = 1e-12) h x =
  let v = eval h x in
  if v > eps then Above else if v < -.eps then Below else On

let above_or_on ?eps h x =
  match side ?eps h x with Above | On -> true | Below -> false

let shift_opt h s =
  let normal = Vec.add h.normal s in
  if Vec.is_zero ~eps:0. normal then None else Some { h with normal }

let shift h s =
  match shift_opt h s with
  | Some h' -> h'
  | None -> invalid_arg "Geom.Hyperplane.shift: functions coincide"

let distance h x = abs_float (eval h x) /. Vec.norm h.normal

let project h x =
  let t = eval h x /. Vec.norm2 h.normal in
  Vec.sub x (Vec.scale t h.normal)

let box_min_max h ~lo ~hi =
  let n = h.normal in
  let mn = ref (-.h.offset) and mx = ref (-.h.offset) in
  for j = 0 to Vec.dim n - 1 do
    let c = n.(j) in
    if c >= 0. then begin
      mn := !mn +. (c *. lo.(j));
      mx := !mx +. (c *. hi.(j))
    end
    else begin
      mn := !mn +. (c *. hi.(j));
      mx := !mx +. (c *. lo.(j))
    end
  done;
  (!mn, !mx)

(* Same accumulation as [box_min_max] for an offset-0 plane given as a
   bare normal — lets hot loops range hyperplanes over a box without
   constructing a [t] per candidate. Accumulators start at [-. 0.] so
   the rounding sequence matches [box_min_max] exactly. *)
let box_min_max_n ~normal ~lo ~hi =
  let mn = ref (-.0.) and mx = ref (-.0.) in
  for j = 0 to Array.length normal - 1 do
    let c = normal.(j) in
    if c >= 0. then begin
      mn := !mn +. (c *. lo.(j));
      mx := !mx +. (c *. hi.(j))
    end
    else begin
      mn := !mn +. (c *. hi.(j));
      mx := !mx +. (c *. lo.(j))
    end
  done;
  (!mn, !mx)
