type t = float array

let dim = Array.length
let make d x = Array.make d x
let zero d = make d 0.
let of_list = Array.of_list
let to_list = Array.to_list
let copy = Array.copy

let basis d i =
  let v = zero d in
  v.(i) <- 1.;
  v

let check_dim a b =
  if Array.length a <> Array.length b then
    invalid_arg "Geom.Vec: dimension mismatch"

let map2 f a b =
  check_dim a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let mul a b = map2 ( *. ) a b
let scale c v = Array.map (fun x -> c *. x) v
let neg v = scale (-1.) v

let dot a b =
  check_dim a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 v = dot v v
let norm v = sqrt (norm2 v)
let l1_norm v = Array.fold_left (fun acc x -> acc +. abs_float x) 0. v
let linf_norm v = Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0. v
let dist2 a b = norm2 (sub a b)
let dist a b = sqrt (dist2 a b)

let normalize v =
  let n = norm v in
  (* iqlint: allow float-exact-compare — exact: any nonzero norm is normalisable *)
  if n = 0. then v else scale (1. /. n) v

let normalize_l1 v =
  let s = Array.fold_left ( +. ) 0. v in
  (* iqlint: allow float-exact-compare — exact: any nonzero sum is normalisable *)
  if s = 0. then v else scale (1. /. s) v

let lerp a b t = add a (scale t (sub b a))

let for_all2 f a b =
  check_dim a b;
  let rec go i = i >= Array.length a || (f a.(i) b.(i) && go (i + 1)) in
  go 0

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && for_all2 (fun x y -> abs_float (x -. y) <= eps) a b

let is_zero ?(eps = 1e-9) v = Array.for_all (fun x -> abs_float x <= eps) v

let clamp ~lo ~hi v =
  check_dim lo v;
  check_dim hi v;
  Array.init (Array.length v) (fun i -> Float.min hi.(i) (Float.max lo.(i) v.(i)))

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (to_list v)
