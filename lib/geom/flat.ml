(* Structure-of-arrays geometry slab: all rows of a point set stored
   contiguously in one unboxed [float array], dim-strided. The boxed
   layout ([Vec.t array]) costs a pointer chase per row on the hot
   loops (slab classification scans every rival per candidate); the
   slab keeps the whole set cache-resident and lets inner loops index
   arithmetic instead.

   The slab is immutable from the caller's point of view: the patch
   operations ([append_row] / [update_row] / [remove_row]) return a
   fresh slab sharing nothing, mirroring the functional updates of
   [Instance]. Patches copy+blit the backing array — O(n·d), the same
   cost the boxed layout pays for [Array.copy] plus the row — rather
   than rebuilding from rows. *)

type t = {
  dim : int;
  rows : int;
  a : float array; (* length = rows * dim; row i at offset i * dim *)
}

let empty = { dim = 0; rows = 0; a = [||] }

let of_rows rows =
  let n = Array.length rows in
  if n = 0 then empty
  else begin
    let dim = Array.length rows.(0) in
    let a = Array.make (n * dim) 0. in
    Array.iteri
      (fun i (r : Vec.t) ->
        if Array.length r <> dim then
          invalid_arg "Geom.Flat.of_rows: ragged rows";
        Array.blit r 0 a (i * dim) dim)
      rows;
    { dim; rows = n; a }
  end

let dim t = t.dim
let rows t = t.rows

(* The backing array, exposed for inner loops. Row [i] occupies
   [i * dim t .. i * dim t + dim t - 1]; treat it as read-only — the
   slab is shared by every structure derived from the same instance. *)
let data t = t.a

let row t i =
  if i < 0 || i >= t.rows then invalid_arg "Geom.Flat.row: bad index";
  Array.sub t.a (i * t.dim) t.dim

(* [w . row i] with the same operand order and accumulation sequence as
   [Vec.dot w row] — flat reads must not change a single rounding. *)
let dot t i (w : Vec.t) =
  if Array.length w <> t.dim then invalid_arg "Geom.Flat.dot: arity mismatch";
  let off = i * t.dim in
  let acc = ref 0. in
  for j = 0 to t.dim - 1 do
    acc := !acc +. (w.(j) *. t.a.(off + j))
  done;
  !acc

let check_row t (r : Vec.t) name =
  if t.rows > 0 && Array.length r <> t.dim then
    invalid_arg ("Geom.Flat." ^ name ^ ": arity mismatch")

let append_row t r =
  check_row t r "append_row";
  if t.rows = 0 then of_rows [| r |]
  else begin
    let a = Array.make ((t.rows + 1) * t.dim) 0. in
    Array.blit t.a 0 a 0 (t.rows * t.dim);
    Array.blit r 0 a (t.rows * t.dim) t.dim;
    { t with rows = t.rows + 1; a }
  end

let update_row t i r =
  if i < 0 || i >= t.rows then invalid_arg "Geom.Flat.update_row: bad index";
  check_row t r "update_row";
  let a = Array.copy t.a in
  Array.blit r 0 a (i * t.dim) t.dim;
  { t with a }

let remove_row t i =
  if i < 0 || i >= t.rows then invalid_arg "Geom.Flat.remove_row: bad index";
  if t.rows = 1 then empty
  else begin
    let a = Array.make ((t.rows - 1) * t.dim) 0. in
    Array.blit t.a 0 a 0 (i * t.dim);
    Array.blit t.a ((i + 1) * t.dim) a (i * t.dim) ((t.rows - 1 - i) * t.dim);
    { t with rows = t.rows - 1; a }
  end
