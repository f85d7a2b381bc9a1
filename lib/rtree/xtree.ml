open Geom

type 'a node = {
  mutable mbr : Box.t;
  mutable kind : 'a kind;
  mutable super : bool; (* capacity-extended directory node *)
}

and 'a kind = Leaf of (Box.t * 'a) list | Internal of 'a node list

type 'a t = {
  dims : int;
  max_entries : int;
  max_overlap : float;
  mutable root : 'a node option;
  mutable count : int;
}

let create ?(max_entries = 16) ?(max_overlap = 0.2) ~dim () =
  if max_entries < 4 then invalid_arg "Xtree.create: max_entries < 4";
  if max_overlap < 0. || max_overlap > 1. then
    invalid_arg "Xtree.create: max_overlap outside [0, 1]";
  if dim < 1 then invalid_arg "Xtree.create: dim < 1";
  { dims = dim; max_entries; max_overlap; root = None; count = 0 }

let size t = t.count

let rec supernodes_in n =
  match n.kind with
  | Leaf _ -> if n.super then 1 else 0
  | Internal cs ->
      (if n.super then 1 else 0)
      + List.fold_left (fun acc c -> acc + supernodes_in c) 0 cs

let supernode_count t =
  match t.root with None -> 0 | Some r -> supernodes_in r

(* Topological split (simplified): sort by center on each axis, take
   the best half/half cut by overlap-then-margin; report the overlap
   ratio so the caller can veto the split. *)
let axis_split ~dims boxes_of items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let best = ref None in
  for axis = 0 to dims - 1 do
    let sorted = Array.copy arr in
    Array.sort
      (fun a b ->
        Float.compare
          (Box.center (boxes_of a)).(axis)
          (Box.center (boxes_of b)).(axis))
      sorted;
    let half = n / 2 in
    let left = Array.to_list (Array.sub sorted 0 half) in
    let right = Array.to_list (Array.sub sorted half (n - half)) in
    let bl = Box.union_many (List.map boxes_of left) in
    let br = Box.union_many (List.map boxes_of right) in
    let overlap = Box.overlap_area bl br in
    let area = Float.max 1e-300 (Box.area bl +. Box.area br) in
    let ratio = overlap /. area in
    let margin = Box.margin bl +. Box.margin br in
    let improves =
      match !best with
      | None -> true
      | Some (r, m, _, _, _, _) -> ratio < r || (ratio = r && margin < m)
    in
    if improves then best := Some (ratio, margin, left, bl, right, br)
  done;
  match !best with
  | Some (ratio, _, left, bl, right, br) -> (ratio, (left, bl), (right, br))
  | None ->
      (* iqlint: allow forbidden-escape — the split loop always runs at least once *)
      assert false

(* Insert, returning a new sibling when the node split. A node whose
   split would overlap too much becomes a supernode instead. *)
let rec insert_node t n b v =
  n.mbr <- Box.union n.mbr b;
  match n.kind with
  | Leaf entries ->
      let entries = (b, v) :: entries in
      let cap = if n.super then 2 * t.max_entries else t.max_entries in
      if List.length entries <= cap then begin
        n.kind <- Leaf entries;
        None
      end
      else begin
        let ratio, (ga, ba), (gb, bb) =
          axis_split ~dims:t.dims fst entries
        in
        if ratio > t.max_overlap && not n.super then begin
          (* High-overlap split: extend capacity instead. *)
          n.super <- true;
          n.kind <- Leaf entries;
          None
        end
        else begin
          n.kind <- Leaf ga;
          n.mbr <- ba;
          n.super <- false;
          Some { mbr = bb; kind = Leaf gb; super = false }
        end
      end
  | Internal children -> (
      (* Choose the child needing least enlargement (ties: least area). *)
      let first, rest =
        match children with
        | [] -> invalid_arg "Xtree.insert_node: empty internal node"
        | first :: rest -> (first, rest)
      in
      let best = ref first in
      let best_enl = ref (Box.enlargement !best.mbr b) in
      List.iter
        (fun c ->
          let enl = Box.enlargement c.mbr b in
          if
            enl < !best_enl
            || (enl = !best_enl && Box.area c.mbr < Box.area !best.mbr)
          then begin
            best := c;
            best_enl := enl
          end)
        rest;
      match insert_node t !best b v with
      | None -> None
      | Some sibling ->
          let children = sibling :: children in
          let cap = if n.super then 2 * t.max_entries else t.max_entries in
          if List.length children <= cap then begin
            n.kind <- Internal children;
            None
          end
          else begin
            let ratio, (ga, ba), (gb, bb) =
              axis_split ~dims:t.dims (fun c -> c.mbr) children
            in
            if ratio > t.max_overlap && not n.super then begin
              n.super <- true;
              n.kind <- Internal children;
              None
            end
            else begin
              n.kind <- Internal ga;
              n.mbr <- ba;
              n.super <- false;
              Some { mbr = bb; kind = Internal gb; super = false }
            end
          end)

let insert t b v =
  if Box.dim b <> t.dims then invalid_arg "Xtree.insert: dim mismatch";
  t.count <- t.count + 1;
  match t.root with
  | None -> t.root <- Some { mbr = b; kind = Leaf [ (b, v) ]; super = false }
  | Some root -> (
      match insert_node t root b v with
      | None -> ()
      | Some sibling ->
          t.root <-
            Some
              {
                mbr = Box.union root.mbr sibling.mbr;
                kind = Internal [ root; sibling ];
                super = false;
              })

let insert_point t p v = insert t (Box.of_point p) v

let search t window =
  let out = ref [] in
  let rec go n =
    if Box.intersects n.mbr window then
      match n.kind with
      | Leaf entries ->
          List.iter
            (fun (b, v) -> if Box.intersects b window then out := (b, v) :: !out)
            entries
      | Internal children -> List.iter go children
  in
  (match t.root with None -> () | Some r -> go r);
  !out

let search_pred t ~node_pred ~entry_pred ~f =
  let rec go n =
    if node_pred n.mbr then
      match n.kind with
      | Leaf entries ->
          List.iter (fun (b, v) -> if entry_pred b then f b v) entries
      | Internal children -> List.iter go children
  in
  match t.root with None -> () | Some r -> go r

let iter t f =
  let rec go n =
    match n.kind with
    | Leaf entries -> List.iter (fun (b, v) -> f b v) entries
    | Internal children -> List.iter go children
  in
  match t.root with None -> () | Some r -> go r

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let rec go n =
    let cap = if n.super then 2 * t.max_entries else t.max_entries in
    match n.kind with
    | Leaf entries ->
        if List.length entries > cap then
          fail "leaf overflow: %d > %d (super=%b)" (List.length entries) cap
            n.super;
        List.iter
          (fun (b, _) ->
            if not (Box.contains_box n.mbr b) then
              fail "leaf MBR does not contain entry")
          entries
    | Internal children ->
        if List.length children > cap then
          fail "node overflow: %d > %d (super=%b)" (List.length children) cap
            n.super;
        List.iter
          (fun c ->
            if not (Box.contains_box n.mbr c.mbr) then
              fail "node MBR does not contain child";
            go c)
          children
  in
  match t.root with None -> () | Some r -> go r
