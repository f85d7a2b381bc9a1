open Geom

type 'a node = { mutable mbr : Box.t; mutable kind : 'a kind }

and 'a kind = Leaf of (Box.t * 'a) list | Internal of 'a node list

type 'a t = {
  dims : int;
  min_entries : int;
  max_entries : int;
  mutable root : 'a node option;
  mutable count : int;
}

let create ?min_entries ?(max_entries = 16) ~dim () =
  let min_entries =
    match min_entries with Some m -> m | None -> Int.max 2 (max_entries / 2)
  in
  if max_entries < 4 then invalid_arg "Rtree.create: max_entries < 4";
  if min_entries < 2 || min_entries > max_entries / 2 then
    invalid_arg "Rtree.create: need 2 <= min_entries <= max_entries/2";
  if dim < 1 then invalid_arg "Rtree.create: dim < 1";
  { dims = dim; min_entries; max_entries; root = None; count = 0 }

let size t = t.count

let rec node_height n =
  match n.kind with
  | Leaf _ -> 1
  | Internal (c :: _) -> 1 + node_height c
  | Internal [] -> 1

let height t = match t.root with None -> 0 | Some r -> node_height r

let rec nodes_in n =
  match n.kind with
  | Leaf _ -> 1
  | Internal cs -> 1 + List.fold_left (fun acc c -> acc + nodes_in c) 0 cs

let node_count t = match t.root with None -> 0 | Some r -> nodes_in r

let entries_mbr entries =
  Box.union_many (List.map fst entries)

let children_mbr children =
  Box.union_many (List.map (fun c -> c.mbr) children)

(* Quadratic split [Guttman 84]: pick the pair of seeds wasting the most
   area together, then assign remaining items to the group whose MBR
   grows least, forcing assignment when a group must absorb the rest to
   reach the minimum fill. *)
let quadratic_split ~min_entries boxes_of items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let box i = boxes_of arr.(i) in
  let seed_a = ref 0 and seed_b = ref 1 and worst = ref neg_infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let waste =
        Box.area (Box.union (box i) (box j)) -. Box.area (box i)
        -. Box.area (box j)
      in
      if waste > !worst then begin
        worst := waste;
        seed_a := i;
        seed_b := j
      end
    done
  done;
  let ga = ref [ arr.(!seed_a) ] and gb = ref [ arr.(!seed_b) ] in
  let ba = ref (box !seed_a) and bb = ref (box !seed_b) in
  let remaining = ref [] in
  for i = n - 1 downto 0 do
    if i <> !seed_a && i <> !seed_b then remaining := arr.(i) :: !remaining
  done;
  let total = n in
  let assign item =
    let b = boxes_of item in
    let la = List.length !ga and lb = List.length !gb in
    let left = total - la - lb in
    ignore left;
    let to_a () =
      ga := item :: !ga;
      ba := Box.union !ba b
    and to_b () =
      gb := item :: !gb;
      bb := Box.union !bb b
    in
    (* Force-assign if one group needs every remaining item to reach the
       minimum fill. *)
    let rem = total - la - lb in
    if la + rem <= min_entries then to_a ()
    else if lb + rem <= min_entries then to_b ()
    else begin
      let da = Box.enlargement !ba b and db = Box.enlargement !bb b in
      if da < db then to_a ()
      else if db < da then to_b ()
      else if Box.area !ba <= Box.area !bb then to_a ()
      else to_b ()
    end
  in
  List.iter assign !remaining;
  ((!ga, !ba), (!gb, !bb))

let choose_subtree children b =
  match children with
  | [] -> invalid_arg "Rtree.choose_subtree: empty internal node"
  | first :: rest ->
      let best = ref first in
      let best_enl = ref (Box.enlargement !best.mbr b) in
      let consider c =
        let enl = Box.enlargement c.mbr b in
        if
          enl < !best_enl
          || (enl = !best_enl && Box.area c.mbr < Box.area !best.mbr)
        then begin
          best := c;
          best_enl := enl
        end
      in
      List.iter consider rest;
      !best

(* Insert [b, v] under [n]; returns a new sibling when [n] was split. *)
let rec insert_node t n b v =
  n.mbr <- Box.union n.mbr b;
  match n.kind with
  | Leaf entries ->
      let entries = (b, v) :: entries in
      if List.length entries <= t.max_entries then begin
        n.kind <- Leaf entries;
        None
      end
      else begin
        let (ga, ba), (gb, bb) =
          quadratic_split ~min_entries:t.min_entries fst entries
        in
        n.kind <- Leaf ga;
        n.mbr <- ba;
        Some { mbr = bb; kind = Leaf gb }
      end
  | Internal children -> (
      let child = choose_subtree children b in
      match insert_node t child b v with
      | None -> None
      | Some sibling ->
          let children = sibling :: children in
          if List.length children <= t.max_entries then begin
            n.kind <- Internal children;
            None
          end
          else begin
            let (ga, ba), (gb, bb) =
              quadratic_split ~min_entries:t.min_entries
                (fun c -> c.mbr)
                children
            in
            n.kind <- Internal ga;
            n.mbr <- ba;
            Some { mbr = bb; kind = Internal gb }
          end)

let insert t b v =
  if Box.dim b <> t.dims then invalid_arg "Rtree.insert: dim mismatch";
  t.count <- t.count + 1;
  match t.root with
  | None -> t.root <- Some { mbr = b; kind = Leaf [ (b, v) ] }
  | Some root -> (
      match insert_node t root b v with
      | None -> ()
      | Some sibling ->
          t.root <-
            Some
              {
                mbr = Box.union root.mbr sibling.mbr;
                kind = Internal [ root; sibling ];
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

type 'a knn_item = Node_item of 'a node | Entry_item of (Box.t * 'a)

let nearest t q k =
  if k <= 0 then []
  else begin
    let heap = Min_heap.create () in
    (match t.root with
    | None -> ()
    | Some r -> Min_heap.push heap (Box.min_dist2 r.mbr q) (Node_item r));
    let out = ref [] in
    let found = ref 0 in
    let rec drain () =
      if !found < k then
        match Min_heap.pop heap with
        | None -> ()
        | Some (d, Entry_item (b, v)) ->
            out := (d, b, v) :: !out;
            incr found;
            drain ()
        | Some (_, Node_item n) ->
            (match n.kind with
            | Leaf entries ->
                List.iter
                  (fun (b, v) ->
                    Min_heap.push heap (Box.min_dist2 b q) (Entry_item (b, v)))
                  entries
            | Internal children ->
                List.iter
                  (fun c -> Min_heap.push heap (Box.min_dist2 c.mbr q) (Node_item c))
                  children);
            drain ()
    in
    drain ();
    List.rev !out
  end

let iter t f =
  let rec go n =
    match n.kind with
    | Leaf entries -> List.iter (fun (b, v) -> f b v) entries
    | Internal children -> List.iter go children
  in
  match t.root with None -> () | Some r -> go r

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun b v -> acc := f !acc b v);
  !acc

(* Deletion: locate the leaf holding the entry, remove it; leaves that
   underflow are dissolved and their remaining entries reinserted. *)
let remove t box pred =
  let reinsert = ref [] in
  let removed = ref false in
  let rec go n =
    match n.kind with
    | Leaf entries ->
        let keep = ref [] in
        let scan (b, v) =
          if (not !removed) && Box.equal ~eps:0. b box && pred v then
            removed := true
          else keep := (b, v) :: !keep
        in
        List.iter scan entries;
        if !removed then
          if List.length !keep >= t.min_entries || List.length !keep = 0 then begin
            n.kind <- Leaf !keep;
            (match !keep with
            | [] -> ()
            | es -> n.mbr <- entries_mbr es);
            List.length !keep = 0
          end
          else begin
            reinsert := !keep @ !reinsert;
            true (* dissolve this leaf *)
          end
        else false
    | Internal children ->
        let rec scan = function
          | [] -> children
          | c :: rest ->
              if (not !removed) && Box.contains_box c.mbr box then begin
                let dissolve = go c in
                if !removed then
                  if dissolve then List.filter (fun x -> x != c) children
                  else children
                else scan rest
              end
              else scan rest
        in
        let children' = scan children in
        if !removed then begin
          n.kind <- Internal children';
          match children' with
          | [] -> true
          | cs ->
              n.mbr <- children_mbr cs;
              false
        end
        else false
  in
  (match t.root with
  | None -> ()
  | Some root ->
      let dissolve = go root in
      if !removed then begin
        t.count <- t.count - 1;
        if dissolve then t.root <- None
        else
          (* Collapse a root with a single child. *)
          match root.kind with
          | Internal [ only ] -> t.root <- Some only
          | Internal _ | Leaf _ -> ()
      end);
  if !removed then begin
    let items = !reinsert in
    t.count <- t.count - List.length items;
    List.iter (fun (b, v) -> insert t b v) items
  end;
  !removed

let bulk_load ?min_entries ?(max_entries = 16) ~dim entries =
  let t = create ?min_entries ~max_entries ~dim () in
  match entries with
  | [] -> t
  | _ ->
      (* STR: recursively tile by each dimension's center coordinate. *)
      let cap = max_entries in
      let pack_level (items : (Box.t * 'a node option * 'a option) list)
          ~leaf =
        (* items carry either raw entries (leaf level) or nodes. *)
        let n = List.length items in
        if n <= cap then [ items ]
        else begin
          let pages = (n + cap - 1) / cap in
          let slabs =
            int_of_float (ceil (float_of_int pages ** (1. /. float_of_int dim)))
          in
          let rec tile items axis =
            if axis >= dim || List.length items <= cap then [ items ]
            else begin
              let sorted =
                List.sort
                  (fun (b1, _, _) (b2, _, _) ->
                    Float.compare (Box.center b1).(axis) (Box.center b2).(axis))
                  items
              in
              let per = (List.length sorted + slabs - 1) / slabs in
              let rec chunks = function
                | [] -> []
                | l ->
                    let rec take k acc = function
                      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
                      | rest -> (List.rev acc, rest)
                    in
                    let chunk, rest = take per [] l in
                    chunk :: chunks rest
              in
              List.concat_map (fun c -> tile c (axis + 1)) (chunks sorted)
            end
          in
          ignore leaf;
          (* Final slicing pass: ensure no group exceeds capacity. *)
          let groups = tile items 0 in
          List.concat_map
            (fun g ->
              if List.length g <= cap then [ g ]
              else begin
                let rec split l =
                  if List.length l <= cap then [ l ]
                  else begin
                    let rec take k acc = function
                      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
                      | rest -> (List.rev acc, rest)
                    in
                    let chunk, rest = take cap [] l in
                    chunk :: split rest
                  end
                in
                split g
              end)
            groups
        end
      in
      let leaf_items =
        List.map (fun (b, v) -> (b, None, Some v)) entries
      in
      let leaf_groups = pack_level leaf_items ~leaf:true in
      let leaves =
        List.map
          (fun g ->
            let es =
              List.map
                (fun (b, _, v) ->
                  (* iqlint: allow forbidden-escape — leaf items always carry a value *)
                  match v with Some v -> (b, v) | None -> assert false)
                g
            in
            { mbr = entries_mbr es; kind = Leaf es })
          leaf_groups
      in
      let rec build nodes =
        match nodes with
        | [ root ] -> root
        | _ ->
            let items = List.map (fun n -> (n.mbr, Some n, None)) nodes in
            let groups = pack_level items ~leaf:false in
            let parents =
              List.map
                (fun g ->
                  let cs =
                    List.map
                      (fun (_, n, _) ->
                        (* iqlint: allow forbidden-escape — internal items always carry a node *)
                        match n with Some n -> n | None -> assert false)
                      g
                  in
                  { mbr = children_mbr cs; kind = Internal cs })
                groups
            in
            build parents
      in
      t.root <- Some (build leaves);
      t.count <- List.length entries;
      t

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let rec go ~is_root n =
    (match n.kind with
    | Leaf entries ->
        let len = List.length entries in
        if len > t.max_entries then fail "leaf overflow: %d" len;
        (* STR packing legitimately leaves a short tail page, so only a
           completely empty non-root leaf is a structural error. *)
        if (not is_root) && len < 1 then fail "empty leaf";
        List.iter
          (fun (b, _) ->
            if not (Box.contains_box n.mbr b) then
              fail "leaf MBR does not contain entry")
          entries
    | Internal children ->
        let len = List.length children in
        if len > t.max_entries then fail "node overflow: %d" len;
        if (not is_root) && len < 1 then fail "empty internal node";
        List.iter
          (fun c ->
            if not (Box.contains_box n.mbr c.mbr) then
              fail "node MBR does not contain child MBR";
            go ~is_root:false c)
          children);
    ()
  in
  match t.root with None -> () | Some r -> go ~is_root:true r
