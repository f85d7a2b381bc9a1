open Geom

(* How candidate strategies are classified against rivals.

   [Full] is the original path: every cached prefix object is a
   candidate rival, and flipped queries are found with the R-tree slab
   search (a query may be flagged through several rivals, so callers
   dedup). [Kth] is the pruned path: the target's membership in query
   [q] depends only on the comparison against the frozen rank-k rival
   [kth_other q] (prefixes do not move while a state is alive), so the
   exact minimal rival set is [{ kth_other q : q }]. We store it as a
   CSR index — queries grouped by their kth rival — and test each
   rival's disjoint query block directly, with no R-tree walk and no
   dedup. Both paths flag a query with the same sign test on the same
   floats, so [evaluate] results are bit-for-bit identical. *)
type mode =
  | Full
  | Kth of {
      rivals : int array; (* distinct kth rivals, ascending *)
      roff : int array; (* CSR offsets into [rq]; length rivals+1 *)
      rq : int array; (* query ids grouped by kth rival *)
    }

type state = {
  index : Query_index.t;
  target : int;
  members : bool array;
  base : int;
  domain_lo : Vec.t;
  domain_hi : Vec.t;
  dim : int;
  fdata : float array; (* Instance feature slab ([Flat.data]) *)
  wdata : float array; (* query-weight slab *)
  kth : int array; (* per-query rank-k rival; -1 = unconditional hit *)
  thr : float array; (* per-query threshold [w . features.(kth)] *)
  mode : mode;
  (* Atomic so one state can serve concurrent candidate evaluations
     from a Parallel pool; everything else in the state is frozen
     after [prepare]. *)
  eval_count : int Atomic.t;
}

let better (s1, i1) (s2, i2) = s1 < s2 || (s1 = s2 && i1 < i2)

(* Group queries by their kth rival into a CSR index: a stable sort of
   the query ids by rival keeps rivals ascending and each block in
   query order. It works in O(m log m) on query-sized arrays only — no
   [n_objects]-sized scratch per prepare (see DESIGN.md, "Hot-path
   layout & pruning"). *)
let build_kth_csr kth =
  let rq =
    Array.of_list
      (List.filter (fun q -> kth.(q) >= 0) (List.init (Array.length kth) Fun.id))
  in
  Array.stable_sort (fun a b -> Int.compare kth.(a) kth.(b)) rq;
  let n = Array.length rq in
  let starts =
    List.filter
      (fun c -> c = 0 || kth.(rq.(c)) <> kth.(rq.(c - 1)))
      (List.init n Fun.id)
  in
  let rivals = Array.of_list (List.map (fun c -> kth.(rq.(c))) starts) in
  Kth { rivals; roff = Array.of_list (starts @ [ n ]); rq }

(* The dominance-layer certificate (see DESIGN.md, "Hot-path layout &
   pruning"). Pruning to the kth-rival set is exact unconditionally;
   the certificate additionally checks the geometric fact the k-regret
   literature prunes by — every rank-k rival sits within the first
   [k+1] onion/dominance layers (0-based: [layers kth <= k]), which
   needs minimizing non-negative weights (Desc-order instances negate
   weights at construction and fail here). A failed certificate means
   the layer reasoning does not apply to this instance, so we keep the
   conservative Full path rather than argue from geometry we cannot
   witness. *)
let certificate_holds inst ~layers ~kth =
  let queries = inst.Instance.queries in
  let m = Array.length queries in
  let ok = ref true in
  (try
     for q = 0 to m - 1 do
       let w = queries.(q).Topk.Query.weights in
       for j = 0 to Array.length w - 1 do
         if w.(j) < 0. then begin
           ok := false;
           raise Exit
         end
       done;
       if kth.(q) >= 0 && layers kth.(q) > queries.(q).Topk.Query.k then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

let prepare ?layers index ~target =
  let inst = Query_index.instance index in
  let m = Instance.n_queries inst in
  let members = Array.init m (fun q -> Query_index.member index ~q target) in
  let base = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 members in
  let d = Instance.dim inst in
  let domain_lo = Vec.make d infinity and domain_hi = Vec.make d neg_infinity in
  Array.iter
    (fun (q : Topk.Query.t) ->
      let w = q.Topk.Query.weights in
      for j = 0 to d - 1 do
        if w.(j) < domain_lo.(j) then domain_lo.(j) <- w.(j);
        if w.(j) > domain_hi.(j) then domain_hi.(j) <- w.(j)
      done)
    inst.Instance.queries;
  let flat = inst.Instance.flat in
  let kth = Array.make m (-1) in
  let thr = Array.make m 0. in
  for q = 0 to m - 1 do
    match Query_index.kth_other index ~q ~target with
    | None -> ()
    | Some id ->
        kth.(q) <- id;
        (* Same accumulation as [Vec.dot w features.(id)]. *)
        thr.(q) <- Flat.dot flat id inst.Instance.queries.(q).Topk.Query.weights
  done;
  let mode =
    match layers with
    | Some layers when certificate_holds inst ~layers ~kth ->
        build_kth_csr kth
    | Some _ | None -> Full
  in
  {
    index;
    target;
    members;
    base;
    domain_lo;
    domain_hi;
    dim = d;
    fdata = Flat.data flat;
    wdata = Flat.data inst.Instance.qflat;
    kth;
    thr;
    mode;
    eval_count = Atomic.make 0;
  }

let base_hits t = t.base
let member t ~q = t.members.(q)
let pruned t = match t.mode with Full -> false | Kth _ -> true

let rival_count t =
  match t.mode with
  | Kth { rivals; _ } -> Array.length rivals
  | Full -> Array.length (Query_index.candidate_rivals t.index)

let member_after t ~s ~q =
  match t.kth.(q) with
  | -1 -> true
  | kth ->
      if Array.length s <> t.dim then
        invalid_arg "Geom.Vec: dimension mismatch";
      (* [w . (feat_target + s)] with the accumulation sequence of
         [Vec.dot w (Vec.add feat_target s)]. *)
      let woff = q * t.dim and toff = t.target * t.dim in
      let acc = ref 0. in
      for j = 0 to t.dim - 1 do
        acc := !acc +. (t.wdata.(woff + j) *. (t.fdata.(toff + j) +. s.(j)))
      done;
      better (!acc, t.target) (t.thr.(q), kth)

(* Per-rival slab setup, shared by both modes: fill the [nb]/[na]
   scratch normals for the slab between [target + s_from] and
   [target + s_to], and range each over the query bounding box in the
   same pass (the boxed path allocated three vectors per rival here).
   Accumulation order matches the original [Vec.sub]/[Vec.add] +
   [dot_range] sequence exactly. Returns whether a sign flip inside
   the box is possible. *)
let fill_slab t ~rival ~s_from ~s_to ~nb ~na =
  let d = t.dim in
  if Array.length s_from <> d || Array.length s_to <> d then
    invalid_arg "Geom.Vec: dimension mismatch";
  let fdata = t.fdata in
  let toff = t.target * d and roff = rival * d in
  let blo = ref 0. and bhi = ref 0. in
  let alo = ref 0. and ahi = ref 0. in
  for j = 0 to d - 1 do
    let base = fdata.(toff + j) -. fdata.(roff + j) in
    let vb = base +. s_from.(j) and va = base +. s_to.(j) in
    nb.(j) <- vb;
    na.(j) <- va;
    if vb >= 0. then begin
      blo := !blo +. (vb *. t.domain_lo.(j));
      bhi := !bhi +. (vb *. t.domain_hi.(j))
    end
    else begin
      blo := !blo +. (vb *. t.domain_hi.(j));
      bhi := !bhi +. (vb *. t.domain_lo.(j))
    end;
    if va >= 0. then begin
      alo := !alo +. (va *. t.domain_lo.(j));
      ahi := !ahi +. (va *. t.domain_hi.(j))
    end
    else begin
      alo := !alo +. (va *. t.domain_hi.(j));
      ahi := !ahi +. (va *. t.domain_lo.(j))
    end
  done;
  (!bhi >= 0. && !alo < 0.) || (!blo < 0. && !ahi >= 0.)

(* Queries whose order against some rival flips between the target's
   position at [s_from] and at [s_to] (both relative to the base
   feature vector). The plain evaluation path uses [s_from = zero].
   Scratch normals live per call, not per state: one state serves
   concurrent evaluations from a Parallel pool. *)
let collect_dirty_between t ~s_from ~s_to f =
  let d = t.dim in
  let nb = Array.make d 0. and na = Array.make d 0. in
  match t.mode with
  | Full ->
      let visit rival =
        if rival <> t.target then
          if fill_slab t ~rival ~s_from ~s_to ~nb ~na then
            Query_index.slab_queries t.index ~normal_before:nb ~normal_after:na
              f
      in
      Array.iter visit (Query_index.candidate_rivals t.index)
  | Kth { rivals; roff; rq } ->
      (* [kth_other] never returns the target, so no skip needed. Each
         rival's query block is tested with the slab entry predicate
         inlined: a query flips when the plane's sign at its weight
         point differs before/after. Blocks partition the queries that
         can change, so [f] sees each query at most once. *)
      let wdata = t.wdata in
      for ri = 0 to Array.length rivals - 1 do
        if fill_slab t ~rival:rivals.(ri) ~s_from ~s_to ~nb ~na then
          for c = roff.(ri) to roff.(ri + 1) - 1 do
            let qi = rq.(c) in
            let woff = qi * d in
            let db = ref 0. and da = ref 0. in
            for j = 0 to d - 1 do
              db := !db +. (nb.(j) *. wdata.(woff + j));
              da := !da +. (na.(j) *. wdata.(woff + j))
            done;
            if !db >= 0. <> (!da >= 0.) then f qi
          done
      done

let collect_dirty t ~s f =
  let d = Vec.dim s in
  collect_dirty_between t ~s_from:(Vec.zero d) ~s_to:s f

let dirty_queries t ~s =
  let seen = Hashtbl.create 64 in
  collect_dirty t ~s (fun qi -> Hashtbl.replace seen qi ());
  Hashtbl.fold (fun qi () acc -> qi :: acc) seen [] |> List.sort Int.compare

let dirty_between t ~s_from ~s_to =
  let seen = Hashtbl.create 64 in
  collect_dirty_between t ~s_from ~s_to (fun qi -> Hashtbl.replace seen qi ());
  Hashtbl.fold (fun qi () acc -> qi :: acc) seen [] |> List.sort Int.compare

let evaluate t ~s =
  Atomic.incr t.eval_count;
  if Vec.is_zero ~eps:0. s then t.base
  else
    match t.mode with
    | Full ->
        (* A query can be flagged through several rivals here, so dedup
           before applying membership deltas. *)
        let seen = Hashtbl.create 64 in
        collect_dirty t ~s (fun qi -> Hashtbl.replace seen qi ());
        Hashtbl.fold
          (fun qi () acc ->
            let before = t.members.(qi) in
            let after = member_after t ~s ~q:qi in
            acc
            + (if after && not before then 1 else 0)
            - (if before && not after then 1 else 0))
          seen t.base
    | Kth _ ->
        (* Disjoint CSR blocks: each dirty query arrives exactly once. *)
        let acc = ref t.base in
        collect_dirty t ~s (fun qi ->
            let before = t.members.(qi) in
            let after = member_after t ~s ~q:qi in
            if after && not before then incr acc
            else if before && not after then decr acc);
        !acc

let hit_constraint t ~q ~current =
  if t.kth.(q) = -1 then None
  else begin
    let inst = Query_index.instance t.index in
    let w = inst.Instance.queries.(q).Topk.Query.weights in
    let thr = t.thr.(q) in
    let margin = 1e-9 *. (1. +. abs_float thr) in
    (* Need w . (current + s) < thr (or tie broken by id). Use the
       strict margin so ids never decide. *)
    let b = thr -. Vec.dot w current -. margin in
    Some (w, b)
  end

let evaluations t = Atomic.get t.eval_count
