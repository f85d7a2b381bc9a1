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
   dedup. Both paths flag a query with the same side test on the same
   floats, and re-score every flagged query exactly, so [evaluate]
   results are bit-for-bit identical.

   A query is flagged unless its plane value lies strictly on one side
   of the plane at both positions. A value on the plane is a score tie
   with the rival, which the ids decide: a target that wins the tie is
   a member there, one that loses is not, so a sign test that put the
   plane on one side would miss the target leaving (or entering) a
   query it ties with — duplicate objects do exactly that.

   [evaluate] always classifies from the unimproved target, so the
   before side of every slab is a constant of the state: [prepare]
   freezes it as two floats per rival and one byte per CSR slot,
   computed with the operation sequence the general path uses. *)
type mode =
  | Full
  | Kth of {
      rivals : int array; (* distinct kth rivals, ascending *)
      roff : int array; (* CSR offsets into [rq]; length rivals+1 *)
      rq : int array; (* query ids grouped by kth rival *)
      brange : float array;
          (* [2ri], [2ri+1]: low and high of the before-side normal
             [(target - rival) +. 0.] over the query box *)
      bside : Bytes.t; (* per CSR slot: [side] of the before-side plane value *)
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

(* Group queries by their kth rival into a CSR index: a stable sort of
   the query ids by rival keeps rivals ascending and each block in
   query order. It works in O(m log m) on query-sized arrays only — no
   [n_objects]-sized scratch per prepare (see DESIGN.md, "Hot-path
   layout & pruning"). Returns [(rivals, roff, rq)]. *)
let build_kth_csr kth =
  let n = Array.fold_left (fun acc r -> if r >= 0 then acc + 1 else acc) 0 kth in
  let rq = Array.make n 0 and c = ref 0 in
  Array.iteri
    (fun q r ->
      if r >= 0 then begin
        rq.(!c) <- q;
        incr c
      end)
    kth;
  Array.stable_sort (fun a b -> Int.compare kth.(a) kth.(b)) rq;
  let starts c = c = 0 || kth.(rq.(c)) <> kth.(rq.(c - 1)) in
  let nr = ref 0 in
  for c = 0 to n - 1 do
    if starts c then incr nr
  done;
  let rivals = Array.make !nr 0 and roff = Array.make (!nr + 1) n in
  let ri = ref 0 in
  for c = 0 to n - 1 do
    if starts c then begin
      rivals.(!ri) <- kth.(rq.(c));
      roff.(!ri) <- c;
      incr ri
    end
  done;
  (rivals, roff, rq)

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

(* One side of a rival's slab: fill [n] with the normal
   [(target - rival) +. s] and set [range.(0)]/[range.(1)] to its low
   and high over the query bounding box, in one pass with no
   allocation. Both sides of every slab, frozen or not, come from here,
   so they share one operation sequence: the [base +. s] normal of the
   original [Vec.sub]/[Vec.add] + [dot_range] code. *)
let fill_side t ~rival ~s ~n ~range =
  let d = t.dim in
  if Array.length s <> d then invalid_arg "Geom.Vec: dimension mismatch";
  let fdata = t.fdata in
  let toff = t.target * d and roff = rival * d in
  let lo = ref 0. and hi = ref 0. in
  for j = 0 to d - 1 do
    let v = fdata.(toff + j) -. fdata.(roff + j) +. s.(j) in
    n.(j) <- v;
    if v >= 0. then begin
      lo := !lo +. (v *. t.domain_lo.(j));
      hi := !hi +. (v *. t.domain_hi.(j))
    end
    else begin
      lo := !lo +. (v *. t.domain_hi.(j));
      hi := !hi +. (v *. t.domain_lo.(j))
    end
  done;
  range.(0) <- !lo;
  range.(1) <- !hi

(* Whether some query in the box can change membership between a
   before side ranging over [blo, bhi] and an after side over
   [alo, ahi]: not when both ranges lie strictly on one side. Rounding
   is monotone, so the box ranges bound every query's plane value. *)
let[@inline] may_change ~blo ~bhi ~alo ~ahi =
  not ((blo > 0. && alo > 0.) || (bhi < 0. && ahi < 0.))

(* The side of query [q]'s plane value [n . w_q], accumulated in index
   order: ['+'] strictly above, ['-'] strictly below, ['0'] on the
   plane (a score tie) or NaN. *)
let[@inline] side t n ~q =
  let d = t.dim and wdata = t.wdata in
  let woff = q * d in
  let acc = ref 0. in
  for j = 0 to d - 1 do
    acc := !acc +. (n.(j) *. wdata.(woff + j))
  done;
  if !acc > 0. then '+' else if !acc < 0. then '-' else '0'

(* A query whose before and after sides are not the same strict side
   may change membership; [member_after] decides it exactly. *)
let[@inline] may_flip before after = before = '0' || before <> after

(* The before side of every slab [evaluate] classifies: the target at
   [s = 0], for each kth rival, computed once here. *)
let freeze_before t (rivals, roff, rq) =
  let nr = Array.length rivals in
  let zero = Vec.zero t.dim and nb = Vec.zero t.dim in
  let range = Array.make 2 0. in
  let brange = Array.make (2 * nr) 0. in
  let bside = Bytes.create (Array.length rq) in
  for ri = 0 to nr - 1 do
    fill_side t ~rival:rivals.(ri) ~s:zero ~n:nb ~range;
    brange.(2 * ri) <- range.(0);
    brange.((2 * ri) + 1) <- range.(1);
    for c = roff.(ri) to roff.(ri + 1) - 1 do
      Bytes.set bside c (side t nb ~q:rq.(c))
    done
  done;
  Kth { rivals; roff; rq; brange; bside }

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
  let t =
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
      mode = Full;
      eval_count = Atomic.make 0;
    }
  in
  match layers with
  | Some layers when certificate_holds inst ~layers ~kth ->
      { t with mode = freeze_before t (build_kth_csr kth) }
  | Some _ | None -> t

let base_hits t = t.base
let member t ~q = t.members.(q)
let pruned t = match t.mode with Full -> false | Kth _ -> true

let rival_count t =
  match t.mode with
  | Kth { rivals; _ } -> Array.length rivals
  | Full -> Array.length (Query_index.candidate_rivals t.index)

let member_after t ~s ~q =
  if t.kth.(q) = -1 then true
  else begin
    if Array.length s <> t.dim then invalid_arg "Geom.Vec: dimension mismatch";
    (* [w . (feat_target + s)] with the accumulation sequence of
       [Vec.dot w (Vec.add feat_target s)]. *)
    let woff = q * t.dim and toff = t.target * t.dim in
    let acc = ref 0. in
    for j = 0 to t.dim - 1 do
      acc := !acc +. (t.wdata.(woff + j) *. (t.fdata.(toff + j) +. s.(j)))
    done;
    (* [Topk.Eval.better acc target thr kth] spelled inline: a call
       into another module boxes both floats (dune's dev profile
       compiles with [-opaque], so nothing inlines across modules), an
       allocation per dirty query on this path. *)
    let thr = t.thr.(q) in
    !acc < thr || (!acc = thr && t.target < t.kth.(q))
  end

(* Queries whose order against some rival flips between the target's
   position at [s_from] and at [s_to] (both relative to the base
   feature vector), classified from scratch on both sides. Scratch
   normals live per call, not per state: one state serves concurrent
   evaluations from a Parallel pool. *)
let collect_dirty_between t ~s_from ~s_to f =
  let d = t.dim in
  let nb = Array.make d 0. and na = Array.make d 0. in
  let br = Array.make 2 0. and ar = Array.make 2 0. in
  let slab rival =
    fill_side t ~rival ~s:s_from ~n:nb ~range:br;
    fill_side t ~rival ~s:s_to ~n:na ~range:ar;
    may_change ~blo:br.(0) ~bhi:br.(1) ~alo:ar.(0) ~ahi:ar.(1)
  in
  match t.mode with
  | Full ->
      let visit rival =
        if rival <> t.target && slab rival then
          Query_index.slab_queries t.index ~normal_before:nb ~normal_after:na f
      in
      Array.iter visit (Query_index.candidate_rivals t.index)
  | Kth { rivals; roff; rq; _ } ->
      (* [kth_other] never returns the target, so no skip needed. Each
         rival's query block is tested with the slab entry predicate
         inlined. Blocks partition the queries that can change, so [f]
         sees each query at most once. *)
      for ri = 0 to Array.length rivals - 1 do
        if slab rivals.(ri) then
          for c = roff.(ri) to roff.(ri + 1) - 1 do
            let qi = rq.(c) in
            if may_flip (side t nb ~q:qi) (side t na ~q:qi) then f qi
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

(* [Vec.is_zero ~eps:0.] without its closure. *)
let is_zero s =
  let j = ref 0 in
  while !j < Array.length s && abs_float s.(!j) <= 0. do
    incr j
  done;
  !j = Array.length s

let evaluate t ~s =
  Atomic.incr t.eval_count;
  if is_zero s then t.base
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
    | Kth { rivals; roff; rq; brange; bside } ->
        (* The before side is frozen, so only the after side is
           computed: per rival its normal and box range, per query of a
           block whose side can change. Disjoint CSR blocks: each
           dirty query arrives exactly once. The only allocation is the
           after-side scratch, O(d). *)
        let na = Array.make t.dim 0. and ar = Array.make 2 0. in
        let acc = ref t.base in
        for ri = 0 to Array.length rivals - 1 do
          fill_side t ~rival:rivals.(ri) ~s ~n:na ~range:ar;
          if
            may_change ~blo:brange.(2 * ri)
              ~bhi:brange.((2 * ri) + 1)
              ~alo:ar.(0) ~ahi:ar.(1)
          then
            for c = roff.(ri) to roff.(ri + 1) - 1 do
              let qi = rq.(c) in
              if may_flip (Bytes.get bside c) (side t na ~q:qi) then begin
                let before = t.members.(qi) in
                let after = member_after t ~s ~q:qi in
                if after && not before then incr acc
                else if before && not after then decr acc
              end
            done
        done;
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
