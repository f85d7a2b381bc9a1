open Geom

type t = {
  name : string;
  instance : Instance.t;
  base_hits : int;
  hit_count : Strategy.t -> int;
  member : q:int -> Strategy.t -> bool;
  hit_constraint : q:int -> current:Vec.t -> (Vec.t * float) option;
  evaluations : unit -> int;
}

let of_state index state =
  {
    name = "efficient-iq";
    instance = Query_index.instance index;
    base_hits = Ese.base_hits state;
    hit_count = (fun s -> Ese.evaluate state ~s);
    member = (fun ~q s -> Ese.member_after state ~s ~q);
    hit_constraint = (fun ~q ~current -> Ese.hit_constraint state ~q ~current);
    evaluations = (fun () -> Ese.evaluations state);
  }

let ese index ~target = of_state index (Ese.prepare index ~target)

(* Per-query hit threshold (Equation 6). It depends only on the OTHER
   objects, which never move during a search on [target], so both
   scan-based evaluators memoize it. *)
let threshold_cache inst ~target =
  let m = Instance.n_queries inst in
  let cache = Array.make m `Unknown in
  fun q ->
    match cache.(q) with
    | `Known v -> v
    | `Unknown ->
        let w = inst.Instance.queries.(q).Topk.Query.weights in
        let k = inst.Instance.queries.(q).Topk.Query.k in
        let v =
          Topk.Eval.kth_score_excluding inst.Instance.features ~weights:w ~k
            ~excl:target
        in
        cache.(q) <- `Known v;
        v

let scan_member inst threshold ~target ~q v =
  let w = inst.Instance.queries.(q).Topk.Query.weights in
  match threshold q with
  | None -> true
  | Some (kth, thr) -> Topk.Eval.better (Vec.dot w v) target thr kth

let cached_constraint inst threshold ~q ~current =
  match threshold q with
  | None -> None
  | Some (_, thr) ->
      let w = inst.Instance.queries.(q).Topk.Query.weights in
      let margin = 1e-9 *. (1. +. abs_float thr) in
      Some (w, thr -. Vec.dot w current -. margin)

(* Contiguous query-range shards for a pool fan-out: one deterministic
   partition per (shards, m), so a given query index is always scanned
   by the same shard — the lazily-filled threshold cache therefore has
   exactly one writer per slot even on the first (cache-cold) parallel
   evaluation. *)
let shard_ranges ~shards m =
  let shards = Int.max 1 (Int.min shards m) in
  let per = (m + shards - 1) / shards in
  Array.init shards (fun i -> (i * per, Int.min m ((i + 1) * per)))

let naive ?pool inst ~target =
  let count = Atomic.make 0 in
  let m = Instance.n_queries inst in
  let threshold = threshold_cache inst ~target in
  (* The range scan reads query weights out of the instance's SoA slab:
     one contiguous stride per query instead of a boxed-vector chase.
     The inlined dot matches [Vec.dot w v]'s accumulation exactly. *)
  let d = Instance.dim inst in
  let wdata = Flat.data inst.Instance.qflat in
  let count_range v (lo, hi) =
    let acc = ref 0 in
    for q = lo to hi - 1 do
      match threshold q with
      | None -> incr acc
      | Some (kth, thr) ->
          let woff = q * d in
          let s = ref 0. in
          for j = 0 to d - 1 do
            s := !s +. (wdata.(woff + j) *. v.(j))
          done;
          if Topk.Eval.better !s target thr kth then incr acc
    done;
    !acc
  in
  let hit_count s =
    Atomic.incr count;
    let v = Instance.improved inst ~target ~s in
    match pool with
    | None -> count_range v (0, m)
    | Some pool ->
        let shards = shard_ranges ~shards:(Parallel.domains pool * 4) m in
        Parallel.map_array pool (count_range v) shards
        |> Array.fold_left ( + ) 0
  in
  let member ~q s =
    scan_member inst threshold ~target ~q (Instance.improved inst ~target ~s)
  in
  {
    name = "naive";
    instance = inst;
    base_hits = hit_count (Strategy.zero (Instance.dim inst));
    hit_count;
    member;
    hit_constraint = cached_constraint inst threshold;
    evaluations = (fun () -> Atomic.get count);
  }

let rta ?pool inst ~target =
  let count = Atomic.make 0 in
  let queries = Array.to_list inst.Instance.queries in
  let threshold = threshold_cache inst ~target in
  (* Query shards for the pool path, split once up front. RTA decides
     each query exactly (the shared-buffer pruning only skips
     known-misses), so per-shard hit counts sum to the sequential
     count; only the evaluated/pruned balance shifts. *)
  let query_shards =
    match pool with
    | None -> [||]
    | Some pool ->
        let m = Instance.n_queries inst in
        Array.map
          (fun (lo, hi) ->
            List.filteri (fun qi _ -> qi >= lo && qi < hi) queries)
          (shard_ranges ~shards:(Parallel.domains pool * 2) m)
  in
  let hit_count s =
    Atomic.incr count;
    let v = Instance.improved inst ~target ~s in
    let inst' = Instance.with_feature inst ~target v in
    match pool with
    | None -> Topk.Rta.hit_count ~data:inst'.Instance.features ~queries target
    | Some pool ->
        Parallel.map_array pool
          (fun qs ->
            Topk.Rta.hit_count ~data:inst'.Instance.features ~queries:qs target)
          query_shards
        |> Array.fold_left ( + ) 0
  in
  let member ~q s =
    scan_member inst threshold ~target ~q (Instance.improved inst ~target ~s)
  in
  {
    name = "rta-iq";
    instance = inst;
    base_hits = hit_count (Strategy.zero (Instance.dim inst));
    hit_count;
    member;
    hit_constraint = cached_constraint inst threshold;
    evaluations = (fun () -> Atomic.get count);
  }
