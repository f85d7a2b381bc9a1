open Geom

type group = { gid : int; prefix : int array; members : int array }

type t = {
  inst : Instance.t;
  depth : int;
  groups : group array;
  gid_of : int array; (* query idx -> gid *)
  rtree : int Rtree.t;
  rivals : int array;
  build_seconds : float;
  hint_hits : int;
  hint_misses : int;
}

let compute_prefix inst depth qi =
  let w = inst.Instance.queries.(qi).Topk.Query.weights in
  Array.of_list (Topk.Eval.top_k inst.Instance.features ~weights:w ~k:depth)

(* Group queries whose prefixes coincide; also derive the rival set. *)
let group_prefixes prefixes =
  let m = Array.length prefixes in
  let signature = Hashtbl.create (Int.max 16 (m / 4)) in
  let by_gid : (int, int array * int list ref) Hashtbl.t = Hashtbl.create 64 in
  let gid_of = Array.make m (-1) in
  let n_groups = ref 0 in
  for qi = 0 to m - 1 do
    let key = Array.to_list prefixes.(qi) in
    match Hashtbl.find_opt signature key with
    | Some gid ->
        gid_of.(qi) <- gid;
        (match Hashtbl.find_opt by_gid gid with
        | Some (_, members) -> members := qi :: !members
        | None -> invalid_arg "Query_index.group_prefixes: stale group id")
    | None ->
        let gid = !n_groups in
        incr n_groups;
        Hashtbl.add signature key gid;
        Hashtbl.add by_gid gid (prefixes.(qi), ref [ qi ]);
        gid_of.(qi) <- gid
  done;
  let groups =
    Array.init !n_groups (fun gid ->
        match Hashtbl.find_opt by_gid gid with
        | Some (prefix, members) ->
            { gid; prefix; members = Array.of_list (List.rev !members) }
        | None -> invalid_arg "Query_index.group_prefixes: stale group id")
  in
  (groups, gid_of)

let rival_set groups =
  let set = Hashtbl.create 256 in
  Array.iter
    (fun g -> Array.iter (fun id -> Hashtbl.replace set id ()) g.prefix)
    groups;
  Hashtbl.fold (fun id () acc -> id :: acc) set []
  |> List.sort Int.compare |> Array.of_list

let build_rtree inst =
  let m = Instance.n_queries inst in
  let dim = Instance.dim inst in
  let entries =
    List.init m (fun qi ->
        (Box.of_point inst.Instance.queries.(qi).Topk.Query.weights, qi))
  in
  Rtree.bulk_load ~dim entries

let build ?(depth_slack = 0) ?pool inst =
  let t0 = Resilience.now_ms () in
  let m = Instance.n_queries inst in
  let depth =
    Int.min (Instance.n_objects inst) (Instance.max_k inst + 1 + depth_slack)
  in
  (* Each query's top-[depth] prefix is independent of every other
     query's, and the scan only reads the frozen Instance feature
     array, so the prefix computation shards across domains with no
     coordination. *)
  let prefixes =
    match pool with
    | None -> Array.init m (compute_prefix inst depth)
    | Some pool ->
        Parallel.map_array pool (compute_prefix inst depth)
          (Array.init m Fun.id)
  in
  let groups, gid_of = group_prefixes prefixes in
  let rtree = build_rtree inst in
  let rivals = rival_set groups in
  let t =
    {
      inst;
      depth;
      groups;
      gid_of;
      rtree;
      rivals;
      build_seconds = (Resilience.now_ms () -. t0) /. 1000.;
      hint_hits = 0;
      hint_misses = 0;
    }
  in
  Log.info (fun m ->
      m "index built: %d queries, %d groups, depth %d, %.3fs"
        (Instance.n_queries inst)
        (Array.length t.groups) depth t.build_seconds);
  t

let instance t = t.inst
let depth t = t.depth
let groups t = t.groups
let group_of t qi = t.groups.(t.gid_of.(qi))
let n_groups t = Array.length t.groups
let rtree t = t.rtree
let candidate_rivals t = t.rivals
let build_seconds t = t.build_seconds
let hint_stats t = (t.hint_hits, t.hint_misses)

let size_words t =
  let dim = Instance.dim t.inst in
  let rtree_words = Rtree.node_count t.rtree * ((2 * dim) + 2) in
  let group_words =
    Array.fold_left
      (fun acc g -> acc + Array.length g.prefix + Array.length g.members)
      0 t.groups
  in
  rtree_words + group_words + Array.length t.gid_of + Array.length t.rivals

let kth_other t ~q ~target =
  let g = group_of t q in
  let k = t.inst.Instance.queries.(q).Topk.Query.k in
  let rec walk i remaining =
    if i >= Array.length g.prefix then None
    else begin
      let id = g.prefix.(i) in
      if id = target then walk (i + 1) remaining
      else if remaining = 1 then Some id
      else walk (i + 1) (remaining - 1)
    end
  in
  walk 0 k

let member t ~q id =
  let g = group_of t q in
  let k = t.inst.Instance.queries.(q).Topk.Query.k in
  let rec scan i =
    if i >= Int.min k (Array.length g.prefix) then false
    else g.prefix.(i) = id || scan (i + 1)
  in
  scan 0

let slab_queries t ~rival ~before ~after f =
  let inst = t.inst in
  (* A position's score range over a node box: [box_min_max_n] sums
     [v_j *. lo_j] or [v_j *. hi_j] in [Vec.dot]'s order, so, rounding
     being monotone, it bounds the float score of every query in the
     box. A node is skipped only when both positions score strictly on
     one side of the rival over its whole box. *)
  let may_change box =
    let range v = Hyperplane.box_min_max_n ~normal:v ~lo:box.Box.lo ~hi:box.Box.hi in
    let bmin, bmax = range before and amin, amax = range after in
    let rmin, rmax = range rival in
    not ((bmin > rmax && amin > rmax) || (bmax < rmin && amax < rmin))
  in
  let visit qi =
    let w = inst.Instance.queries.(qi).Topk.Query.weights in
    let sr = Vec.dot w rival in
    let sb = Vec.dot w before and sa = Vec.dot w after in
    if not ((sb > sr && sa > sr) || (sb < sr && sa < sr)) then f qi
  in
  Rtree.search_pred t.rtree ~node_pred:may_change
    ~entry_pred:(fun _ -> true)
    ~f:(fun _box qi -> visit qi)

(* --- Section 4.3: data updating ------------------------------------- *)

(* Verify that a candidate prefix (borrowed from a kNN neighbour's
   subdomain) is the true top-[depth] prefix for weights [w]: it must be
   internally sorted and no outside object may beat its last entry. *)
let verify_prefix inst ~w prefix =
  let n = Instance.n_objects inst in
  let depth = Array.length prefix in
  if depth = 0 then false
  else begin
    let score id = Vec.dot w inst.Instance.features.(id) in
    let sorted = ref true in
    for i = 0 to depth - 2 do
      if
        not
          (Topk.Eval.better (score prefix.(i)) prefix.(i)
             (score prefix.(i + 1))
             prefix.(i + 1))
      then sorted := false
    done;
    if not !sorted then false
    else begin
      let in_prefix = Hashtbl.create depth in
      Array.iter (fun id -> Hashtbl.replace in_prefix id ()) prefix;
      let last = prefix.(depth - 1) in
      let s_last = score last in
      let ok = ref true in
      (try
         for id = 0 to n - 1 do
           if not (Hashtbl.mem in_prefix id) then
             if Topk.Eval.better (score id) id s_last last then begin
               ok := false;
               raise Exit
             end
         done
       with Exit -> ());
      !ok
    end
  end

let current_prefixes t =
  Array.init (Array.length t.gid_of) (fun qi -> (group_of t qi).prefix)

(* Every update is copy-on-write: it computes a fresh [inst'] (Instance's
   update paths are functional) and a fresh prefix table, and returns a
   successor record built from them. No array of the parent is ever
   written, so a reader holding the parent never observes a half-applied
   update; unchanged prefix arrays and the old instance's slabs are
   shared structurally. The query-point R-tree depends on the query
   weights only, so object updates pass the parent's tree (never
   mutated after [bulk_load]) and query updates pass a rebuilt one. *)
let successor t ~inst ~rtree prefixes =
  let groups, gid_of = group_prefixes prefixes in
  { t with inst; groups; gid_of; rivals = rival_set groups; rtree }

let with_query_added t (q : Topk.Query.t) =
  if q.Topk.Query.k + 1 > t.depth then
    invalid_arg
      "Query_index.with_query_added: k exceeds the index depth (rebuild \
       with depth_slack)";
  let inst' = Instance.add_query t.inst q in
  let m = Instance.n_queries inst' in
  let qi = m - 1 in
  let w = inst'.Instance.queries.(qi).Topk.Query.weights in
  (* kNN hint: try the nearest existing query's subdomain first. *)
  let hint =
    match Rtree.nearest t.rtree w 1 with
    | [ (_, _, neighbour) ] -> Some (group_of t neighbour).prefix
    | _ -> None
  in
  let hit, prefix =
    match hint with
    | Some candidate when verify_prefix inst' ~w candidate -> (true, candidate)
    | Some _ | None ->
        ( false,
          Array.of_list
            (Topk.Eval.top_k inst'.Instance.features ~weights:w ~k:t.depth) )
  in
  let t' =
    successor t ~inst:inst' ~rtree:(build_rtree inst')
      (Array.append (current_prefixes t) [| prefix |])
  in
  if hit then ({ t' with hint_hits = t.hint_hits + 1 }, qi)
  else ({ t' with hint_misses = t.hint_misses + 1 }, qi)

let with_query_removed t qi =
  let prefixes = current_prefixes t in
  let m = Array.length prefixes in
  if qi < 0 || qi >= m then
    invalid_arg "Query_index.with_query_removed: bad index";
  let prefixes' =
    Array.init (m - 1) (fun j -> if j < qi then prefixes.(j) else prefixes.(j + 1))
  in
  let inst' = Instance.remove_query t.inst qi in
  successor t ~inst:inst' ~rtree:(build_rtree inst') prefixes'

let with_object_added t raw_attrs =
  let inst' = Instance.add_object t.inst raw_attrs in
  let id = Instance.n_objects inst' - 1 in
  let feat = inst'.Instance.features.(id) in
  let prefixes = current_prefixes t in
  (* The new object can only push into prefixes it beats the tail of. *)
  let updated =
    Array.mapi
      (fun qi prefix ->
        let w = inst'.Instance.queries.(qi).Topk.Query.weights in
        let s_new = Vec.dot w feat in
        let depth = Array.length prefix in
        let score i = Vec.dot w inst'.Instance.features.(prefix.(i)) in
        if
          depth > 0
          && not
               (Topk.Eval.better s_new id
                  (score (depth - 1))
                  prefix.(depth - 1))
          && depth >= t.depth
        then prefix
        else begin
          (* Insert in sorted position; drop overflow beyond depth. *)
          let inserted = ref false in
          let out = ref [] in
          Array.iteri
            (fun i pid ->
              if (not !inserted) && Topk.Eval.better s_new id (score i) pid then begin
                out := pid :: id :: !out;
                inserted := true
              end
              else out := pid :: !out)
            prefix;
          if not !inserted then out := id :: !out;
          let full = List.rev !out in
          Array.of_list (List.filteri (fun i _ -> i < t.depth) full)
        end)
      prefixes
  in
  (successor t ~inst:inst' ~rtree:t.rtree updated, id)

let prefix_filter t =
  let filter = Bloom.create ~expected:(Int.max 1 (Array.length t.rivals)) () in
  Array.iter (fun id -> Bloom.add filter id) t.rivals;
  filter

let with_object_updated t id raw_attrs =
  let filter = prefix_filter t in
  let inst' = Instance.update_object t.inst id raw_attrs in
  let feat = inst'.Instance.features.(id) in
  let might_contain = Bloom.mem filter id in
  let prefixes = current_prefixes t in
  let updated =
    Array.mapi
      (fun qi prefix ->
        let w = inst'.Instance.queries.(qi).Topk.Query.weights in
        let depth = Array.length prefix in
        let contains =
          might_contain && Array.exists (fun p -> p = id) prefix
        in
        let cuts =
          (not contains) && depth > 0
          &&
          let s_new = Vec.dot w feat in
          let last = prefix.(depth - 1) in
          let s_last = Vec.dot w inst'.Instance.features.(last) in
          Topk.Eval.better s_new id s_last last
        in
        if contains || cuts || depth < t.depth then
          (* The moved object bounds (or now cuts into) this query's
             subdomain: recompute its prefix against the new features. *)
          Array.of_list
            (Topk.Eval.top_k inst'.Instance.features ~weights:w ~k:t.depth)
        else prefix)
      prefixes
  in
  successor t ~inst:inst' ~rtree:t.rtree updated

let with_object_removed t id =
  let filter = prefix_filter t in
  let inst' = Instance.remove_object t.inst id in
  let prefixes = current_prefixes t in
  let might_contain = Bloom.mem filter id in
  let remap pid = if pid > id then pid - 1 else pid in
  let updated =
    Array.mapi
      (fun qi prefix ->
        let contains = might_contain && Array.exists (fun p -> p = id) prefix in
        if contains then begin
          (* This query's subdomain loses a boundary object: recompute. *)
          let w = inst'.Instance.queries.(qi).Topk.Query.weights in
          Array.of_list
            (Topk.Eval.top_k inst'.Instance.features ~weights:w ~k:t.depth)
        end
        else Array.map remap prefix)
      prefixes
  in
  successor t ~inst:inst' ~rtree:t.rtree updated

(* --- persistence ------------------------------------------------------ *)

(* A snapshot stores only plain data (no closures): the raw attributes,
   the feature images, the effective (minimizing) query weights, and the
   cached prefixes. Loading reconstructs the R-tree and groups. The
   utility's feature map is NOT stored — the loaded instance treats the
   saved feature vectors as its objects (exact for linear utilities;
   for feature-mapped ones the loaded index works in feature space,
   which is where all IQ processing happens anyway). *)
type snapshot = {
  s_raw : Vec.t array;
  s_features : Vec.t array;
  s_queries : (float array * int * int) array; (* weights, k, id *)
  s_prefixes : int array array;
  s_depth : int;
}

let snapshot_magic = "iq-index-v1"

let save t path =
  let inst = t.inst in
  let snap =
    {
      s_raw = inst.Instance.raw;
      s_features = inst.Instance.features;
      s_queries =
        Array.map
          (fun (q : Topk.Query.t) ->
            (q.Topk.Query.weights, q.Topk.Query.k, q.Topk.Query.id))
          inst.Instance.queries;
      s_prefixes = current_prefixes t;
      s_depth = t.depth;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* A plain-text magic line guards the unmarshal: reading a
         marshalled value at the wrong type is memory-unsafe, so the
         check must happen before Marshal runs. *)
      output_string oc snapshot_magic;
      output_char oc '\n';
      Marshal.to_channel oc snap [])

let load path =
  let ic = open_in_bin path in
  let snap =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let magic =
          try input_line ic with End_of_file -> ""
        in
        if magic <> snapshot_magic then
          invalid_arg "Query_index.load: not an index snapshot";
        (Marshal.from_channel ic : snapshot))
  in
  let queries =
    Array.to_list snap.s_queries
    |> List.map (fun (w, k, id) -> Topk.Query.make ~id ~k w)
  in
  (* The loaded instance's objects are the saved feature vectors; the
     original raw attributes are kept in the snapshot for forward
     compatibility but not re-attached (the utility closure is gone). *)
  ignore snap.s_raw;
  let inst = Instance.create ~data:snap.s_features ~queries () in
  let groups, gid_of = group_prefixes snap.s_prefixes in
  {
    inst;
    depth = snap.s_depth;
    groups;
    gid_of;
    rtree = build_rtree inst;
    rivals = rival_set groups;
    build_seconds = 0.;
    hint_hits = 0;
    hint_misses = 0;
  }
