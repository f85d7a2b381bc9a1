(* Generic monotone-framework engine.

   The protocol analysis (Budget_loop) needs interprocedural summaries
   computed to a fixpoint over the {!Callgraph}: "may this node reach
   an evaluation", "may it consult the budget", and so on. Each of those is an instance of the same
   shape — a finite set of nodes, a lattice of facts, and a monotone
   transfer function that reads the facts of the nodes it depends on —
   so the worklist machinery lives here once, parameterised over the
   lattice.

   Semantics: [solve] computes the least map [fact] (starting from
   [init]) satisfying [fact.(n) = transfer ~get n] for every node,
   where [get] reads the current assignment. Dependencies are declared
   up front ([deps n] = the nodes whose facts [transfer] for [n]
   reads); when a node's fact changes, every dependent is re-queued.
   Facts only move up the lattice: a [transfer] result is always
   joined with the previous fact, so a non-monotone transfer degrades
   to an over-approximation instead of an oscillation. After
   [widen_after] changes to the same node, [widen] replaces [join] —
   lattices of unbounded height (interval-style domains) still
   terminate provided [widen] stabilises; finite lattices can leave
   [widen = join].

   May-analyses run directly ("false" at bottom, join = or).
   Must-analyses ("every path checks the budget") are run as their
   dual: encode the fact as "some path misses the check" and join with
   or — the framework itself only ever climbs. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old next]: accelerated join; for finite lattices simply
      [join]. *)
end

(** The two-point may-lattice, and the workhorse of the summaries. *)
module Bool : LATTICE with type t = bool = struct
  type t = bool

  let equal = Bool.equal
  let join = ( || )
  let widen = ( || )
end

(** Finite powerset lattice as a bitset: join = union. Used by the
    QCheck properties to randomise over genuinely partial orders. *)
module Bits : LATTICE with type t = int = struct
  type t = int

  let equal = Int.equal
  let join = ( lor )
  let widen = ( lor )
end

module Solve (L : LATTICE) = struct
  type stats = { iterations : int; widenings : int }

  (* [solve ~n ~deps ~init ~transfer ()] — facts for nodes [0..n-1].
     [transfer ~get i] must only call [get] on members of [deps i];
     reading anything else computes a fixpoint over stale values (the
     dependency is invisible to the worklist). *)
  let solve ?(widen_after = 8) ~n ~deps ~init ~transfer () =
    let fact = Array.init n init in
    let bumps = Array.make n 0 in
    (* Reverse dependency index: who must re-run when [i] changes. *)
    let dependents = Array.make n [] in
    for i = 0 to n - 1 do
      List.iter
        (fun d ->
          if d >= 0 && d < n then dependents.(d) <- i :: dependents.(d))
        (deps i)
    done;
    let queued = Array.make n false in
    let queue = Queue.create () in
    let enqueue i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i queue
      end
    in
    for i = 0 to n - 1 do
      enqueue i
    done;
    let iterations = ref 0 in
    let widenings = ref 0 in
    let get i = fact.(i) in
    while not (Queue.is_empty queue) do
      let i = Queue.take queue in
      queued.(i) <- false;
      incr iterations;
      let proposed = transfer ~get i in
      let next =
        if bumps.(i) >= widen_after then begin
          let w = L.widen fact.(i) proposed in
          if not (L.equal w fact.(i)) then incr widenings;
          w
        end
        else L.join fact.(i) proposed
      in
      if not (L.equal next fact.(i)) then begin
        fact.(i) <- next;
        bumps.(i) <- bumps.(i) + 1;
        List.iter enqueue dependents.(i)
      end
    done;
    (fact, { iterations = !iterations; widenings = !widenings })
end

module Bool_solver = Solve (Bool)
module Bits_solver = Solve (Bits)

(* ------------------------------------------------------------------ *)
(* Callgraph-indexed boolean summaries                                *)
(* ------------------------------------------------------------------ *)

(* Most protocol summaries are boolean facts over callgraph nodes with
   call edges as dependencies. This helper handles the indexing
   chore: nodes are deduplicated by {!Callgraph.node} (a node split
   across [and]-bindings contributes every body), and the returned
   lookup is total (unknown nodes read as [seed]'s default). *)
let node_summary (cg : Callgraph.t) ~seed ~via =
  let index = Hashtbl.create 256 in
  let nodes = ref [] in
  let count = ref 0 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      if not (Hashtbl.mem index fn.Callgraph.f_node) then begin
        Hashtbl.add index fn.Callgraph.f_node !count;
        nodes := fn.Callgraph.f_node :: !nodes;
        incr count
      end)
    cg.Callgraph.cg_fns;
  let n = !count in
  let node_arr =
    Array.make (max n 1) Callgraph.{ n_lib = ""; n_mod = ""; n_val = "" }
  in
  List.iteri (fun i nd -> node_arr.(n - 1 - i) <- nd) !nodes;
  let deps_of i =
    let nd = node_arr.(i) in
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        List.filter_map
          (fun (x : Callgraph.xref) ->
            if x.Callgraph.x_usage_only then None
            else Hashtbl.find_opt index x.Callgraph.x_target)
          fn.Callgraph.f_refs)
      (Callgraph.fns_of cg nd)
  in
  let transfer ~get i =
    let nd = node_arr.(i) in
    let bodies = Callgraph.fns_of cg nd in
    seed bodies
    || List.exists
         (fun (fn : Callgraph.fn) ->
           List.exists
             (fun (x : Callgraph.xref) ->
               (not x.Callgraph.x_usage_only)
               &&
               match Hashtbl.find_opt index x.Callgraph.x_target with
               | Some j -> via fn x && get j
               | None -> false)
             fn.Callgraph.f_refs)
         bodies
  in
  let fact, _stats =
    if n = 0 then ([||], Bool_solver.{ iterations = 0; widenings = 0 })
    else
      Bool_solver.solve ~n ~deps:deps_of
        ~init:(fun i -> seed (Callgraph.fns_of cg node_arr.(i)))
        ~transfer ()
  in
  fun node ->
    match Hashtbl.find_opt index node with
    | Some i -> fact.(i)
    | None -> false
