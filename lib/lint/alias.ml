(* Field-sensitive interprocedural alias & escape analysis.

   The MVCC serving layer (PR 8) rests on one structural invariant:
   a published `Iq.Snapshot.t` owns its mutable state exclusively, and
   every copy-on-write `with_*` successor writes only through freshly
   allocated (or explicitly copied) structure. Nothing in the type
   system checks that — one aliased [float array] or [Hashtbl] shared
   between a successor and a published generation silently breaks
   reader isolation. This module proves (or refutes) the invariant
   statically.

   Shape of the analysis:
   - An abstract heap of {e allocation sites}. Evaluating a binding
     body grows a per-binding site table: one site per syntactic
     allocation ([Array.make], record literal, [ref], …), one per
     function parameter, one per module-level value known to be
     mutable, and lazily one per field path read off a parameter or
     global root ([t.groups] materialises the [OParam ("t",
     ["groups"])] site). Abstract values are site sets; the
     environment maps let-bound names to them.
   - An {e ownership lattice} [Fresh < Shared < Published] per site.
     Fresh means "this binding allocated it and nobody else can see
     it"; escaping (being stored into caller-visible structure)
     moves Fresh to Shared; being the value of an [Atomic.set]
     publication moves anything to Published. The QCheck properties
     in the test suite pin the lattice laws (join commutative /
     monotone, escape idempotent).
   - {e Summaries} per top-level binding, keyed ["Mod.val"] like the
     callgraph nodes: which positional parameters (at which field
     paths) the function container-mutates, whether the result is a
     fresh allocation or an alias of a parameter, whether the
     function publishes and if so always under the writer lock, and
     whether closures handed to it run under a lock. Summaries are
     recomputed in definition order over every file, driven by
     {!Dataflow.stabilise}'s bounded rounds, with early exit once the
     table stops changing (path order puts [lib/bloom] and [lib/core]
     before their users, so cross-module chains typically converge in
     round two).
   - An {e event stream} per binding: container writes, mutating
     calls resolved through summaries, snapshot/successor
     constructions, [Atomic.set] publications, stores into
     caller-visible structure. The four rule families (Cow_alias,
     Snap_escape, Pub_order, Unlocked_pub) are consumers of this
     stream plus the site table — the witness chains in their SARIF
     [relatedLocations] are walks from an event back through site
     origins.

   Deliberate approximations, shared with the rest of lib/lint:
   closures are inlined at their occurrence; summary-returned fresh
   values are bare sites (field structure does not survive a summary,
   so deep sharing through helper copies is invisible — precision
   loss lands on the "no finding" side); tuple/constructor patterns
   bind every variable to the whole scrutinee value; unknown external
   calls neither allocate nor escape. *)

open Parsetree

module SMap = Map.Make (String)
module SSet = Set.Make (String)
module ISet = Set.Make (Int)

let strip = Ast_util.strip
let last_comp = Ast_util.last_comp
let lid_comps = Ast_util.lid_comps
let flatten_lid = Ast_util.flatten_lid

(* Callgraph values inside inline submodules are named ["Sub.f"];
   the last dot-segment is the binding's own name. *)
let last_dot s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* ---------------------- ownership lattice ------------------------- *)

type own = Fresh | Shared | Published

let own_rank = function Fresh -> 0 | Shared -> 1 | Published -> 2
let own_join a b = if own_rank a >= own_rank b then a else b
let own_leq a b = own_rank a <= own_rank b
let own_equal a b = own_rank a = own_rank b

(* Ownership transfer at an escape point: a fresh value someone else
   can now reach is shared; shared/published stay put (idempotent). *)
let own_escape = function Fresh -> Shared | o -> o

let own_to_string = function
  | Fresh -> "fresh"
  | Shared -> "shared"
  | Published -> "published"

(* ---------------------- abstract heap ----------------------------- *)

type origin =
  | OAlloc of string  (** what was allocated, e.g. ["Array.make"] *)
  | OParam of string * string list  (** parameter name, field path *)
  | OGlobal of string * string list  (** module-level value, field path *)

let describe_origin = function
  | OAlloc what -> what
  | OParam (p, []) -> Printf.sprintf "parameter `%s`" p
  | OParam (p, path) ->
      Printf.sprintf "parameter field `%s.%s`" p (String.concat "." path)
  | OGlobal (g, []) -> Printf.sprintf "module-level `%s`" g
  | OGlobal (g, path) ->
      Printf.sprintf "module-level `%s.%s`" g (String.concat "." path)

type site = {
  s_id : int;
  s_loc : Location.t;  (** allocation / first-materialisation point *)
  s_origin : origin;
  s_mutable : bool;  (** known-mutable shape (container, record, ref) *)
  s_snap : bool;  (** result of a Snapshot constructor *)
  mutable s_own : own;
  mutable s_fields : ISet.t SMap.t;
  mutable s_base : ISet.t;  (** functional-update base ([{ t with … }]) *)
}

type aval = ISet.t

type event =
  | Write of { w_loc : Location.t; w_what : string; w_target : aval }
      (** an element-level container write ([a.(i) <- v],
          [Hashtbl.replace], [Buffer.add_*], [r := v], …) *)
  | Call_mut of { c_loc : Location.t; c_callee : string; c_target : aval }
      (** a call that container-mutates [c_target] inside the callee,
          per its summary *)
  | Ctor of {
      k_loc : Location.t;
      k_what : string;
      k_kind : [ `Snap | `Succ ];
      k_guarded : bool;
      k_args : (Location.t * aval) list;
    }  (** snapshot construction / cross-module [with_*] successor *)
  | Publish of { p_loc : Location.t; p_guarded : bool; p_direct : bool }
      (** [Atomic.set _.current v] (direct), or a call whose summary
          publishes (propagated) *)
  | Escape of { e_loc : Location.t; e_into : string; e_value : aval }
      (** a value stored into caller-visible structure *)

(* Per-binding summary. No locations inside: summaries are compared
   structurally across rounds by [Dataflow.stabilise]. *)
type summary = {
  sm_mutates : (int * string list) list;
      (** positional parameter index × field path container-mutated *)
  sm_ret_fresh : bool;  (** result is a this-call fresh allocation *)
  sm_ret_params : int list;  (** result may alias these parameters *)
  sm_publishes : bool;
  sm_guarded : bool;  (** every publication ran under the writer lock *)
  sm_wrapper : bool;  (** closures handed to it run under a lock *)
  sm_topval_mutable : bool;
      (** zero-parameter binding whose value is mutable module state *)
}

let empty_summary =
  {
    sm_mutates = [];
    sm_ret_fresh = false;
    sm_ret_params = [];
    sm_publishes = false;
    sm_guarded = true;
    sm_wrapper = false;
    sm_topval_mutable = false;
  }

type ctx = {
  x_resolve : Longident.t -> Callgraph.resolution;
  x_modname : string;
  x_summaries : (string, summary) Hashtbl.t;
  x_wrappers : SSet.t;  (** same-file lock-wrapper names (transitive) *)
  x_sites : (string, site) Hashtbl.t;
  x_by_id : (int, site) Hashtbl.t;
  mutable x_next : int;
  mutable x_events : event list;
  mutable x_saw_wrapper : bool;
}

let loc_key (loc : Location.t) =
  let p = loc.Location.loc_start in
  Printf.sprintf "%d.%d" p.Lexing.pos_lnum (p.Lexing.pos_cnum - p.Lexing.pos_bol)

let intern cx ~key ~loc ~origin ~mut ?(snap = false) ~own () =
  match Hashtbl.find_opt cx.x_sites key with
  | Some s -> s
  | None ->
      let s =
        {
          s_id = cx.x_next;
          s_loc = loc;
          s_origin = origin;
          s_mutable = mut;
          s_snap = snap;
          s_own = own;
          s_fields = SMap.empty;
          s_base = ISet.empty;
        }
      in
      cx.x_next <- cx.x_next + 1;
      Hashtbl.add cx.x_sites key s;
      Hashtbl.add cx.x_by_id s.s_id s;
      s

let alloc_site cx ~loc ~what ?(mut = true) ?(snap = false) () =
  intern cx
    ~key:("a:" ^ loc_key loc ^ ":" ^ what)
    ~loc ~origin:(OAlloc what) ~mut ~snap ~own:Fresh ()

let site_of cx id = Hashtbl.find_opt cx.x_by_id id

let sites_of cx ids =
  ISet.fold
    (fun id acc -> match site_of cx id with Some s -> s :: acc | None -> acc)
    ids []
  |> List.rev

let event_of cx ev =
  cx.x_events <- ev :: cx.x_events

(* Reading [v.f]: known fields first, then the functional-update base
   chain, else lazily materialise a child site under a parameter /
   global root (bounded path depth keeps the heap finite). *)
let max_path = 3

let rec field_read cx ~loc depth ids f =
  if depth > 6 then ISet.empty
  else
    ISet.fold
      (fun id acc ->
        match site_of cx id with
        | None -> acc
        | Some s -> (
            match SMap.find_opt f s.s_fields with
            | Some v -> ISet.union v acc
            | None -> (
                if not (ISet.is_empty s.s_base) then
                  ISet.union (field_read cx ~loc (depth + 1) s.s_base f) acc
                else
                  match s.s_origin with
                  | OParam (p, path) when List.length path < max_path ->
                      let path' = path @ [ f ] in
                      let key = "p:" ^ p ^ "." ^ String.concat "." path' in
                      let c =
                        intern cx ~key ~loc ~origin:(OParam (p, path'))
                          ~mut:false ~own:(own_join s.s_own Shared) ()
                      in
                      ISet.add c.s_id acc
                  | OGlobal (g, path) when List.length path < max_path ->
                      let path' = path @ [ f ] in
                      let key = "g:" ^ g ^ "." ^ String.concat "." path' in
                      let c =
                        intern cx ~key ~loc ~origin:(OGlobal (g, path'))
                          ~mut:false ~own:(own_join s.s_own Shared) ()
                      in
                      ISet.add c.s_id acc
                  | _ -> acc)))
      ids ISet.empty

let rec aval_path cx ~loc ids = function
  | [] -> ids
  | f :: rest -> aval_path cx ~loc (field_read cx ~loc 0 ids f) rest

(* [base.f <- v]: strong update on a unique site, weak join otherwise.
   Storing into caller-visible or already-escaped structure is an
   escape point for the stored value. *)
let set_field cx bids f vv =
  let strong = ISet.cardinal bids = 1 in
  ISet.iter
    (fun id ->
      match site_of cx id with
      | None -> ()
      | Some s ->
          let next =
            if strong then vv
            else
              match SMap.find_opt f s.s_fields with
              | Some old -> ISet.union old vv
              | None -> vv
          in
          s.s_fields <- SMap.add f next s.s_fields)
    bids

let escape_into cx ~loc bids vv =
  if not (ISet.is_empty vv) then
    let shared_root =
      List.find_opt
        (fun s ->
          (not (own_equal s.s_own Fresh))
          ||
          match s.s_origin with
          | OParam _ | OGlobal _ -> true
          | OAlloc _ -> false)
        (sites_of cx bids)
    in
    match shared_root with
    | None -> ()
    | Some root ->
        ISet.iter
          (fun id ->
            match site_of cx id with
            | Some s -> s.s_own <- own_escape s.s_own
            | None -> ())
          vv;
        event_of cx
          (Escape { e_loc = loc; e_into = describe_origin root.s_origin;
                    e_value = vv })

(* ---------------------- known externals --------------------------- *)

let allocator_names =
  [
    ("Array",
     [ "make"; "create_float"; "init"; "copy"; "append"; "sub"; "concat";
       "of_list"; "of_seq"; "map"; "mapi"; "make_matrix" ]);
    ("Hashtbl", [ "create"; "copy" ]);
    ("Bytes", [ "create"; "make"; "copy"; "of_string"; "sub" ]);
    ("Buffer", [ "create" ]);
    ("Queue", [ "create"; "copy" ]);
    ("Stack", [ "create"; "copy" ]);
  ]

let is_allocator lid =
  match lid_comps lid with
  | [ "ref" ] -> true
  | comps -> (
      match List.rev comps with
      | v :: m :: _ -> (
          match List.assoc_opt m allocator_names with
          | Some vs -> List.mem v vs
          | None -> false)
      | _ -> false)

(* Element-level writes: [Callgraph.ext_mutators] plus the [Array.set]
   family (the parser desugars [a.(i) <- v] into an [Array.set]
   application, so it arrives here, not at [Pexp_setfield]). *)
let container_mutators =
  ("Array.set", [ 0 ]) :: ("Array.unsafe_set", [ 0 ])
  :: ("Bytes.set", [ 0 ]) :: ("Bytes.unsafe_set", [ 0 ])
  :: ("incr", [ 0 ]) :: ("decr", [ 0 ])
  :: Callgraph.ext_mutators

let snap_ctor_names = [ "make"; "next"; "root" ]

(* ---------------------- evaluator --------------------------------- *)

type env = aval SMap.t

let env_join a b =
  SMap.union (fun _ x y -> Some (ISet.union x y)) a b

let env_equal a b = SMap.equal ISet.equal a b

let summary_key (n : Callgraph.node) = n.Callgraph.n_mod ^ "." ^ n.Callgraph.n_val

let summary_of cx ns =
  List.find_map (fun n -> Hashtbl.find_opt cx.x_summaries (summary_key n)) ns

let pattern_bind env pat v =
  List.fold_left
    (fun env x -> SMap.add x v env)
    env
    (Ast_util.pattern_vars pat)

let rec eval cx ~prot env e =
  let e = strip e in
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } when SMap.mem x env ->
      (env, SMap.find x env)
  | Pexp_ident { txt; _ } -> (env, global_val cx ~loc txt)
  | Pexp_constant _ -> (env, ISet.empty)
  | Pexp_let (_, vbs, body) ->
      let env =
        List.fold_left
          (fun env vb ->
            match (vb.pvb_pat.ppat_desc, (strip vb.pvb_expr).pexp_desc) with
            | Ppat_tuple ps, Pexp_tuple es when List.length ps = List.length es
              ->
                (* Componentwise: [let (t', qi) = (copy t, n)] keeps
                   the fresh copy separate from the index. *)
                List.fold_left2
                  (fun env p ce ->
                    let env, v = eval cx ~prot env ce in
                    pattern_bind env p v)
                  env ps es
            | _ ->
                let env, v = eval cx ~prot env vb.pvb_expr in
                pattern_bind env vb.pvb_pat v)
          env vbs
      in
      eval cx ~prot env body
  | Pexp_sequence (a, b) ->
      let env, _ = eval cx ~prot env a in
      let prot = prot || Lockset.is_mutex_lock a in
      eval cx ~prot env b
  | Pexp_ifthenelse (c, t, f) ->
      let env, _ = eval cx ~prot env c in
      let env_t, vt = eval cx ~prot env t in
      let env_f, vf =
        match f with Some f -> eval cx ~prot env f | None -> (env, ISet.empty)
      in
      (env_join env_t env_f, ISet.union vt vf)
  | Pexp_match (scrut, cases) ->
      let env, sv = eval cx ~prot env scrut in
      eval_cases cx ~prot env sv cases
  | Pexp_function cases -> eval_cases cx ~prot env ISet.empty cases
  | Pexp_try (body, handlers) ->
      let env_b, vb = eval cx ~prot env body in
      let env_h, vh = eval_cases cx ~prot (env_join env env_b) ISet.empty handlers in
      (env_join env_b env_h, ISet.union vb vh)
  | Pexp_fun (_, dflt, pat, body) ->
      (* Inline the closure: its body's effects happen "here"; the
         parameters shadow whatever they capture. *)
      let env =
        match dflt with
        | Some d ->
            let env', _ = eval cx ~prot env d in
            env'
        | None -> env
      in
      let env' = pattern_bind env pat ISet.empty in
      let _, _ = eval cx ~prot env' body in
      (env, ISet.empty)
  | Pexp_apply (f, args) -> eval_apply cx ~prot env loc f args
  | Pexp_field (b, { txt; _ }) ->
      let env, bv = eval cx ~prot env b in
      (env, field_read cx ~loc 0 bv (last_comp txt))
  | Pexp_setfield (b, { txt; _ }, v) ->
      let env, bv = eval cx ~prot env b in
      let env, vv = eval cx ~prot env v in
      set_field cx bv (last_comp txt) vv;
      escape_into cx ~loc bv vv;
      (env, ISet.empty)
  | Pexp_record (fields, base) ->
      let env, bids =
        match base with
        | Some b -> eval cx ~prot env b
        | None -> (env, ISet.empty)
      in
      let env, fvals =
        List.fold_left
          (fun (env, acc) ({ Location.txt; _ }, fe) ->
            let env, v = eval cx ~prot env fe in
            (env, (last_comp txt, (strip fe).pexp_loc, v) :: acc))
          (env, []) fields
      in
      let fvals = List.rev fvals in
      let labels = List.map (fun (l, _, _) -> l) fvals in
      let snap = cx.x_modname = "Snapshot" && List.mem "generation" labels in
      let s = alloc_site cx ~loc ~what:"record literal" ~snap () in
      List.iter
        (fun (l, _, v) ->
          let next =
            match SMap.find_opt l s.s_fields with
            | Some old -> ISet.union old v
            | None -> v
          in
          s.s_fields <- SMap.add l next s.s_fields)
        fvals;
      s.s_base <- ISet.union s.s_base bids;
      if snap then
        event_of cx
          (Ctor
             {
               k_loc = loc;
               k_what = "Snapshot literal";
               k_kind = `Snap;
               k_guarded = prot;
               k_args = List.map (fun (_, l, v) -> (l, v)) fvals;
             });
      (env, ISet.singleton s.s_id)
  | Pexp_array es ->
      let env =
        List.fold_left (fun env e -> fst (eval cx ~prot env e)) env es
      in
      (env, ISet.singleton (alloc_site cx ~loc ~what:"array literal" ()).s_id)
  | Pexp_tuple es ->
      let env, v =
        List.fold_left
          (fun (env, acc) e ->
            let env, v = eval cx ~prot env e in
            (env, ISet.union acc v))
          (env, ISet.empty) es
      in
      (env, v)
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      (* [Some v] / [Ok v] are transparent wrappers for aliasing. *)
      match arg with Some a -> eval cx ~prot env a | None -> (env, ISet.empty))
  | Pexp_while (c, b) ->
      let env =
        eval_loop cx env (fun env ->
            let env, _ = eval cx ~prot env c in
            fst (eval cx ~prot env b))
      in
      (env, ISet.empty)
  | Pexp_for (pat, lo, hi, _, b) ->
      let env, _ = eval cx ~prot env lo in
      let env, _ = eval cx ~prot env hi in
      let env =
        eval_loop cx env (fun env ->
            fst (eval cx ~prot (pattern_bind env pat ISet.empty) b))
      in
      (env, ISet.empty)
  | Pexp_letop { let_; ands; body } ->
      let env =
        List.fold_left
          (fun env (op : binding_op) ->
            let env, v = eval cx ~prot env op.pbop_exp in
            pattern_bind env op.pbop_pat v)
          env (let_ :: ands)
      in
      let env_b, v = eval cx ~prot env body in
      (env_join env env_b, v)
  | Pexp_letmodule (_, _, body) | Pexp_open (_, body) | Pexp_lazy body ->
      eval cx ~prot env body
  | Pexp_assert a | Pexp_send (a, _) ->
      let env, _ = eval cx ~prot env a in
      (env, ISet.empty)
  | _ -> (eval_children cx ~prot env e, ISet.empty)

and eval_cases cx ~prot env scrut_v cases =
  let out = ref None in
  let env_out = ref None in
  List.iter
    (fun (c : case) ->
      let env_c = pattern_bind env c.pc_lhs scrut_v in
      let env_c =
        match c.pc_guard with
        | Some g -> fst (eval cx ~prot env_c g)
        | None -> env_c
      in
      let env_c, v = eval cx ~prot env_c c.pc_rhs in
      out := Some (match !out with None -> v | Some o -> ISet.union o v);
      env_out :=
        Some
          (match !env_out with
          | None -> env_c
          | Some eo -> env_join eo env_c))
    cases;
  ( (match !env_out with None -> env | Some eo -> eo),
    match !out with None -> ISet.empty | Some v -> v )

and eval_loop _cx env body =
  let cur = ref env in
  let continue_ = ref true in
  let n = ref 0 in
  while !continue_ && !n < 8 do
    incr n;
    let next = env_join !cur (body !cur) in
    if env_equal next !cur then continue_ := false else cur := next
  done;
  !cur

and eval_children cx ~prot env e =
  let acc = ref env in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ child -> acc := fst (eval cx ~prot !acc child));
    }
  in
  Ast_iterator.default_iterator.expr it e;
  !acc

and global_val cx ~loc lid =
  match cx.x_resolve lid with
  | Callgraph.RNodes ns ->
      let mutable_global =
        List.exists
          (fun n ->
            match Hashtbl.find_opt cx.x_summaries (summary_key n) with
            | Some sm -> sm.sm_topval_mutable
            | None -> false)
          ns
      in
      if mutable_global then
        let g = flatten_lid lid in
        let s =
          intern cx ~key:("g:" ^ g) ~loc ~origin:(OGlobal (g, [])) ~mut:true
            ~own:Shared ()
        in
        ISet.singleton s.s_id
      else ISet.empty
  | _ -> ISet.empty

and eval_apply cx ~prot env loc f args =
  match Typestate.rewrite_pipe f args with
  | Some (g, args') -> (
      match (strip g).pexp_desc with
      | Pexp_apply (g0, gargs) -> eval_apply cx ~prot env loc g0 (gargs @ args')
      | _ -> eval_apply cx ~prot env loc g args')
  | None -> (
      let fs = strip f in
      match fs.pexp_desc with
      | Pexp_ident { txt; _ } -> eval_head cx ~prot env loc txt args
      | _ ->
          let env, _ = eval cx ~prot env fs in
          let env =
            List.fold_left
              (fun env (_, a) -> fst (eval cx ~prot env a))
              env args
          in
          (env, ISet.empty))

and eval_head cx ~prot env loc lid args =
  let name = flatten_lid lid in
  let base = last_comp lid in
  let resolution = cx.x_resolve lid in
  let callee_summary =
    match resolution with
    | Callgraph.RNodes ns -> summary_of cx ns
    | _ -> None
  in
  (* Closures handed to a lock wrapper (or [Mutex.protect]) run under
     the lock. *)
  let arg_prot =
    prot
    || name = "Mutex.protect"
    || SSet.mem base cx.x_wrappers
    || match callee_summary with Some sm -> sm.sm_wrapper | None -> false
  in
  (match callee_summary with
  | Some sm when sm.sm_wrapper -> cx.x_saw_wrapper <- true
  | _ -> ());
  if SSet.mem base cx.x_wrappers || name = "Mutex.protect" then
    cx.x_saw_wrapper <- true;
  (* Evaluate arguments (closures inline under [arg_prot]),
     remembering positional abstract values. *)
  let env = ref env in
  let pos_vals = ref [] in
  let all_vals = ref [] in
  List.iter
    (fun (lbl, a) ->
      let a_prot =
        match (strip a).pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> arg_prot
        | _ -> prot
      in
      let env', v = eval cx ~prot:a_prot !env a in
      env := env';
      all_vals := ((strip a).pexp_loc, v) :: !all_vals;
      match lbl with
      | Asttypes.Nolabel -> pos_vals := (a, v) :: !pos_vals
      | _ -> ())
    args;
  let env = !env in
  let pos = Array.of_list (List.rev !pos_vals) in
  let all_vals = List.rev !all_vals in
  let pos_val i =
    if i >= 0 && i < Array.length pos then snd pos.(i) else ISet.empty
  in
  let pos_expr i =
    if i >= 0 && i < Array.length pos then Some (fst pos.(i)) else None
  in
  (* Snapshot construction — syntactic ([Snapshot.make …]) or resolved
     (same-module [make]/[next]/[root] inside snapshot.ml). *)
  let snap_ctor =
    (List.mem base snap_ctor_names
    && List.mem "Snapshot" (lid_comps lid))
    ||
    match resolution with
    | Callgraph.RNodes ns ->
        List.exists
          (fun n ->
            n.Callgraph.n_mod = "Snapshot"
            && List.mem (last_dot n.Callgraph.n_val) snap_ctor_names)
          ns
    | _ -> false
  in
  if snap_ctor then begin
    event_of cx
      (Ctor
         {
           k_loc = loc;
           k_what = name;
           k_kind = `Snap;
           k_guarded = prot;
           k_args = all_vals;
         });
    let s = alloc_site cx ~loc ~what:name ~snap:true () in
    (env, ISet.singleton s.s_id)
  end
  else if name = ":=" then begin
    let lhs = pos_val 0 and rhs = pos_val 1 in
    set_field cx lhs "contents" rhs;
    escape_into cx ~loc lhs rhs;
    let target =
      ISet.filter
        (fun id ->
          match site_of cx id with
          | Some s -> not (own_equal s.s_own Fresh)
          | None -> false)
        lhs
    in
    if not (ISet.is_empty target) then
      event_of cx (Write { w_loc = loc; w_what = ":="; w_target = target });
    (env, ISet.empty)
  end
  else if name = "Atomic.set" then begin
    let published_field =
      match pos_expr 0 with
      | Some a -> (
          match (strip a).pexp_desc with
          | Pexp_field (_, { txt = flid; _ }) -> last_comp flid = "current"
          | _ -> false)
      | None -> false
    in
    let v = pos_val 1 in
    let publishes_snap =
      ISet.exists
        (fun id ->
          match site_of cx id with Some s -> s.s_snap | None -> false)
        v
    in
    if published_field || publishes_snap then begin
      ISet.iter
        (fun id ->
          match site_of cx id with
          | Some s -> s.s_own <- own_join s.s_own Published
          | None -> ())
        v;
      event_of cx (Publish { p_loc = loc; p_guarded = prot; p_direct = true })
    end;
    (env, ISet.empty)
  end
  else if is_allocator lid then
    (env, ISet.singleton (alloc_site cx ~loc ~what:name ()).s_id)
  else
    match List.assoc_opt name container_mutators with
    | Some idxs ->
        List.iter
          (fun i ->
            let target = pos_val i in
            if not (ISet.is_empty target) then begin
              event_of cx
                (Write { w_loc = loc; w_what = name; w_target = target });
              (* The other arguments are now reachable through the
                 container: an escape when the container is shared. *)
              let stored =
                List.fold_left
                  (fun acc j ->
                    if j = i then acc else ISet.union acc (pos_val j))
                  ISet.empty
                  (List.init (Array.length pos) Fun.id)
              in
              escape_into cx ~loc target stored
            end)
          idxs;
        (env, ISet.empty)
    | None -> (
        match resolution with
        | Callgraph.RNodes ns -> (
            let is_wrapper_callee =
              match callee_summary with
              | Some sm -> sm.sm_wrapper
              | None -> false
            in
            let succ_ctor =
              (not is_wrapper_callee)
              && List.exists
                   (fun n ->
                     n.Callgraph.n_mod <> cx.x_modname
                     && String.starts_with ~prefix:"with_"
                          (last_dot n.Callgraph.n_val))
                   ns
            in
            if succ_ctor then
              event_of cx
                (Ctor
                   {
                     k_loc = loc;
                     k_what = name;
                     k_kind = `Succ;
                     k_guarded = prot;
                     k_args = all_vals;
                   });
            match callee_summary with
            | None -> (env, ISet.empty)
            | Some sm ->
                List.iter
                  (fun (i, path) ->
                    let root = pos_val i in
                    if not (ISet.is_empty root) then
                      let target =
                        ISet.filter
                          (fun id ->
                            match site_of cx id with
                            | Some s -> not (own_equal s.s_own Fresh)
                            | None -> false)
                          (aval_path cx ~loc root path)
                      in
                      if not (ISet.is_empty target) then
                        event_of cx
                          (Call_mut
                             { c_loc = loc; c_callee = name; c_target = target }))
                  sm.sm_mutates;
                if sm.sm_publishes then
                  event_of cx
                    (Publish
                       {
                         p_loc = loc;
                         p_guarded = prot || sm.sm_guarded;
                         p_direct = false;
                       });
                let ret =
                  if sm.sm_ret_fresh then
                    ISet.singleton (alloc_site cx ~loc ~what:name ()).s_id
                  else ISet.empty
                in
                let ret =
                  List.fold_left
                    (fun acc i -> ISet.union acc (pos_val i))
                    ret sm.sm_ret_params
                in
                (env, ret))
        | Callgraph.RExt _ | Callgraph.ROther -> (env, ISet.empty))

(* ---------------------- per-binding analysis ---------------------- *)

type analysis = {
  an_events : event list;  (** in evaluation order, deduplicated *)
  an_ret : aval;
  an_params : string list;
  an_site : int -> site option;
  an_saw_wrapper : bool;
}

let event_key = function
  | Write { w_loc; w_what; _ } -> "w:" ^ loc_key w_loc ^ w_what
  | Call_mut { c_loc; c_callee; _ } -> "c:" ^ loc_key c_loc ^ c_callee
  | Ctor { k_loc; k_what; _ } -> "k:" ^ loc_key k_loc ^ k_what
  | Publish { p_loc; _ } -> "p:" ^ loc_key p_loc
  | Escape { e_loc; e_into; _ } -> "e:" ^ loc_key e_loc ^ e_into

let analyze ~resolve ~summaries ~modname ~wrappers body =
  let params, core = Typestate.peel_params body in
  let cx =
    {
      x_resolve = resolve;
      x_modname = modname;
      x_summaries = summaries;
      x_wrappers = wrappers;
      x_sites = Hashtbl.create 32;
      x_by_id = Hashtbl.create 32;
      x_next = 0;
      x_events = [];
      x_saw_wrapper = false;
    }
  in
  let env =
    List.fold_left
      (fun env p ->
        let s =
          intern cx ~key:("p:" ^ p) ~loc:body.pexp_loc ~origin:(OParam (p, []))
            ~mut:false ~own:Shared ()
        in
        SMap.add p (ISet.singleton s.s_id) env)
      SMap.empty params
  in
  let _, ret = eval cx ~prot:false env core in
  let seen = Hashtbl.create 32 in
  let events =
    List.filter
      (fun ev ->
        let k = event_key ev in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (List.rev cx.x_events)
  in
  {
    an_events = events;
    an_ret = ret;
    an_params = params;
    an_site = site_of cx;
    an_saw_wrapper = cx.x_saw_wrapper;
  }

(* ---------------------- summaries --------------------------------- *)

let summarize ~resolve ~summaries ~modname ~wrappers body =
  let an = analyze ~resolve ~summaries ~modname ~wrappers body in
  let param_idx p =
    let rec go i = function
      | [] -> None
      | q :: _ when q = p -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 an.an_params
  in
  let mutated_params target =
    ISet.fold
      (fun id acc ->
        match an.an_site id with
        | Some { s_origin = OParam (p, path); _ } -> (
            match param_idx p with Some i -> (i, path) :: acc | None -> acc)
        | _ -> acc)
      target []
  in
  let mutates =
    List.concat_map
      (function
        | Write { w_target; _ } -> mutated_params w_target
        | Call_mut { c_target; _ } -> mutated_params c_target
        | _ -> [])
      an.an_events
    |> List.sort_uniq compare
  in
  let ret_sites =
    ISet.fold
      (fun id acc ->
        match an.an_site id with Some s -> s :: acc | None -> acc)
      an.an_ret []
  in
  let ret_fresh =
    ret_sites <> []
    && List.for_all
         (fun s ->
           (match s.s_origin with OAlloc _ -> true | _ -> false)
           && own_equal s.s_own Fresh)
         ret_sites
  in
  let ret_params =
    List.filter_map
      (fun s ->
        match s.s_origin with
        | OParam (p, []) -> param_idx p
        | _ -> None)
      ret_sites
    |> List.sort_uniq compare
  in
  let pubs =
    List.filter_map
      (function Publish { p_guarded; _ } -> Some p_guarded | _ -> None)
      an.an_events
  in
  {
    sm_mutates = List.filteri (fun i _ -> i < 16) mutates;
    sm_ret_fresh = ret_fresh;
    sm_ret_params = ret_params;
    sm_publishes = pubs <> [];
    sm_guarded = List.for_all Fun.id pubs;
    sm_wrapper = Lockset.mentions_mutex body || an.an_saw_wrapper;
    sm_topval_mutable =
      an.an_params = []
      && List.exists
           (fun s ->
             s.s_mutable && match s.s_origin with OAlloc _ -> true | _ -> false)
           ret_sites;
  }

(* ---------------------- whole-program build ----------------------- *)

let path_is_test path =
  let base = Filename.basename path in
  String.starts_with ~prefix:"test" base
  || Filename.dirname path |> Filename.basename |> String.equal "test"

type source_file = {
  af_file : Project.file;
  af_resolve : Longident.t -> Callgraph.resolution;
  af_wrappers : SSet.t;
  af_bindings : (string * expression * Location.t) list;
}

type t = {
  al_files : source_file list;  (** in path order, tests excluded *)
  al_summaries : (string, summary) Hashtbl.t;
  al_rounds : int;  (** rounds [Dataflow.stabilise] actually ran *)
}

let build (cg : Callgraph.t) =
  let resolver = Callgraph.resolver_of cg in
  let proj = cg.Callgraph.cg_project in
  let files =
    List.filter_map
      (fun (f : Project.file) ->
        match (f.Project.kind, f.Project.str) with
        | Project.Impl, Some str when not (path_is_test f.Project.path) ->
            Some
              {
                af_file = f;
                af_resolve = resolver f;
                af_wrappers = Lockset.lock_wrapper_closure str;
                af_bindings = Typestate.top_bindings str;
              }
        | _ -> None)
      proj.Project.files
  in
  let summaries = Hashtbl.create 128 in
  let step () =
    List.iter
      (fun sf ->
        let modname = sf.af_file.Project.modname in
        List.iter
          (fun (name, body, _loc) ->
            Hashtbl.replace summaries (modname ^ "." ^ name)
              (summarize ~resolve:sf.af_resolve ~summaries ~modname
                 ~wrappers:sf.af_wrappers body))
          sf.af_bindings)
      files
  in
  let snapshot () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) summaries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rounds =
    Dataflow.stabilise ~rounds:4 ~equal:( = ) ~snapshot step
  in
  { al_files = files; al_summaries = summaries; al_rounds = rounds }

let analyze_binding (al : t) (sf : source_file) body =
  analyze ~resolve:sf.af_resolve ~summaries:al.al_summaries
    ~modname:sf.af_file.Project.modname ~wrappers:sf.af_wrappers body
