(* domain-unsafe-capture as a lock-set analysis.

   The heuristic ancestor of this rule flagged every mutation of
   externally-bound state inside a closure passed to
   [Parallel.parallel_for]/[map_array]. This version partitions those
   accesses by what actually guards them and reports only the
   genuinely unguarded ones:

   - Mutex-guarded: a [Mutex.lock ...; e] sequence, a [Mutex.protect]
     argument, or a closure passed to a local lock wrapper (any
     binding whose own body takes a [Mutex]) is protected.
   - Disjoint slots: inside a [parallel_for] closure, an array/bytes
     write whose index is exactly one of the closure's own parameters
     hits a distinct cell per iteration — the idiomatic
     [out.(i) <- f i] gather — and cannot race. Only [parallel_for]
     qualifies: a [map_array] closure receives elements, not indices,
     so an index variable there is never the iteration counter.
   - Sequential pools: closures handed to a pool created with
     [Parallel.create ~domains:1] (a literal) never leave the calling
     domain.

   Everything else — [:=], [<-], [incr]/[decr], [Array.set] with a
   computed or shared index — still reports. *)

open Parsetree
open Longident

let rule_id = "domain-unsafe-capture"

module SSet = Set.Make (String)

let strip = Ast_util.strip
let pattern_vars = Ast_util.pattern_vars
let flatten_lid = Ast_util.flatten_lid

type ctx = { file : string; mutable findings : Report.finding list }

let report ctx loc message =
  ctx.findings <- Report.mk ~file:ctx.file loc rule_id message :: ctx.findings

type cenv = {
  bound : SSet.t;  (** names the closure itself binds *)
  idx : SSet.t;  (** parallel_for iteration parameters (disjoint slots) *)
  wrappers : SSet.t;  (** local lock-wrapper binding names *)
  protected : bool;
}

let bind env vars =
  { env with bound = List.fold_left (fun s v -> SSet.add v s) env.bound vars }

let is_apply_of names e =
  match (strip e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      List.exists
        (fun (m, f) ->
          match txt with Ldot (Lident m', f') -> m = m' && f = f' | _ -> false)
        names
  | _ -> false

let is_mutex_lock = is_apply_of [ ("Mutex", "lock") ]

let is_mutex_protect fn =
  match fn.pexp_desc with
  | Pexp_ident { txt = Ldot (Lident "Mutex", "protect"); _ } -> true
  | _ -> false

let check_mut_target ctx env loc lhs kind =
  if not env.protected then
    match (strip lhs).pexp_desc with
    | Pexp_ident { txt = Lident x; _ } when not (SSet.mem x env.bound) ->
        report ctx loc
          (Printf.sprintf
             "%s targets `%s`, bound outside this closure, from inside a \
              Parallel pool body; route it through Atomic (or guard with a \
              Mutex) — concurrent domains race on it"
             kind x)
    | Pexp_ident { txt = Ldot _ as p; _ } ->
        report ctx loc
          (Printf.sprintf
             "%s targets module-level state `%s` from inside a Parallel pool \
              body; route it through Atomic (or guard with a Mutex)"
             kind (flatten_lid p))
    | _ -> ()

(* [out.(i) <- …] where [i] is literally a parameter of the
   parallel_for closure: each iteration owns its slot. *)
let disjoint_slot env args =
  match args with
  | _ :: (_, ix) :: _ -> (
      match (strip ix).pexp_desc with
      | Pexp_ident { txt = Lident x; _ } -> SSet.mem x env.idx
      | _ -> false)
  | _ -> false

let rec walk_closure ctx env e =
  match e.pexp_desc with
  | Pexp_let (rf, vbs, body) ->
      let vars = List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs in
      let env' = bind env vars in
      let benv = match rf with Asttypes.Recursive -> env' | _ -> env in
      List.iter (fun vb -> walk_closure ctx benv vb.pvb_expr) vbs;
      walk_closure ctx env' body
  | Pexp_fun (_, dflt, pat, body) ->
      Option.iter (walk_closure ctx env) dflt;
      walk_closure ctx (bind env (pattern_vars pat)) body
  | Pexp_function cases -> walk_cases ctx env cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk_closure ctx env scrut;
      walk_cases ctx env cases
  | Pexp_for (pat, a, b, _, body) ->
      walk_closure ctx env a;
      walk_closure ctx env b;
      walk_closure ctx (bind env (pattern_vars pat)) body
  | Pexp_sequence (e1, e2) ->
      walk_closure ctx env e1;
      let env2 = if is_mutex_lock e1 then { env with protected = true } else env in
      walk_closure ctx env2 e2
  | Pexp_setfield (tgt, _, v) ->
      check_mut_target ctx env e.pexp_loc tgt "record-field assignment `<-`";
      walk_closure ctx env tgt;
      walk_closure ctx env v
  | Pexp_apply (fn, args) ->
      (match (fn.pexp_desc, args) with
      | Pexp_ident { txt = Lident ":="; _ }, (_, lhs) :: _ ->
          check_mut_target ctx env e.pexp_loc lhs "assignment `:=`"
      | Pexp_ident { txt = Lident (("incr" | "decr") as op); _ }, (_, lhs) :: _
        ->
          check_mut_target ctx env e.pexp_loc lhs ("`" ^ op ^ "` on a ref")
      | ( Pexp_ident
            { txt = Ldot (Lident ("Array" | "Bytes"), ("set" | "unsafe_set")); _ },
          (_, lhs) :: _ ) ->
          if not (disjoint_slot env args) then
            check_mut_target ctx env e.pexp_loc lhs "array-element assignment"
      | _ -> ());
      let lock_wrapped =
        is_mutex_protect fn
        ||
        match fn.pexp_desc with
        | Pexp_ident { txt; _ } ->
            SSet.mem (Ast_util.last_comp txt) env.wrappers
        | _ -> false
      in
      let env' = if lock_wrapped then { env with protected = true } else env in
      walk_closure ctx env' fn;
      List.iter (fun (_, a) -> walk_closure ctx env' a) args
  | _ -> descend ctx env e

and walk_cases ctx env cases =
  List.iter
    (fun c ->
      let env' = bind env (pattern_vars c.pc_lhs) in
      Option.iter (walk_closure ctx env') c.pc_guard;
      walk_closure ctx env' c.pc_rhs)
    cases

and descend ctx env e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ child -> walk_closure ctx env child);
    }
  in
  Ast_iterator.default_iterator.expr it e

(* ---------------------- pre-scans --------------------------------- *)

(* Every let-bound name (any depth) whose rhs is the literal
   [Parallel.create ~domains:1 …]. *)
let seq_pool_names str =
  let acc = ref SSet.empty in
  let from_vbs vbs =
    List.iter
      (fun vb ->
        match pattern_vars vb.pvb_pat with
        | [ v ] when Callgraph.is_seq_pool_create vb.pvb_expr ->
            acc := SSet.add v !acc
        | _ -> ())
      vbs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) -> from_vbs vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          (match item.pstr_desc with
          | Pstr_value (_, vbs) -> from_vbs vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  !acc

let mentions_mutex e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident
              { txt = Ldot (Lident "Mutex", ("lock" | "protect")); _ } ->
              found := true
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* Lock wrappers: bindings (any depth) whose own body takes a Mutex —
   the [with_lock t f] idiom. A closure handed to one runs under its
   lock. Matching is by name at the call site, so a same-named
   unlocked function elsewhere in the file would be over-trusted;
   acceptable for a suppression heuristic. *)
let lock_wrapper_names str =
  let acc = ref SSet.empty in
  let from_vbs vbs =
    List.iter
      (fun vb ->
        match pattern_vars vb.pvb_pat with
        | [ v ] when mentions_mutex vb.pvb_expr -> acc := SSet.add v !acc
        | _ -> ())
      vbs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) -> from_vbs vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          (match item.pstr_desc with
          | Pstr_value (_, vbs) -> from_vbs vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  !acc

(* ---------------------- entry ------------------------------------- *)

let pool_entry_points = [ "parallel_for"; "map_array" ]

let findings ~file str =
  let ctx = { file; findings = [] } in
  let seq_pools = seq_pool_names str in
  let wrappers = lock_wrapper_names str in
  let check_pool_apply fn_txt args =
    let entry =
      match fn_txt with
      | Lident f | Ldot (_, f) when List.mem f pool_entry_points -> Some f
      | _ -> None
    in
    match entry with
    | None -> ()
    | Some f ->
        let seq =
          match
            List.filter_map
              (function Asttypes.Nolabel, a -> Some a | _ -> None)
              args
          with
          | p :: _ -> (
              match (strip p).pexp_desc with
              | Pexp_ident { txt = Lident x; _ } -> SSet.mem x seq_pools
              | _ -> false)
          | [] -> false
        in
        if not seq then
          List.iter
            (fun (_, a) ->
              match (strip a).pexp_desc with
              | Pexp_fun _ | Pexp_function _ ->
                  let params, _ = Typestate.peel_params (strip a) in
                  let idx =
                    if f = "parallel_for" then
                      List.fold_left
                        (fun s v -> SSet.add v s)
                        SSet.empty params
                    else SSet.empty
                  in
                  walk_closure ctx
                    { bound = SSet.empty; idx; wrappers; protected = false }
                    (strip a)
              | _ -> ())
            args
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
              check_pool_apply txt args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  ctx.findings
