(* Whole-program call graph over the untyped AST.

   For every top-level value binding (including bindings inside plain
   nested modules, flattened to ["Sub.f"]) we record the facts the
   interprocedural passes need:

   - resolved references to other project values (the call edges; any
     mention counts, applied or passed higher-order — an
     over-approximation that soundly covers higher-order escapes),
   - unresolved external references (["Hashtbl.find"], matched against
     the known-raising stdlib table),
   - direct raise sites with the exception names masked by enclosing
     [try] handlers.

   Resolution is deliberately conservative and mirrors what dune/OCaml
   actually allow: a module path resolves through local module
   aliases, the current module's submodules, wrapped-library wrapper
   modules ([Iq.Engine.create]), sibling modules of the same library,
   unwrapped libraries, and [open]ed libraries/modules — and only
   through libraries the file's dune stanza depends on. Shadowed
   identifiers resolve to their binder, not the outer value. What the
   analysis cannot name (functor bodies, first-class-module contents,
   aliased-to-opaque modules) is skipped rather than guessed: refs
   collected there are kept for usage counting only
   ([x_usage_only]). *)

open Parsetree
module SSet = Set.Make (String)
module SMap = Map.Make (String)

type node = { n_lib : string; n_mod : string; n_val : string }

let node_str n = n.n_mod ^ "." ^ n.n_val

type xref = {
  x_target : node;
  x_loc : Location.t;
  x_handled : string list;  (** exn names masked by enclosing handlers *)
  x_usage_only : bool;  (** functor/opaque context: count, don't analyze *)
}

type ext = {
  e_path : string;  (** flattened external path, e.g. ["Hashtbl.find"] *)
  e_loc : Location.t;
  e_handled : string list;
}

type raise_site = { r_exn : string; r_loc : Location.t; r_handled : string list }

type fn = {
  f_node : node;
  mutable f_refs : xref list;
  mutable f_exts : ext list;
  mutable f_raises : raise_site list;
}

type export = { ex_node : node; ex_loc : Location.t; ex_file : string }

(* Per module: every value path (with submodule prefixes), every
   submodule path, and the run-wrapper values, from the
   implementation. *)
type mod_names = {
  mn_values : SSet.t;
  mn_submods : SSet.t;
  mn_wrappers : SSet.t;
}

type t = {
  cg_project : Project.t;
  cg_fns : fn list;
  cg_exports : export list;
}

(* ---------------------- pass 1: name tables ----------------------- *)

let rec pat_exns p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> [ "*" ]
  | Ppat_alias (p', _) | Ppat_constraint (p', _) -> pat_exns p'
  | Ppat_or (a, b) -> pat_exns a @ pat_exns b
  | Ppat_construct ({ txt; _ }, _) -> [ Ast_util.last_comp txt ]
  | _ -> []

let handler_names cases =
  List.concat_map
    (fun c -> match c.pc_guard with None -> pat_exns c.pc_lhs | Some _ -> [])
    cases

(* The run-wrapper idiom: [let guard f = try f () with e -> ...] — a
   function whose whole body applies one of its own parameters under a
   catch-all handler. Closure arguments passed to such a wrapper run
   entirely inside its handler, so pass 2 walks them with ["*"]
   masked. Detected syntactically per binding; anything fancier (the
   wrapper also calling the closure outside the [try]) defeats the
   shape check and stays conservative. *)
let is_run_wrapper expr =
  let rec peel params e =
    match (Ast_util.strip e).pexp_desc with
    | Pexp_fun (_, _, pat, body) ->
        peel (Ast_util.pattern_vars pat @ params) body
    | _ -> (params, e)
  in
  let params, body = peel [] expr in
  match (Ast_util.strip body).pexp_desc with
  | Pexp_try (inner, cases) ->
      List.mem "*" (handler_names cases)
      && (
        match (Ast_util.strip inner).pexp_desc with
        | Pexp_apply (f, _) -> (
            match (Ast_util.strip f).pexp_desc with
            | Pexp_ident { txt = Longident.Lident x; _ } -> List.mem x params
            | _ -> false)
        | _ -> false)
  | _ -> false

let rec names_of_structure prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun (vs, ms, gs) vb ->
              let vars = Ast_util.pattern_vars vb.pvb_pat in
              let vs =
                List.fold_left (fun s v -> SSet.add (prefix ^ v) s) vs vars
              in
              let gs =
                match vars with
                | [ v ] when is_run_wrapper vb.pvb_expr ->
                    SSet.add (prefix ^ v) gs
                | _ -> gs
              in
              (vs, ms, gs))
            acc vbs
      | Pstr_primitive vd ->
          let vs, ms, gs = acc in
          (SSet.add (prefix ^ vd.pval_name.txt) vs, ms, gs)
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          let vs, ms, gs = acc in
          let acc = (vs, SSet.add (prefix ^ name) ms, gs) in
          match pmb_expr.pmod_desc with
          | Pmod_structure items' ->
              names_of_structure (prefix ^ name ^ ".") items' acc
          | Pmod_constraint ({ pmod_desc = Pmod_structure items'; _ }, _) ->
              names_of_structure (prefix ^ name ^ ".") items' acc
          | _ -> acc)
      | _ -> acc)
    acc items

let no_names =
  { mn_values = SSet.empty; mn_submods = SSet.empty; mn_wrappers = SSet.empty }

let module_names file =
  match file.Project.str with
  | Some items ->
      let vs, ms, gs =
        names_of_structure "" items (SSet.empty, SSet.empty, SSet.empty)
      in
      { mn_values = vs; mn_submods = ms; mn_wrappers = gs }
  | None -> no_names

(* ---------------------- resolution ------------------------------- *)

type alias = APath of string list | AOpaque

type opened = OLib of string | OMod of string * string  (* lib, module *)

type scope = {
  vals : SSet.t;
  mods : alias SMap.t;
  opens : opened list;
  handled : string list;
  usage_only : bool;
}

type fctx = {
  proj : Project.t;
  file : Project.file;
  names : (string, mod_names) Hashtbl.t;  (* module name -> names *)
  own : mod_names;
  mutable fns : fn list;
  mutable init_count : int;
}

let bind scope vars =
  { scope with vals = List.fold_left (fun s v -> SSet.add v s) scope.vals vars }

let lib_visible fctx lib =
  lib = fctx.file.Project.library
  ||
  match fctx.file.Project.deps with
  | None -> true
  | Some deps -> List.mem lib deps

let mod_values fctx m =
  match Hashtbl.find_opt fctx.names m with
  | Some n -> n.mn_values
  | None -> SSet.empty

type mres =
  | RMod of string * string * string list  (* lib, module, subpath *)
  | RExtM
  | RUnknownM

let rec resolve_mods fctx scope depth comps =
  if depth > 8 then RUnknownM
  else
    match comps with
    | [] ->
        RMod (fctx.file.Project.library, fctx.file.Project.modname, [])
    | a :: rest -> (
        match SMap.find_opt a scope.mods with
        | Some (APath p) -> resolve_mods fctx scope (depth + 1) (p @ rest)
        | Some AOpaque -> RUnknownM
        | None ->
            if SSet.mem a fctx.own.mn_submods then
              RMod (fctx.file.Project.library, fctx.file.Project.modname,
                    a :: rest)
            else
              let proj = fctx.proj in
              let wrapper_lib =
                match Hashtbl.find_opt proj.Project.wrappers a with
                | Some l when lib_visible fctx l -> Some l
                | _ -> None
              in
              (match wrapper_lib with
              | Some l -> (
                  match rest with
                  | [] ->
                      if Project.lib_has_module proj l a then RMod (l, a, [])
                      else RUnknownM
                  | b :: r2 ->
                      if Project.lib_has_module proj l b then RMod (l, b, r2)
                      else if Project.lib_has_module proj l a then
                        RMod (l, a, rest)
                      else RUnknownM)
              | None ->
                  if
                    Project.lib_has_module proj fctx.file.Project.library a
                    && a <> fctx.file.Project.modname
                  then RMod (fctx.file.Project.library, a, rest)
                  else
                    match Hashtbl.find_opt proj.Project.unwrapped a with
                    | Some l when lib_visible fctx l -> RMod (l, a, rest)
                    | _ -> (
                        let via_open =
                          List.find_map
                            (function
                              | OLib l
                                when Project.lib_has_module proj l a ->
                                  Some (RMod (l, a, rest))
                              | _ -> None)
                            scope.opens
                        in
                        match via_open with
                        | Some r -> r
                        | None -> RExtM)))

type vres = VLocal | VNodes of node list | VExt of string | VUnknown

let resolve_value fctx scope lid =
  let comps = Ast_util.lid_comps lid in
  match List.rev comps with
  | [] -> VUnknown
  | v :: rev_mods -> (
      let mods = List.rev rev_mods in
      if mods = [] then
        if SSet.mem v scope.vals then VLocal
        else if SSet.mem v fctx.own.mn_values then
          VNodes
            [
              {
                n_lib = fctx.file.Project.library;
                n_mod = fctx.file.Project.modname;
                n_val = v;
              };
            ]
        else
          let cands =
            List.filter_map
              (function
                | OMod (l, m) when SSet.mem v (mod_values fctx m) ->
                    Some { n_lib = l; n_mod = m; n_val = v }
                | _ -> None)
              scope.opens
          in
          if cands <> [] then VNodes cands else VExt v
      else
        match resolve_mods fctx scope 0 mods with
        | RMod (l, m, sub) ->
            VNodes
              [ { n_lib = l; n_mod = m; n_val = String.concat "." (sub @ [ v ]) } ]
        | RExtM -> VExt (String.concat "." comps)
        | RUnknownM -> VUnknown)

let open_of_lid fctx scope lid =
  let comps = Ast_util.lid_comps lid in
  match comps with
  | [ a ] when Hashtbl.mem fctx.proj.Project.wrappers a -> (
      match Hashtbl.find_opt fctx.proj.Project.wrappers a with
      | Some l when lib_visible fctx l ->
          (* [open Geom]: the library's modules become bare-visible. If
             the library also has a module named like the wrapper
             (single-module libraries), its values do too. *)
          Some
            (OLib l
            ::
            (if Project.lib_has_module fctx.proj l a then [ OMod (l, a) ]
             else []))
      | _ -> None)
  | _ -> (
      match resolve_mods fctx scope 0 comps with
      | RMod (l, m, []) -> Some [ OMod (l, m) ]
      | _ -> None)

(* ---------------------- pass 2: fact extraction ------------------- *)

let exn_of_expr e =
  match (Ast_util.strip e).pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> Ast_util.last_comp txt
  | _ -> "*"

let add_raise fn scope exn loc =
  if not scope.usage_only then
    fn.f_raises <- { r_exn = exn; r_loc = loc; r_handled = scope.handled }
                   :: fn.f_raises

let record_ref fctx fn scope lid loc =
  match resolve_value fctx scope lid with
  | VLocal | VUnknown -> ()
  | VNodes nodes ->
      List.iter
        (fun n ->
          fn.f_refs <-
            {
              x_target = n;
              x_loc = loc;
              x_handled = scope.handled;
              x_usage_only = scope.usage_only;
            }
            :: fn.f_refs)
        nodes
  | VExt path ->
      fn.f_exts <-
        { e_path = path; e_loc = loc; e_handled = scope.handled } :: fn.f_exts

let rec walk fctx fn scope e =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> record_ref fctx fn scope txt loc
  | Pexp_let (rf, vbs, body) ->
      let vars =
        List.concat_map (fun vb -> Ast_util.pattern_vars vb.pvb_pat) vbs
      in
      let scope' = bind scope vars in
      let bscope = match rf with Asttypes.Recursive -> scope' | _ -> scope in
      List.iter (fun vb -> walk fctx fn bscope vb.pvb_expr) vbs;
      walk fctx fn scope' body
  | Pexp_fun (_, dflt, pat, body) ->
      Option.iter (walk fctx fn scope) dflt;
      walk fctx fn (bind scope (Ast_util.pattern_vars pat)) body
  | Pexp_function cases -> walk_cases fctx fn scope cases
  | Pexp_match (scrut, cases) ->
      walk fctx fn scope scrut;
      walk_cases fctx fn scope cases
  | Pexp_try (body, cases) ->
      let names = handler_names cases in
      walk fctx fn { scope with handled = names @ scope.handled } body;
      walk_cases fctx fn scope cases
  | Pexp_for (pat, a, b, _, body) ->
      walk fctx fn scope a;
      walk fctx fn scope b;
      walk fctx fn (bind scope (Ast_util.pattern_vars pat)) body
  | Pexp_assert e' -> (
      match (Ast_util.strip e').pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
          add_raise fn scope "Assert_failure" e.pexp_loc
      | _ -> walk fctx fn scope e')
  | Pexp_apply (f, args) -> walk_apply fctx fn scope e f args
  | Pexp_letmodule ({ txt = name; _ }, mexpr, body) ->
      let al =
        match mexpr.pmod_desc with
        | Pmod_ident { txt; _ } -> APath (Ast_util.lid_comps txt)
        | _ -> AOpaque
      in
      walk_mexpr fctx fn scope mexpr;
      let scope' =
        match name with
        | Some n -> { scope with mods = SMap.add n al scope.mods }
        | None -> scope
      in
      walk fctx fn scope' body
  | Pexp_open (od, body) ->
      let scope' =
        match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> (
            match open_of_lid fctx scope txt with
            | Some os -> { scope with opens = os @ scope.opens }
            | None -> scope)
        | _ ->
            walk_mexpr fctx fn scope od.popen_expr;
            scope
      in
      walk fctx fn scope' body
  | Pexp_letop { let_; ands; body; _ } ->
      let ops = let_ :: ands in
      List.iter
        (fun b ->
          record_ref fctx fn scope (Longident.Lident b.pbop_op.txt)
            b.pbop_op.loc;
          walk fctx fn scope b.pbop_exp)
        ops;
      let vars = List.concat_map (fun b -> Ast_util.pattern_vars b.pbop_pat) ops in
      walk fctx fn (bind scope vars) body
  | Pexp_pack mexpr -> walk_mexpr fctx fn scope mexpr
  | _ -> descend fctx fn scope e

and walk_cases fctx fn scope cases =
  List.iter
    (fun c ->
      let scope' = bind scope (Ast_util.pattern_vars c.pc_lhs) in
      Option.iter (walk fctx fn scope') c.pc_guard;
      walk fctx fn scope' c.pc_rhs)
    cases

and walk_apply fctx fn scope e f args =
  let fs = Ast_util.strip f in
  match fs.pexp_desc with
  | Pexp_ident { txt; loc } -> (
      let comps = Ast_util.lid_comps txt in
      let walk_args scope = List.iter (fun (_, a) -> walk fctx fn scope a) args in
      (* [g @@ x] and [x |> g] are applications of [@@]/[|>] in the
         AST; rewrite them so [g] is resolved (and its closure args get
         wrapper treatment), merging into an enclosing partial
         application when [g] is itself an apply node. *)
      let reapply f' x =
        match (Ast_util.strip f').pexp_desc with
        | Pexp_apply (g, gargs) ->
            walk_apply fctx fn scope e g (gargs @ [ (Asttypes.Nolabel, x) ])
        | _ -> walk_apply fctx fn scope e f' [ (Asttypes.Nolabel, x) ]
      in
      match (comps, args) with
      | [ "@@" ], [ (_, f'); (_, x) ] -> reapply f' x
      | [ "|>" ], [ (_, x); (_, f') ] -> reapply f' x
      | ([ "raise" ] | [ "raise_notrace" ] | [ "Stdlib"; "raise" ]
        | [ "Stdlib"; "raise_notrace" ]), (_, arg) :: _ ->
          add_raise fn scope (exn_of_expr arg) e.pexp_loc;
          walk_args scope
      | ([ "failwith" ] | [ "Stdlib"; "failwith" ]), _ ->
          add_raise fn scope "Failure" e.pexp_loc;
          walk_args scope
      | ([ "invalid_arg" ] | [ "Stdlib"; "invalid_arg" ]), _ ->
          add_raise fn scope "Invalid_argument" e.pexp_loc;
          walk_args scope
      | _ ->
          record_ref fctx fn scope txt loc;
          (* Closures handed to a run-wrapper ([let guard f = try f ()
             with ...]) execute under its catch-all handler. *)
          let wrapper =
            match resolve_value fctx scope txt with
            | VNodes nodes ->
                List.exists
                  (fun n ->
                    match Hashtbl.find_opt fctx.names n.n_mod with
                    | Some m -> SSet.mem n.n_val m.mn_wrappers
                    | None -> false)
                  nodes
            | _ -> false
          in
          List.iter
            (fun (_, a) ->
              let closure =
                match (Ast_util.strip a).pexp_desc with
                | Pexp_fun _ | Pexp_function _ -> true
                | _ -> false
              in
              let scope' =
                if wrapper && closure then
                  { scope with handled = "*" :: scope.handled }
                else scope
              in
              walk fctx fn scope' a)
            args)
  | _ ->
      walk fctx fn scope f;
      List.iter (fun (_, a) -> walk fctx fn scope a) args

(* Module expressions inside function bodies / structures. Functor
   bodies and functor applications are walked in usage-only mode:
   their refs count for dead-export, but no exception facts are
   drawn from them (conservative skip). *)
and walk_mexpr fctx fn scope me =
  match me.pmod_desc with
  | Pmod_structure items ->
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter (fun vb -> walk fctx fn scope vb.pvb_expr) vbs
          | Pstr_eval (e, _) -> walk fctx fn scope e
          | Pstr_module { pmb_expr; _ } -> walk_mexpr fctx fn scope pmb_expr
          | Pstr_include { pincl_mod; _ } -> walk_mexpr fctx fn scope pincl_mod
          | _ -> ())
        items
  | Pmod_functor (_, body) ->
      walk_mexpr fctx fn { scope with usage_only = true } body
  | Pmod_apply (a, b) ->
      let scope' = { scope with usage_only = true } in
      walk_mexpr fctx fn scope' a;
      walk_mexpr fctx fn scope' b
  | Pmod_apply_unit a ->
      walk_mexpr fctx fn { scope with usage_only = true } a
  | Pmod_constraint (m, _) -> walk_mexpr fctx fn scope m
  | Pmod_unpack e -> walk fctx fn scope e
  | Pmod_ident _ | Pmod_extension _ -> ()

and descend fctx fn scope e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ child -> walk fctx fn scope child);
    }
  in
  Ast_iterator.default_iterator.expr it e

(* ---------------------- structure traversal ----------------------- *)

let new_fn fctx name =
  let fn =
    {
      f_node =
        {
          n_lib = fctx.file.Project.library;
          n_mod = fctx.file.Project.modname;
          n_val = name;
        };
      f_refs = [];
      f_exts = [];
      f_raises = [];
    }
  in
  fctx.fns <- fn :: fctx.fns;
  fn

let clone_as fctx fn name =
  fctx.fns <- { fn with f_node = { fn.f_node with n_val = name } } :: fctx.fns

let rec walk_structure fctx base prefix items =
  List.fold_left
    (fun base item ->
      (match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let vars = Ast_util.pattern_vars vb.pvb_pat in
              let primary, rest =
                match vars with
                | [] ->
                    fctx.init_count <- fctx.init_count + 1;
                    (Printf.sprintf "(init-%d)" fctx.init_count, [])
                | v :: rest -> (v, rest)
              in
              let fn = new_fn fctx (prefix ^ primary) in
              walk fctx fn base vb.pvb_expr;
              List.iter (fun v -> clone_as fctx fn (prefix ^ v)) rest)
            vbs
      | Pstr_eval (e, _) ->
          fctx.init_count <- fctx.init_count + 1;
          let fn =
            new_fn fctx (Printf.sprintf "%s(init-%d)" prefix fctx.init_count)
          in
          walk fctx fn base e
      | Pstr_module { pmb_name = { txt = name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure items'
          | Pmod_constraint ({ pmod_desc = Pmod_structure items'; _ }, _) -> (
              match name with
              | Some n -> ignore (walk_structure fctx base (prefix ^ n ^ ".") items')
              | None -> ())
          | _ ->
              let fn =
                new_fn fctx
                  (prefix
                  ^ Printf.sprintf "(module-%s)" (Option.value name ~default:"_"))
              in
              walk_mexpr fctx fn base pmb_expr)
      | Pstr_include { pincl_mod; _ } ->
          let fn = new_fn fctx (prefix ^ "(include)") in
          walk_mexpr fctx fn base pincl_mod
      | _ -> ());
      (* Structure-level opens and module aliases scope over the items
         that follow them. *)
      match item.pstr_desc with
      | Pstr_open od -> (
          match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match open_of_lid fctx base txt with
              | Some os -> { base with opens = os @ base.opens }
              | None -> base)
          | _ -> base)
      | Pstr_module
          { pmb_name = { txt = Some n; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _
          } ->
          { base with mods = SMap.add n (APath (Ast_util.lid_comps txt)) base.mods }
      | _ -> base)
    base items
  |> ignore;
  ()

(* ---------------------- exports (.mli) --------------------------- *)

let rec exports_of_sig file prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.psig_desc with
      | Psig_value vd ->
          {
            ex_node =
              {
                n_lib = file.Project.library;
                n_mod = file.Project.modname;
                n_val = prefix ^ vd.pval_name.txt;
              };
            ex_loc = vd.pval_name.loc;
            ex_file = file.Project.path;
          }
          :: acc
      | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ } -> (
          match pmd_type.pmty_desc with
          | Pmty_signature items' ->
              exports_of_sig file (prefix ^ name ^ ".") items' acc
          | _ -> acc)
      | _ -> acc)
    acc items

(* ---------------------- build ------------------------------------- *)

let build (proj : Project.t) =
  let names = Hashtbl.create 64 in
  List.iter
    (fun f ->
      if f.Project.kind = Project.Impl then
        Hashtbl.replace names f.Project.modname (module_names f))
    proj.Project.files;
  let impls =
    List.filter (fun f -> f.Project.kind = Project.Impl && f.Project.str <> None)
      proj.Project.files
  in
  let extract (file : Project.file) =
    let fctx =
      {
        proj;
        file;
        names;
        own =
          Option.value
            (Hashtbl.find_opt names file.Project.modname)
            ~default:no_names;
        fns = [];
        init_count = 0;
      }
    in
    let base =
      {
        vals = SSet.empty;
        mods = SMap.empty;
        opens = [];
        handled = [];
        usage_only = false;
      }
    in
    (match file.Project.str with
    | Some items -> walk_structure fctx base "" items
    | None -> ());
    List.rev fctx.fns
  in
  let fns = List.concat_map extract impls in
  let exports =
    List.fold_left
      (fun acc f ->
        match (f.Project.kind, f.Project.sg) with
        | Project.Intf, Some items -> exports_of_sig f "" items acc
        | _ -> acc)
      [] proj.Project.files
    |> List.rev
  in
  { cg_project = proj; cg_fns = fns; cg_exports = exports }
