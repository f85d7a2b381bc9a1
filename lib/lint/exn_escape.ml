(* Interprocedural exception-escape analysis.

   For each call-graph node we compute the set of exception names that
   may escape it: direct [raise]/[failwith]/[invalid_arg]/[assert
   false] sites, known-raising stdlib calls, and everything escaping
   from callees — minus whatever an enclosing [try] handler at the
   call/raise site catches. ["*"] stands for "some exception we cannot
   name" ([raise e] on a variable); it is only masked by a catch-all
   handler, while a named exception is masked by either its own
   handler or a catch-all.

   Each escaping exception carries an origin — the direct raise
   location or the callee it came through — so findings can print a
   witness chain down to the actual raise site.

   Deliberately NOT modeled (see DESIGN.md): out-of-bounds indexing
   ([a.(i)], [String.get]) and arithmetic ([Division_by_zero]) — the
   per-file [partial-function] rule owns unsafe accessors, and flagging
   every array index would drown the signal. *)

module SMap = Map.Make (String)

type origin = Direct of Location.t | Via of Callgraph.node

type t = (Callgraph.node, origin SMap.t) Hashtbl.t

(* Stdlib entry points that raise as part of their contract. Paths are
   matched after stripping a leading "Stdlib.". *)
let raising_externals =
  [
    ("List.hd", "Failure"); ("List.tl", "Failure"); ("List.nth", "Failure");
    ("List.find", "Not_found"); ("List.assoc", "Not_found");
    ("Hashtbl.find", "Not_found"); ("Option.get", "Invalid_argument");
    ("Sys.getenv", "Not_found"); ("int_of_string", "Failure");
    ("float_of_string", "Failure"); ("bool_of_string", "Invalid_argument");
    ("open_in", "Sys_error"); ("open_in_bin", "Sys_error");
    ("open_out", "Sys_error"); ("open_out_bin", "Sys_error");
    ("input_line", "End_of_file"); ("really_input_string", "End_of_file");
    ("Queue.pop", "Empty"); ("Queue.take", "Empty"); ("Queue.peek", "Empty");
    ("Stack.pop", "Empty"); ("Stack.top", "Empty");
    ("String.index", "Not_found"); ("String.rindex", "Not_found");
    ("Filename.temp_file", "Sys_error");
  ]

let ext_raises path =
  let path =
    match String.length path > 7 && String.sub path 0 7 = "Stdlib." with
    | true -> String.sub path 7 (String.length path - 7)
    | false -> path
  in
  match List.assoc_opt path raising_externals with
  | Some e -> Some e
  | None ->
      (* Any project-external [M.find] follows the stdlib convention. *)
      if
        String.length path > 5
        && String.sub path (String.length path - 5) 5 = ".find"
      then Some "Not_found"
      else None

let masked handled exn =
  List.mem "*" handled || (exn <> "*" && List.mem exn handled)

let escapes (t : t) node =
  Option.value (Hashtbl.find_opt t node) ~default:SMap.empty

let build (cg : Callgraph.t) : t =
  let tbl : t = Hashtbl.create 256 in
  let add node exn origin =
    let m = escapes tbl node in
    if not (SMap.mem exn m) then begin
      Hashtbl.replace tbl node (SMap.add exn origin m);
      true
    end
    else false
  in
  (* Seed with each node's own raise sites and raising externals. *)
  List.iter
    (fun (fn : Callgraph.fn) ->
      List.iter
        (fun (r : Callgraph.raise_site) ->
          if not (masked r.Callgraph.r_handled r.Callgraph.r_exn) then
            ignore (add fn.Callgraph.f_node r.Callgraph.r_exn
                      (Direct r.Callgraph.r_loc)))
        fn.Callgraph.f_raises;
      List.iter
        (fun (e : Callgraph.ext) ->
          match ext_raises e.Callgraph.e_path with
          | Some exn when not (masked e.Callgraph.e_handled exn) ->
              ignore (add fn.Callgraph.f_node exn (Direct e.Callgraph.e_loc))
          | _ -> ())
        fn.Callgraph.f_exts)
    cg.Callgraph.cg_fns;
  (* Propagate through call edges to a fixpoint; mutual recursion is
     fine because the per-node sets only grow. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fn : Callgraph.fn) ->
        List.iter
          (fun (x : Callgraph.xref) ->
            if not x.Callgraph.x_usage_only then
              SMap.iter
                (fun exn _ ->
                  if not (masked x.Callgraph.x_handled exn) then
                    if add fn.Callgraph.f_node exn (Via x.Callgraph.x_target)
                    then changed := true)
                (escapes tbl x.Callgraph.x_target))
          fn.Callgraph.f_refs)
      cg.Callgraph.cg_fns
  done;
  tbl

(* Follow [Via] links from [node] along [exn] down to a [Direct] raise
   site, rendering "Engine.min_cost -> Min_cost.search (raises
   Invalid_argument at file:line)". Cycle-guarded: mutual recursion can
   make the origin chain loop. *)
let witness (t : t) node exn =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Callgraph.node_str node);
  let rec follow node seen =
    match SMap.find_opt exn (escapes t node) with
    | Some (Direct loc) ->
        Buffer.add_string buf
          (Printf.sprintf " (raises %s at %s)" exn (Ast_util.loc_str loc))
    | Some (Via next) ->
        if List.mem next seen then ()
        else begin
          Buffer.add_string buf (" -> " ^ Callgraph.node_str next);
          follow next (next :: seen)
        end
    | None -> ()
  in
  follow node [ node ];
  Buffer.contents buf

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* [engine-boundary-raise]: every value exported from the serving
   boundary — module "Engine" and its resilience substrate
   "Resilience" — must not raise; the facade promises typed [Error.t]
   (resp. [result]/[trip option]) returns. Values spelled [*_exn] opt
   out by naming convention, as does [Fault.point], whose entire job
   is raising the injected fault for the engine to catch. *)
let boundary_modules = [ "Engine"; "Resilience" ]
let boundary_exempt = [ "point" ]

let engine_boundary_findings (cg : Callgraph.t) (t : t) =
  List.filter_map
    (fun (ex : Callgraph.export) ->
      if not (List.mem ex.Callgraph.ex_node.Callgraph.n_mod boundary_modules)
      then None
      else if
        has_suffix ~suffix:"_exn" ex.Callgraph.ex_node.Callgraph.n_val
        || List.exists
             (fun exempt ->
               ex.Callgraph.ex_node.Callgraph.n_val = exempt
               || has_suffix ~suffix:("." ^ exempt)
                    ex.Callgraph.ex_node.Callgraph.n_val)
             boundary_exempt
      then None
      else
        let esc = escapes t ex.Callgraph.ex_node in
        match SMap.bindings esc |> List.map fst with
        | [] -> None
        | first :: _ as exns ->
            let shown =
              match exns with
              | a :: b :: c :: _ :: _ -> [ a; b; c; "..." ]
              | l -> l
            in
            Some
              (Report.mk ~file:ex.Callgraph.ex_file ex.Callgraph.ex_loc
                 "engine-boundary-raise"
                 (Printf.sprintf
                    "exported %s entry point `%s` can raise %s instead of \
                     returning a typed result: %s"
                    ex.Callgraph.ex_node.Callgraph.n_mod
                    ex.Callgraph.ex_node.Callgraph.n_val
                    (String.concat ", " shown)
                    (witness t ex.Callgraph.ex_node first))))
    cg.Callgraph.cg_exports

(* [dead-export]: a [.mli] value of a dune library never referenced
   from any other module. Intra-library cross-module references count
   as uses — dune compiles library modules against each other's
   [.mli]s, so an export consumed by a sibling module is load-bearing
   even if no other library sees it. *)
let dead_export_findings (cg : Callgraph.t) =
  let used = Hashtbl.create 256 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      List.iter
        (fun (x : Callgraph.xref) ->
          if x.Callgraph.x_target.Callgraph.n_mod
             <> fn.Callgraph.f_node.Callgraph.n_mod
          then
            Hashtbl.replace used
              (Callgraph.node_str x.Callgraph.x_target) ())
        fn.Callgraph.f_refs)
    cg.Callgraph.cg_fns;
  List.filter_map
    (fun (ex : Callgraph.export) ->
      let is_lib =
        List.exists
          (fun f -> f.Project.path = ex.Callgraph.ex_file && f.Project.is_library)
          cg.Callgraph.cg_project.Project.files
      in
      if (not is_lib)
         || Hashtbl.mem used (Callgraph.node_str ex.Callgraph.ex_node)
      then None
      else
        Some
          (Report.mk ~file:ex.Callgraph.ex_file ex.Callgraph.ex_loc
             "dead-export"
             (Printf.sprintf
                "`%s` is exported by %s but never referenced outside module \
                 %s (delete the export or the value, or annotate why it must \
                 stay)"
                ex.Callgraph.ex_node.Callgraph.n_val
                (Filename.basename ex.Callgraph.ex_file)
                ex.Callgraph.ex_node.Callgraph.n_mod)))
    cg.Callgraph.cg_exports
