(* iqlint — static analysis for the improvement-queries tree.

   Two layers share one finding type ({!Report.finding}):

   - per-file rules: parse one .ml with the compiler's own parser
     (compiler-libs.common, no opam deps beyond the toolchain) and walk
     the untyped AST with an [Ast_iterator];
   - whole-program rules: load every source under the given paths into
     a {!Project}, build a cross-module {!Callgraph}, and run the
     {!Exn_escape} interprocedural passes.

   Findings print as [file:line:col [rule-id] message]; a finding is
   suppressed by a pragma comment
   [(* iqlint: allow <rule-id> *)] on the same line or the line
   directly above. See DESIGN.md "Whole-program lint" for the
   invariant each rule protects and the approximations the call graph
   makes. *)

open Parsetree
open Longident

type finding = Report.finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let compare_finding = Report.compare_finding
let pp_finding = Report.pp_finding

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

let rule_float = "float-exact-compare"
let rule_partial = "partial-function"
let rule_catch_all = "catch-all-handler"
let rule_escape = "forbidden-escape"
let rule_parse_error = "parse-error"
let rule_engine_boundary = "engine-boundary-raise"
let rule_dead_export = "dead-export"
let rule_lifecycle = Lifecycle.rule_id

let all_rules =
  [
    ( rule_float,
      "exact =/<>/compare/min/max where an operand is a float literal or a \
       known float-returning primitive" );
    ( rule_partial,
      "partial stdlib function (List.hd, List.nth, Option.get, Hashtbl.find, \
       Array.unsafe_get); use the _opt/checked variant" );
    (rule_catch_all, "try ... with _ -> swallowing all exceptions (non-test code)");
    (rule_escape, "Obj.magic or assert false in non-test code");
    ( rule_engine_boundary,
      "Engine .mli entry point whose implementation can raise instead of \
       returning an Error.t result (values named *_exn are exempt)" );
    ( rule_dead_export,
      ".mli value of a dune library never referenced outside its own module" );
    ( rule_lifecycle,
      "pool/channel lifecycle: use after close/shutdown, double close, \
       handle never closed, or a non-bracketed close that leaks on the \
       exception path" );
  ]

(* Minimal firing example per rule, shown by [--explain]. Each is the
   smallest program shape the rule reports on — the fixture suite
   keeps a firing variant of each of these, so the examples cannot
   silently rot. *)
let rule_examples =
  [
    (rule_float, "if score = 0.1 then accept ()");
    (rule_partial, "let first = List.hd items");
    (rule_catch_all, "try step () with _ -> ()");
    (rule_escape, "let cast (x : int) : float = Obj.magic x");
    ( rule_parse_error,
      "let broken = (   (* unterminated: the file no longer parses *)" );
    ( rule_engine_boundary,
      "(* engine.mli *) val lookup : t -> string -> entry\n\
       (* engine.ml  *) let lookup t k = Hashtbl.find t.tbl k  (* raises *)" );
    ( rule_dead_export,
      "(* foo.mli *) val helper : unit -> int\n\
       (* no module outside Foo ever references Foo.helper *)" );
    ( rule_lifecycle,
      "let run () =\n\
      \  let p = Pool.create () in\n\
      \  work p; Pool.shutdown p; Pool.shutdown p  (* double shutdown *)" );
  ]

let explain out id =
  match List.assoc_opt id all_rules with
  | None -> false
  | Some doc ->
      Format.fprintf out "%s@.  %s@." id doc;
      (match List.assoc_opt id rule_examples with
      | None -> ()
      | Some ex ->
          Format.fprintf out "@.  example (fires):@.";
          String.split_on_char '\n' ex
          |> List.iter (fun l -> Format.fprintf out "    %s@." l));
      Format.fprintf out
        "@.  suppress with `(* iqlint: allow %s *)` on the finding line or \
         the@.  line directly above it (attributes between them are \
         transparent).@."
        id;
      true

type ctx = {
  file : string;
  in_test : bool;
  enabled : string -> bool;
  mutable findings : finding list;
}

let report ctx (loc : Location.t) rule message =
  if ctx.enabled rule then
    ctx.findings <- Report.mk ~file:ctx.file loc rule message :: ctx.findings

(* ---------------------- small AST helpers ------------------------- *)

let strip = Ast_util.strip

(* ---------------------- float-exact-compare ----------------------- *)

let is_op_char c = String.contains "!$%&*+-./:<=>?@^|~" c

(* Operators spelled with a '.' ([+.], [-.], [*.], [/.], [~-.]) plus
   [**] are the float arithmetic primitives. *)
let is_float_op op =
  op = "**"
  || (String.length op > 1
     && String.contains op '.'
     && String.for_all is_op_char op)

let float_prims =
  [
    "sqrt"; "exp"; "log"; "log10"; "log1p"; "expm1"; "abs_float";
    "float_of_int"; "float_of_string"; "atan"; "atan2"; "acos"; "asin";
    "cos"; "sin"; "tan"; "cosh"; "sinh"; "tanh"; "ceil"; "floor";
    "mod_float"; "copysign"; "hypot"; "ldexp";
  ]

let float_consts =
  [ "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float"; "min_float" ]

let float_module_fns =
  [
    "of_int"; "of_string"; "abs"; "neg"; "add"; "sub"; "mul"; "div"; "rem";
    "pow"; "sqrt"; "cbrt"; "exp"; "exp2"; "log"; "log2"; "log10"; "log1p";
    "expm1"; "min"; "max"; "round"; "trunc"; "succ"; "pred"; "copy_sign";
    "fma"; "hypot"; "atan2"; "ldexp"; "pi"; "nan"; "infinity";
  ]

(* Project-local float-returning primitives worth recognising. *)
let vec_float_fns =
  [ "norm"; "norm2"; "dot"; "l1_norm"; "linf_norm"; "dist"; "dist2"; "get" ]

let is_float_returning_fn fn =
  match fn.pexp_desc with
  | Pexp_ident { txt = Lident op; _ } when is_float_op op -> true
  | Pexp_ident { txt = Lident name; _ } -> List.mem name float_prims
  | Pexp_ident { txt = Ldot (Lident "Float", name); _ } ->
      List.mem name float_module_fns
  | Pexp_ident { txt = Ldot (Lident "Vec", name); _ }
  | Pexp_ident { txt = Ldot (Ldot (Lident "Geom", "Vec"), name); _ } ->
      List.mem name vec_float_fns
  | _ -> false

let is_floaty e =
  let e = strip e in
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Lident name; _ } -> List.mem name float_consts
  | Pexp_ident { txt = Ldot (Lident "Float", ("pi" | "nan" | "infinity")); _ }
    ->
      true
  | Pexp_apply (fn, _) -> is_float_returning_fn fn
  | _ -> false

let check_float_compare ctx fn_txt fn_loc args =
  let op =
    match fn_txt with
    | Lident (("=" | "<>" | "compare" | "min" | "max") as op) -> Some op
    | Ldot (Lident "Stdlib", (("compare" | "min" | "max") as op)) -> Some op
    | _ -> None
  in
  match op with
  | Some op when List.exists (fun (_, a) -> is_floaty a) args ->
      let hint =
        match op with
        | "=" | "<>" | "compare" ->
            "use an epsilon comparison (Geom.Fp.equal / Geom.Fp.is_zero or \
             Vec.equal)"
        | _ -> "use Float.min / Float.max (NaN-aware, monomorphic)"
      in
      report ctx fn_loc rule_float
        (Printf.sprintf
           "exact float comparison `%s` on a float operand is \
            precision-fragile; %s"
           op hint)
  | _ -> ()

(* ---------------------- partial-function -------------------------- *)

let partial_fns =
  [
    (("List", "hd"), "match on the list or keep a non-empty invariant nearby");
    (("List", "tl"), "match on the list or keep a non-empty invariant nearby");
    (("List", "nth"), "use List.nth_opt");
    (("Option", "get"), "match on the option or use Option.value");
    (("Hashtbl", "find"), "use Hashtbl.find_opt");
    (("Array", "unsafe_get"), "use Array.get / a.(i) (bounds-checked)");
  ]

let check_partial ctx loc txt =
  match txt with
  | Ldot (Lident m, f) -> (
      match List.assoc_opt (m, f) partial_fns with
      | Some hint ->
          report ctx loc rule_partial
            (Printf.sprintf "%s.%s raises on missing input; %s" m f hint)
      | None -> ())
  | _ -> ()

(* ---------------------- forbidden-escape -------------------------- *)

let check_escape_ident ctx loc txt =
  if not ctx.in_test then
    match txt with
    | Ldot (Lident "Obj", "magic") ->
        report ctx loc rule_escape
          "Obj.magic defeats the type system; restructure the types instead"
    | _ -> ()

let check_assert_false ctx e =
  if not ctx.in_test then
    match e.pexp_desc with
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
        report ctx e.pexp_loc rule_escape
          "assert false in library code; raise a descriptive exception or \
           make the state unrepresentable"
    | _ -> ()

(* ---------------------- catch-all-handler ------------------------- *)

let check_try ctx e =
  if not ctx.in_test then
    match e.pexp_desc with
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
                report ctx c.pc_lhs.ppat_loc rule_catch_all
                  "`with _ ->` swallows every exception (including \
                   Out_of_memory and Stack_overflow); match the specific \
                   exceptions expected here"
            | _ -> ())
          cases
    | _ -> ()

(* ---------------------- per-file driver --------------------------- *)

(* handle-lifecycle lives in {!Lifecycle} (open→use→close typestate),
   a per-file pass appended below. *)

let check_expr ctx e =
  (match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
      check_float_compare ctx txt pexp_loc args
  | Pexp_ident { txt; loc } ->
      check_partial ctx loc txt;
      check_escape_ident ctx loc txt
  | _ -> ());
  check_try ctx e;
  check_assert_false ctx e

let iterator ctx =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self e ->
        check_expr ctx e;
        Ast_iterator.default_iterator.expr self e);
  }

let path_is_test file =
  let segments = String.split_on_char '/' file in
  List.exists (fun s -> s = "test" || s = "tests") segments

(* Per-file rules over an already-parsed structure; no pragma
   filtering here — the caller owns suppression. *)
let run_rules ~enabled ~file ast =
  let in_test = path_is_test file in
  let ctx = { file; in_test; enabled; findings = [] } in
  let it = iterator ctx in
  it.structure it ast;
  let lifecycle =
    if enabled rule_lifecycle then Lifecycle.findings ~in_test ~file ast
    else []
  in
  ctx.findings @ lifecycle

let parse_error_finding file =
  {
    file;
    line = 1;
    col = 0;
    rule = rule_parse_error;
    message = "file does not parse; run the compiler for details";
  }

(* ---------------------- pragma suppression ------------------------ *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let pragma_marker = "iqlint: allow"

let known_rule_ids = rule_parse_error :: List.map fst all_rules

type pragma_table = {
  p_allow : (int, string list) Hashtbl.t;
      (** line number (1-based) -> rule ids allowed on that line *)
  p_transparent : (int, unit) Hashtbl.t;
      (** lines a pragma "sees through": attributes and one-line
          comments between the pragma and the code it governs *)
}

(* A pragma governs the next line of *code*, not the next line of
   text: attributes ([@@@warning …], [@inline]…) and one-line comments
   (including doc comments) between the pragma and the flagged
   expression are transparent. Blank lines are not — a pragma floating
   above an empty line reads as detached, and keeping it inert is the
   conservative choice. *)
let line_is_transparent line =
  let t = String.trim line in
  t <> ""
  && (String.length t >= 2
      && (String.sub t 0 2 = "[@"
         || (String.sub t 0 2 = "(*" && String.ends_with ~suffix:"*)" t)))

(* Attributes may span lines ([@@@warning\n  "-32"]): the continuation
   lines don't start with "[@" so [line_is_transparent] misses them.
   Track the attribute's bracket balance instead — every line until
   the brackets close is part of the attribute, hence transparent.
   Bracket characters inside the payload string are counted too; that
   only ever extends transparency, and the walk-up budget still caps
   action at a distance. *)
let bracket_delta line =
  String.fold_left
    (fun d c -> match c with '[' -> d + 1 | ']' -> d - 1 | _ -> d)
    0 line

(* Only tokens that are actual rule ids (or "all") count, and scanning
   stops at the first non-rule token — so trailing commentary in the
   same comment ([(* iqlint: allow foo — because ... *)]) can mention
   another rule's name without suppressing it. *)
let pragmas_of_source src =
  let allow = Hashtbl.create 8 in
  let transparent = Hashtbl.create 8 in
  let attr_depth = ref 0 in
  List.iteri
    (fun i line ->
      let in_attr = !attr_depth > 0 in
      let starts_attr =
        let t = String.trim line in
        String.length t >= 2 && String.sub t 0 2 = "[@"
      in
      if in_attr || starts_attr then
        attr_depth := max 0 (!attr_depth + bracket_delta line);
      if in_attr || line_is_transparent line then
        Hashtbl.replace transparent (i + 1) ();
      match find_sub line pragma_marker with
      | None -> ()
      | Some j ->
          let start = j + String.length pragma_marker in
          let rest = String.sub line start (String.length line - start) in
          let rest =
            match find_sub rest "*)" with
            | Some k -> String.sub rest 0 k
            | None -> rest
          in
          let tokens =
            String.split_on_char ' ' rest
            |> List.concat_map (String.split_on_char ',')
            |> List.filter (fun s -> s <> "")
          in
          let rec take acc = function
            | tok :: rest when tok = "all" || List.mem tok known_rule_ids ->
                take (tok :: acc) rest
            | _ -> List.rev acc
          in
          let ids = take [] tokens in
          if ids <> [] then Hashtbl.replace allow (i + 1) ids)
    (String.split_on_char '\n' src);
  { p_allow = allow; p_transparent = transparent }

let suppressed pragmas f =
  let allows line =
    match Hashtbl.find_opt pragmas.p_allow line with
    | None -> false
    | Some ids -> List.mem f.rule ids || List.mem "all" ids
  in
  (* Same line, the line above, or above a run of transparent lines
     (capped so a pragma cannot act at a distance). *)
  let rec above line budget =
    budget > 0 && line >= 1
    && (allows line
       || (Hashtbl.mem pragmas.p_transparent line
          && above (line - 1) (budget - 1)))
  in
  allows f.line || above (f.line - 1) 10

(* ---------------------- per-file entry points --------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_source ?(enabled = fun _ -> true) ~file src =
  let findings =
    match Project.parse_impl ~file src with
    | ast -> run_rules ~enabled ~file ast
    | exception (Syntaxerr.Error _ | Lexer.Error _) -> [ parse_error_finding file ]
  in
  let pragmas = pragmas_of_source src in
  findings
  |> List.filter (fun f -> not (suppressed pragmas f))
  |> List.sort_uniq compare_finding

let lint_file ?enabled path = lint_source ?enabled ~file:path (read_file path)

(* ---------------------- whole-program driver ---------------------- *)

(* [lint_paths_timed] also returns per-pass wall times (seconds, in
   pass order) for [--timings]. *)
let lint_paths_timed ?(enabled = fun _ -> true) paths =
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    timings := (name, Unix.gettimeofday () -. t0) :: !timings;
    r
  in
  let proj = timed "load" (fun () -> Project.load paths) in
  (* Per-file rules over the already-parsed implementations. *)
  let per_file =
    timed "per-file" (fun () ->
        List.concat_map
          (fun (f : Project.file) ->
            match (f.Project.kind, f.Project.str) with
            | Project.Impl, Some ast ->
                run_rules ~enabled ~file:f.Project.path ast
            | _ ->
                if f.Project.parse_failed then
                  [ parse_error_finding f.Project.path ]
                else [])
          proj.Project.files)
  in
  (* Whole-program rules. *)
  let cg = timed "callgraph" (fun () -> Callgraph.build proj) in
  let exn_findings =
    if enabled rule_engine_boundary then
      timed "exn-escape" (fun () ->
          Exn_escape.engine_boundary_findings cg (Exn_escape.build cg))
    else []
  in
  let dead_findings =
    if enabled rule_dead_export then
      timed "dead-export" (fun () -> Exn_escape.dead_export_findings cg)
    else []
  in
  let all = per_file @ exn_findings @ dead_findings in
  let all =
    timed "pragmas" (fun () ->
        let tables = Hashtbl.create 32 in
        List.iter
          (fun f ->
            if not (Hashtbl.mem tables f.Project.path) then
              Hashtbl.replace tables f.Project.path
                (pragmas_of_source f.Project.source))
          proj.Project.files;
        List.filter
          (fun (fd : finding) ->
            match Hashtbl.find_opt tables fd.file with
            | Some tbl -> not (suppressed tbl fd)
            | None -> true)
          all)
  in
  (List.sort_uniq compare_finding all, List.rev !timings)

let lint_paths ?enabled paths = fst (lint_paths_timed ?enabled paths)

(* ---------------------- CLI ---------------------------------------- *)

let split_ids s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let usage =
  "usage: iqlint [--rules id,id] [--disable id,id] [--list-rules]\n\
  \              [--explain rule-id] [--timings] [path ...]\n\
   Paths may be .ml/.mli files or directories (scanned recursively); default\n\
   is `lib bin bench examples test`. Exit 1 when any unsuppressed finding is\n\
   reported.\n\
   Suppress a finding with `(* iqlint: allow <rule-id> *)` on the same line\n\
   or the line directly above it (attributes and one-line comments between\n\
   them are transparent). `--timings` reports per-pass wall time.\n\
   `--explain` prints one rule's rationale, a minimal firing example and its\n\
   suppression pragma."

let main ?(out = Format.std_formatter) args =
  let only = ref None
  and disabled = ref []
  and paths = ref []
  and want_timings = ref false in
  let bad = ref None in
  let rec parse = function
    | [] -> ()
    | "--list-rules" :: _ ->
        List.iter
          (fun (id, doc) -> Format.fprintf out "%-22s %s@." id doc)
          all_rules;
        raise Exit
    | "--explain" :: v :: _ ->
        if explain out v then raise Exit
        else bad := Some (Printf.sprintf "unknown rule id `%s` (try --list-rules)" v)
    | [ "--explain" ] -> bad := Some "--explain needs a rule id"
    | "--rules" :: v :: rest ->
        only := Some (split_ids v);
        parse rest
    | "--disable" :: v :: rest ->
        disabled := !disabled @ split_ids v;
        parse rest
    | "--timings" :: rest ->
        want_timings := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        Format.fprintf out "%s@." usage;
        raise Exit
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        bad := Some (Printf.sprintf "unknown option %s" arg)
    | path :: rest ->
        paths := !paths @ [ path ];
        parse rest
  in
  match
    (try parse args with Exit -> bad := Some "");
    !bad
  with
  | Some "" -> 0
  | Some msg ->
      Format.fprintf out "iqlint: %s@.%s@." msg usage;
      2
  | None -> (
      let known = List.map fst all_rules in
      let unknown =
        List.filter
          (fun r -> not (List.mem r known))
          (Option.value !only ~default:[] @ !disabled)
      in
      match unknown with
      | r :: _ ->
          Format.fprintf out
            "iqlint: unknown rule id `%s` (try --list-rules)@." r;
          2
      | [] -> (
          let enabled r =
            r = rule_parse_error
            || (match !only with None -> true | Some l -> List.mem r l)
               && not (List.mem r !disabled)
          in
          let paths =
            match !paths with
            | [] -> [ "lib"; "bin"; "bench"; "examples"; "test" ]
            | ps -> ps
          in
          let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
          if missing <> [] then begin
            Format.fprintf out "iqlint: no such path: %s@."
              (String.concat ", " missing);
            2
          end
          else
            let findings, timings = lint_paths_timed ~enabled paths in
            List.iter (fun f -> Format.fprintf out "%a@." pp_finding f) findings;
            if !want_timings then
              List.iter
                (fun (name, secs) ->
                  Format.fprintf out "iqlint: pass %-24s %8.2f ms@." name
                    (secs *. 1000.))
                timings;
            match findings with
            | [] -> 0
            | fs ->
                Format.fprintf out "iqlint: %d finding(s)@." (List.length fs);
                1))
