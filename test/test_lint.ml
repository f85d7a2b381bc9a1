(* iqlint rule coverage: every rule firing on a seeded violation,
   suppressed by the pragma, quiet on clean/idiomatic code. Fixtures
   are written to temp files so the linter exercises its real
   file-driven path. *)

let write_fixture src =
  let path = Filename.temp_file "iqlint_fixture" ".ml" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  path

let lint_src ?enabled src =
  let path = write_fixture src in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Lint.lint_file ?enabled path)

let rules fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs
let rules_t = Alcotest.(list string)

(* ------------------------- float-exact-compare ------------------- *)

let test_float_fires () =
  let fs =
    lint_src
      {|let a x = x = 0.0
let b y = y <> 1e-9
let c v = compare v 0. = 0
let d z = min z 2.5
let e w u = w = sqrt u
|}
  in
  Alcotest.(check int) "five findings" 5 (List.length fs);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check string) "rule id" "float-exact-compare" f.Lint.rule)
    fs

let test_float_int_compare_clean () =
  let fs = lint_src {|let a x = x = 0
let b y = min y 3
let c s = s = "x"
|} in
  Alcotest.check rules_t "int/string compares are clean" [] (rules fs)

let test_float_pragma () =
  let fs =
    lint_src
      {|(* iqlint: allow float-exact-compare — exact truthiness by definition *)
let truthy f = f <> 0.
|}
  in
  Alcotest.check rules_t "pragma suppresses" [] (rules fs)

(* ------------------------- partial-function ---------------------- *)

let test_partial_fires () =
  let fs =
    lint_src
      {|let a l = List.hd l
let b l = List.nth l 3
let c o = Option.get o
let d h = Hashtbl.find h "k"
let e arr = Array.unsafe_get arr 0
|}
  in
  Alcotest.(check int) "five findings" 5 (List.length fs);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check string) "rule id" "partial-function" f.Lint.rule)
    fs

let test_partial_opt_clean () =
  let fs =
    lint_src
      {|let a l = List.nth_opt l 3
let b h = Hashtbl.find_opt h "k"
let c o = Option.value o ~default:0
|}
  in
  Alcotest.check rules_t "_opt variants are clean" [] (rules fs)

let test_partial_pragma () =
  let fs =
    lint_src
      {|let a l =
  (* iqlint: allow partial-function — caller guarantees non-empty *)
  List.hd l
|}
  in
  Alcotest.check rules_t "pragma suppresses" [] (rules fs)

(* ------------------------- catch-all-handler --------------------- *)

let test_catch_all_fires () =
  let fs = lint_src {|let safe f = try f () with _ -> 0
|} in
  Alcotest.check rules_t "with _ -> flagged" [ "catch-all-handler" ] (rules fs)

let test_catch_all_specific_clean () =
  let fs =
    lint_src {|let safe f = try f () with Failure _ | Not_found -> 0
|}
  in
  Alcotest.check rules_t "specific handler clean" [] (rules fs)

let test_catch_all_pragma () =
  let fs =
    lint_src
      {|let safe f =
  (* iqlint: allow catch-all-handler — top-level isolation barrier *)
  try f () with _ -> 0
|}
  in
  Alcotest.check rules_t "pragma suppresses" [] (rules fs)

let test_catch_all_skipped_in_test_paths () =
  let fs =
    Lint.lint_source ~file:"test/test_fixture.ml"
      "let safe f = try f () with _ -> 0\nlet g () = assert false\n"
  in
  Alcotest.check rules_t "test/ paths skip catch-all and escape rules" []
    (rules fs)

(* ------------------------- forbidden-escape ---------------------- *)

let test_escape_fires () =
  let fs = lint_src {|let coerce x = Obj.magic x
let unreachable () = assert false
|} in
  Alcotest.check rules_t "Obj.magic and assert false flagged"
    [ "forbidden-escape"; "forbidden-escape" ]
    (rules fs)

let test_escape_pragma () =
  let fs =
    lint_src
      {|let unreachable () =
  (* iqlint: allow forbidden-escape — invariant: never reached *)
  assert false
|}
  in
  Alcotest.check rules_t "pragma suppresses" [] (rules fs)

let test_assert_condition_clean () =
  let fs = lint_src {|let check x = assert (x > 0)
|} in
  Alcotest.check rules_t "assert <cond> is clean" [] (rules fs)

(* ------------------------- CLI driver ---------------------------- *)

let run_main args =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let code = Lint.main ~out args in
  Format.pp_print_flush out ();
  (code, Buffer.contents buf)

let test_exit_clean () =
  let path = write_fixture "let id x = x\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, output = run_main [ path ] in
      Alcotest.(check int) "clean file exits 0" 0 code;
      Alcotest.(check string) "no output" "" output)

let test_exit_finding () =
  let path = write_fixture "let bad x = x = 0.0\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, output = run_main [ path ] in
      Alcotest.(check int) "finding exits 1" 1 code;
      let expected_prefix = Printf.sprintf "%s:1:" path in
      Alcotest.(check bool)
        "report carries file:line" true
        (String.length output >= String.length expected_prefix
        && String.sub output 0 (String.length expected_prefix)
           = expected_prefix);
      let has_rule_tag =
        let tag = "[float-exact-compare]" in
        let rec find i =
          i + String.length tag <= String.length output
          && (String.sub output i (String.length tag) = tag || find (i + 1))
        in
        find 0
      in
      Alcotest.(check bool) "report carries [rule-id]" true has_rule_tag)

let test_rule_toggle () =
  let path = write_fixture "let bad x = x = 0.0\nlet worse l = List.hd l\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _ = run_main [ "--rules"; "partial-function"; path ] in
      Alcotest.(check int) "other rules off still finds partial" 1 code;
      let code, output =
        run_main [ "--disable"; "float-exact-compare,partial-function"; path ]
      in
      Alcotest.(check int) "both rules disabled exits 0" 0 code;
      Alcotest.(check string) "no output when disabled" "" output)

let test_unknown_rule () =
  let code, _ = run_main [ "--rules"; "no-such-rule"; "." ] in
  Alcotest.(check int) "unknown rule id exits 2" 2 code

(* ------------------------- whole-program fixtures ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A throwaway project directory: a dune file plus sources, so the
   linter exercises its real Project.load / Callgraph.build path. *)
let write_project files =
  let dir = Filename.temp_file "iqlint_proj" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  List.iter
    (fun (name, src) ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc src;
      close_out oc)
    files;
  dir

let rm_project dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let lint_project files =
  let dir = write_project files in
  Fun.protect
    ~finally:(fun () -> rm_project dir)
    (fun () -> Lint.lint_paths [ dir ])

let by_rule rule fs =
  List.filter (fun (f : Lint.finding) -> f.Lint.rule = rule) fs

(* ------------------------- dead-export --------------------------- *)

let test_dead_export_and_functor_usage () =
  let fs =
    lint_project
      [
        ("dune", "(library (name fixlib))\n");
        ("a.ml", "let used x = x + 1\nlet unused x = x - 1\n");
        ("a.mli", "val used : int -> int\nval unused : int -> int\n");
        ( "b.ml",
          "module Make (X : sig\n\
          \  val v : int\n\
           end) =\n\
           struct\n\
          \  let go () = A.used X.v\n\
           end\n" );
      ]
  in
  match by_rule "dead-export" fs with
  | [ f ] ->
      Alcotest.(check bool) "flagged in a.mli" true
        (Filename.basename f.Lint.file = "a.mli");
      Alcotest.(check int) "the unused export" 2 f.Lint.line;
      Alcotest.(check bool) "usage from a functor body counts" true
        (contains f.Lint.message "`unused`")
  | fs' -> Alcotest.failf "expected one dead-export, got %d" (List.length fs')

(* ------------------------- engine-boundary-raise ----------------- *)

let engine_fixture =
  [
    ("dune", "(library (name fixeng))\n");
    ( "engine.ml",
      "let helper n = if n < 0 then invalid_arg \"n\" else n\n\n\
       let rec even n =\n\
      \  if n < 0 then failwith \"neg\"\n\
      \  else if n = 0 then true\n\
      \  else odd (n - 1)\n\n\
       and odd n = if n = 0 then false else even (n - 1)\n\n\
       let lookup t k = Hashtbl.find t k\n\
       let create n = helper n\n\
       let parity n = odd n\n\
       let find t k = lookup t k\n\
       let pick_exn l = List.hd l\n\
       let safe n = try create n with Invalid_argument _ -> 0\n\
       let double n = n * 2\n" );
    ( "engine.mli",
      "val create : int -> int\n\
       val parity : int -> bool\n\
       val find : (string, int) Hashtbl.t -> string -> int\n\
       val pick_exn : int list -> int\n\
       val safe : int -> int\n\
       val double : int -> int\n" );
  ]

let test_engine_boundary_fires () =
  let fs = by_rule "engine-boundary-raise" (lint_project engine_fixture) in
  (* create (Invalid_argument via helper), parity (Failure via the
     odd/even mutual recursion) and find (Not_found via lookup ->
     Hashtbl.find) leak; pick_exn is name-exempt, safe's handler masks
     the raise, double is pure. Findings land on the .mli lines. *)
  Alcotest.(check (list int))
    "exactly create/parity/find" [ 1; 2; 3 ]
    (List.map (fun (f : Lint.finding) -> f.Lint.line) fs);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check bool) "reported on engine.mli" true
        (Filename.basename f.Lint.file = "engine.mli"))
    fs;
  match fs with
  | [ c; p; f ] ->
      Alcotest.(check bool) "witness chain down to the raise site" true
        (contains c.Lint.message "Engine.helper (raises Invalid_argument at");
      Alcotest.(check bool) "witness through mutual recursion" true
        (contains p.Lint.message "Engine.odd -> Engine.even (raises Failure at");
      Alcotest.(check bool) "known-raising stdlib propagates" true
        (contains f.Lint.message "Engine.lookup (raises Not_found at")
  | _ -> Alcotest.fail "expected three findings"

let test_engine_boundary_fixed_by_guard () =
  (* The sweep idiom: route every entry point through a run-wrapper
     that catches everything and returns a result. Both the direct
     [guard (fun () -> ...)] and the sugared [guard @@ fun () -> ...]
     application must be recognized. *)
  let fs =
    lint_project
      [
        ("dune", "(library (name fixeng))\n");
        ( "engine.ml",
          "let helper n = if n < 0 then invalid_arg \"n\" else n\n\
           let guard f = try f () with e -> Error e\n\
           let create n = guard @@ fun () -> Ok (helper n)\n\
           let find t k = guard (fun () -> Ok (Hashtbl.find t k))\n" );
        ( "engine.mli",
          "val create : int -> (int, exn) result\n\
           val find : (string, int) Hashtbl.t -> string -> (int, exn) result\n"
        );
      ]
  in
  Alcotest.check rules_t "result-wrapper entry points are clean" []
    (rules (by_rule "engine-boundary-raise" fs))

(* ------------------------- call-graph resolution ----------------- *)

(* Resolution seen through engine-boundary-raise: an exported Engine
   value inherits the exceptions of exactly the callees it resolves
   to. *)
let boundary_findings files =
  by_rule "engine-boundary-raise"
    (lint_project (("dune", "(library (name fixeng))\n") :: files))

let engine_find_mli =
  ("engine.mli", "val find : (string, int) Hashtbl.t -> string -> int\n")

let test_cg_shadowing_no_edge () =
  let fs =
    boundary_findings
      [
        ( "engine.ml",
          "let lookup t k = Hashtbl.find t k\n\
           let find t k =\n\
          \  let lookup _ _ = 0 in\n\
          \  lookup t k\n" );
        engine_find_mli;
      ]
  in
  Alcotest.check rules_t "a shadowing local does not inherit the raise" []
    (rules fs)

let test_cg_alias_resolves () =
  let fs =
    boundary_findings
      [
        ("a.ml", "let lookup t k = Hashtbl.find t k\n");
        ("engine.ml", "module M = A\nlet find t k = M.lookup t k\n");
        engine_find_mli;
      ]
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "the witness goes through the aliased module" true
        (contains f.Lint.message "Engine.find -> A.lookup (raises Not_found at")
  | fs' ->
      Alcotest.failf "expected one engine-boundary-raise, got %d"
        (List.length fs')

(* ------------------------- findings ------------------------------ *)

let one_finding =
  {
    Lint.file = "lib/a.ml";
    line = 3;
    col = 4;
    rule = "dead-export";
    message = "msg with \"quotes\"";
  }

let test_finding_pp_and_order () =
  Alcotest.(check string) "pp_finding format"
    "lib/a.ml:3:4 [dead-export] msg with \"quotes\""
    (Format.asprintf "%a" Lint.pp_finding one_finding);
  let earlier = { one_finding with Lint.line = 1 } in
  Alcotest.(check bool) "compare_finding orders by line" true
    (Lint.compare_finding earlier one_finding < 0);
  Alcotest.(check int) "compare_finding is reflexive" 0
    (Lint.compare_finding one_finding one_finding)

(* ------------------------- pragma granularity -------------------- *)

let test_pragma_granularity () =
  let fs =
    lint_src
      {|(* iqlint: allow partial-function — the float compare is the bug *)
let mixed l = List.hd l = 0.0
|}
  in
  Alcotest.check rules_t "only the named rule is suppressed"
    [ "float-exact-compare" ] (rules fs)

let test_pragma_all () =
  let fs =
    lint_src {|(* iqlint: allow all *)
let mixed l = List.hd l = 0.0
|}
  in
  Alcotest.check rules_t "allow all suppresses every rule" [] (rules fs)

let test_pragma_unknown_token_stops () =
  let fs =
    lint_src
      {|(* iqlint: allow everything partial-function *)
let a l = List.hd l
|}
  in
  Alcotest.check rules_t "scan stops at the first non-rule token"
    [ "partial-function" ] (rules fs)

(* ------------------------- handle-lifecycle ---------------------- *)

let lifecycle fs = by_rule "handle-lifecycle" fs

let test_lifecycle_never_closed () =
  let fs =
    lifecycle
      (lint_src {|let slurp () =
  let ic = open_in "x" in
  input_line ic
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check int) "reported at the open" 2 f.Lint.line;
      Alcotest.(check bool) "says never closed" true
        (contains f.Lint.message "never closed")
  | fs' -> Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_double_close () =
  let fs =
    lifecycle
      (lint_src
         {|let f () =
  let ic = open_in "x" in
  close_in ic;
  close_in ic
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check int) "at the second close" 4 f.Lint.line;
      Alcotest.(check bool) "says closed twice" true
        (contains f.Lint.message "closed twice");
      Alcotest.(check bool) "cites the first close" true
        (contains f.Lint.message "first closed at line 3")
  | fs' -> Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_use_after_close () =
  let fs =
    lifecycle
      (lint_src
         {|let f () =
  let ic = open_in "x" in
  close_in ic;
  input_line ic
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check int) "at the stale use" 4 f.Lint.line;
      Alcotest.(check bool) "says used after close" true
        (contains f.Lint.message "used after");
      Alcotest.(check bool) "cites the close site" true
        (contains f.Lint.message "closed at line 3")
  | fs' -> Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_exception_path () =
  (* Used handle, close not under Fun.protect: an exception between
     open and close leaks it. *)
  let fs =
    lifecycle
      (lint_src
         {|let f () =
  let ic = open_in "x" in
  let l = input_line ic in
  close_in ic;
  l
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "names the bracket idiom" true
        (contains f.Lint.message "Fun.protect")
  | fs' -> Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_bracket_ok () =
  let fs =
    lifecycle
      (lint_src
         {|let f () =
  let ic = open_in "x" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
|})
  in
  Alcotest.check rules_t "the bracket idiom is clean" [] (rules fs)

let test_lifecycle_escape_ok () =
  let fs =
    lifecycle
      (lint_src {|let make () =
  let ic = open_in "x" in
  ic
|})
  in
  Alcotest.check rules_t "a returned handle moves ownership" [] (rules fs)

let test_lifecycle_pool_never_shutdown () =
  let fs =
    lifecycle
      (lint_src
         {|let run () =
  let pool = Parallel.create () in
  ignore (Parallel.map_array pool Fun.id [| 1 |])
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "names Parallel.shutdown" true
        (contains f.Lint.message "Parallel.shutdown")
  | fs' -> Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_pragma () =
  let fs =
    lifecycle
      (lint_src
         {|let slurp () =
  (* iqlint: allow handle-lifecycle — ownership moves to the registry *)
  let ic = open_in "x" in
  input_line ic
|})
  in
  Alcotest.check rules_t "pragma suppresses" [] (rules fs)

(* Serving sessions and prepared statements are tracked through the
   same typestate: open_/open_exn/prepare are creators,
   close/finalize are closers. *)

let test_lifecycle_session_leaked () =
  let fs =
    lifecycle
      (lint_src
         {|let serve e =
  let sess = Session.open_exn e in
  Session.generation sess
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "says never closed" true
        (contains f.Lint.message "never closed");
      Alcotest.(check bool) "names Session.close" true
        (contains f.Lint.message "Session.close")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_session_outside_bracket () =
  (* A used session closed outside Fun.protect leaks its admission
     slot on the exception path between open and close. *)
  let fs =
    lifecycle
      (lint_src
         {|let serve e =
  let sess = Session.open_exn e in
  let h = Session.hits sess ~target:0 in
  Session.close sess;
  h
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "names the bracket idiom" true
        (contains f.Lint.message "Fun.protect");
      Alcotest.(check bool) "names the session kind" true
        (contains f.Lint.message "session")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_session_bracket_ok () =
  let fs =
    lifecycle
      (lint_src
         {|let serve e =
  let sess = Session.open_exn e in
  Fun.protect ~finally:(fun () -> Session.close sess)
    (fun () -> Session.hits sess ~target:0)
|})
  in
  Alcotest.check rules_t "the session bracket idiom is clean" [] (rules fs)

let test_lifecycle_stmt_double_finalize () =
  let fs =
    lifecycle
      (lint_src
         {|let q sess =
  let st = Session.prepare sess ~target:3 in
  Session.finalize st;
  Session.finalize st
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check int) "at the second finalize" 4 f.Lint.line;
      Alcotest.(check bool) "says closed twice" true
        (contains f.Lint.message "closed twice")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_stmt_step_after_finalize () =
  let fs =
    lifecycle
      (lint_src
         {|let q sess =
  let st = Session.prepare sess ~target:3 in
  Session.finalize st;
  Session.step st
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check int) "at the stale step" 4 f.Lint.line;
      Alcotest.(check bool) "says used after" true
        (contains f.Lint.message "used after")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_stmt_never_finalized () =
  let fs =
    lifecycle
      (lint_src
         {|let q sess =
  let st = Session.prepare sess ~target:3 in
  Session.step st
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "names Session.finalize" true
        (contains f.Lint.message "Session.finalize");
      Alcotest.(check bool) "names the statement kind" true
        (contains f.Lint.message "prepared statement")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_session_pragma () =
  let fs =
    lifecycle
      (lint_src
         {|let serve e =
  (* iqlint: allow handle-lifecycle — the registry owns this session *)
  let sess = Session.open_exn e in
  Session.generation sess
|})
  in
  Alcotest.check rules_t "pragma suppresses the session finding" [] (rules fs)

(* The durable write-ahead log is tracked through the same typestate:
   Wal.open_ is a creator, Wal.close its closer. *)

let test_lifecycle_wal_leaked () =
  let fs =
    lifecycle
      (lint_src
         {|let journal path m =
  let w = Durable.Wal.open_ path in
  Durable.Wal.append w ~generation:1 m
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "says never closed" true
        (contains f.Lint.message "never closed");
      Alcotest.(check bool) "names Wal.close" true
        (contains f.Lint.message "Wal.close");
      Alcotest.(check bool) "names the log kind" true
        (contains f.Lint.message "write-ahead log")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_wal_outside_bracket () =
  (* A used log closed outside Fun.protect leaks the fd (and any
     unsynced tail) on the exception path between open and close. *)
  let fs =
    lifecycle
      (lint_src
         {|let journal path m =
  let w = Durable.Wal.open_ path in
  let n = Durable.Wal.append w ~generation:1 m in
  Durable.Wal.close w;
  n
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "names the bracket idiom" true
        (contains f.Lint.message "Fun.protect");
      Alcotest.(check bool) "names the log kind" true
        (contains f.Lint.message "write-ahead log")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

let test_lifecycle_wal_bracket_ok () =
  let fs =
    lifecycle
      (lint_src
         {|let journal path m =
  let w = Durable.Wal.open_ path in
  Fun.protect ~finally:(fun () -> Durable.Wal.close w)
    (fun () -> Durable.Wal.append w ~generation:1 m)
|})
  in
  Alcotest.check rules_t "the wal bracket idiom is clean" [] (rules fs)

let test_lifecycle_wal_double_close () =
  let fs =
    lifecycle
      (lint_src
         {|let f path =
  let w = Durable.Wal.open_ path in
  Durable.Wal.close w;
  Durable.Wal.close w
|})
  in
  match fs with
  | [ f ] ->
      Alcotest.(check int) "at the second close" 4 f.Lint.line;
      Alcotest.(check bool) "says closed twice" true
        (contains f.Lint.message "closed twice")
  | fs' ->
      Alcotest.failf "expected one lifecycle finding, got %d" (List.length fs')

(* ------------------------- pragma transparency ------------------- *)

let test_pragma_above_attribute () =
  let fs =
    lint_src
      {|(* iqlint: allow partial-function — head of a checked list *)
[@@@warning "-32"]
let a l = List.hd l
|}
  in
  Alcotest.check rules_t "an attribute line is transparent" [] (rules fs)

let test_pragma_above_doc_comment () =
  let fs =
    lint_src
      {|(* iqlint: allow partial-function — head of a checked list *)
(** picks the head; callers check emptiness *)
let a l = List.hd l
|}
  in
  Alcotest.check rules_t "a one-line doc comment is transparent" [] (rules fs)

let test_pragma_blank_line_breaks () =
  let fs =
    lint_src {|(* iqlint: allow partial-function *)

let a l = List.hd l
|}
  in
  Alcotest.check rules_t "a blank line is not transparent"
    [ "partial-function" ] (rules fs)

(* ------------------------- timings ------------------------------- *)

let test_timings_payload () =
  let dir =
    write_project
      [ ("dune", "(library (name fixlib))\n"); ("a.ml", "let bad x = x = 0.0\n") ]
  in
  Fun.protect
    ~finally:(fun () -> rm_project dir)
    (fun () ->
      let fs, timings = Lint.lint_paths_timed [ dir ] in
      Alcotest.(check bool) "still finds the float compare" true
        (by_rule "float-exact-compare" fs <> []);
      let names = List.map fst timings in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " pass is timed") true (List.mem p names))
        [
          "load";
          "per-file";
          "callgraph";
          "exn-escape";
          "dead-export";
          "pragmas";
        ];
      List.iter
        (fun (_, s) ->
          Alcotest.(check bool) "wall times are non-negative" true (s >= 0.))
        timings)

let test_timings_flag () =
  let path = write_fixture "let bad x = x = 0.0\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _, text = run_main [ "--timings"; path ] in
      Alcotest.(check bool) "prints a pass summary" true
        (contains text "iqlint: pass");
      let _, plain = run_main [ path ] in
      Alcotest.(check bool) "no timings without the flag" false
        (contains plain "iqlint: pass"))

(* A handle closed outside a [Fun.protect] bracket leaks on the
   exception path. End to end through the CLI, the finding's text line
   cites the open's line, the witness the message carries. *)
let unbracketed_close_ml =
  "let first_line () =\n\
  \  let ic = open_in \"x\" in\n\
  \  let l = input_line ic in\n\
  \  close_in ic;\n\
  \  l\n"

let test_witness_lines_in_messages () =
  let dir =
    write_project
      [
        ("dune", "(library (name fixlc))\n"); ("leak.ml", unbracketed_close_ml);
      ]
  in
  Fun.protect
    ~finally:(fun () -> rm_project dir)
    (fun () ->
      let code, text = run_main [ dir ] in
      Alcotest.(check int) "leak exits 1" 1 code;
      let prefix = Filename.concat dir "leak.ml:4:" in
      Alcotest.(check bool) "the close's line cites the open" true
        (String.split_on_char '\n' text
        |> List.exists (fun l ->
               String.starts_with ~prefix l
               && contains l "[handle-lifecycle]"
               && contains l "opened at line 2")))

(* ------------------------- --explain ----------------------------- *)

let test_explain_flag () =
  (* The API form first: [Lint.explain] is what the CLI flag drives. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Alcotest.(check bool) "Lint.explain knows the rule" true
    (Lint.explain ppf "handle-lifecycle");
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "Lint.explain rejects unknown ids" false
    (Lint.explain ppf "no-such-rule");
  Alcotest.(check bool) "API output carries the rationale" true
    (contains (Buffer.contents buf) "double close");
  let code, text = run_main [ "--explain"; "handle-lifecycle" ] in
  Alcotest.(check int) "known rule exits 0" 0 code;
  Alcotest.(check bool) "prints a firing example" true
    (contains text "example (fires)");
  Alcotest.(check bool) "prints the suppression pragma" true
    (contains text "iqlint: allow handle-lifecycle");
  let code, _ = run_main [ "--explain"; "no-such-rule" ] in
  Alcotest.(check int) "unknown rule exits 2" 2 code;
  let code, _ = run_main [ "--explain" ] in
  Alcotest.(check int) "missing id exits 2" 2 code;
  (* Every registered rule must explain itself. *)
  List.iter
    (fun (id, _) ->
      let code, text = run_main [ "--explain"; id ] in
      Alcotest.(check int) (id ^ " explains") 0 code;
      Alcotest.(check bool)
        (id ^ " example present") true
        (contains text "example (fires)"))
    Lint.all_rules

(* ------------------------- multi-line attributes ----------------- *)

let test_pragma_above_multiline_attribute () =
  let fs =
    lint_src
      {|(* iqlint: allow partial-function — head of a checked list *)
[@@@warning
  "-32"]
let a l = List.hd l
|}
  in
  Alcotest.check rules_t "a multi-line attribute is transparent" [] (rules fs)

let test_pragma_above_multiline_attribute_trailing_bracket () =
  let fs =
    lint_src
      {|(* iqlint: allow partial-function — head of a checked list *)
[@@@ocamlformat
  "disable"
]
let a l = List.hd l
|}
  in
  Alcotest.check rules_t "closing bracket on its own line is transparent" []
    (rules fs)

let suite =
  [
    Alcotest.test_case "float-exact-compare fires" `Quick test_float_fires;
    Alcotest.test_case "float-exact-compare: non-float compares clean" `Quick
      test_float_int_compare_clean;
    Alcotest.test_case "float-exact-compare pragma suppresses" `Quick
      test_float_pragma;
    Alcotest.test_case "partial-function fires on all five" `Quick
      test_partial_fires;
    Alcotest.test_case "partial-function: _opt variants clean" `Quick
      test_partial_opt_clean;
    Alcotest.test_case "partial-function pragma suppresses" `Quick
      test_partial_pragma;
    Alcotest.test_case "catch-all-handler fires" `Quick test_catch_all_fires;
    Alcotest.test_case "catch-all-handler: specific handler clean" `Quick
      test_catch_all_specific_clean;
    Alcotest.test_case "catch-all-handler pragma suppresses" `Quick
      test_catch_all_pragma;
    Alcotest.test_case "test/ paths skip non-library rules" `Quick
      test_catch_all_skipped_in_test_paths;
    Alcotest.test_case "forbidden-escape fires" `Quick test_escape_fires;
    Alcotest.test_case "forbidden-escape pragma suppresses" `Quick
      test_escape_pragma;
    Alcotest.test_case "assert <condition> is clean" `Quick
      test_assert_condition_clean;
    Alcotest.test_case "callgraph: shadowed name resolves to the binder" `Quick
      test_cg_shadowing_no_edge;
    Alcotest.test_case "callgraph: module alias resolves" `Quick
      test_cg_alias_resolves;
    Alcotest.test_case "dead-export fires; functor usage counts" `Quick
      test_dead_export_and_functor_usage;
    Alcotest.test_case "engine-boundary-raise fires on seeded fixture" `Quick
      test_engine_boundary_fires;
    Alcotest.test_case "engine-boundary-raise fixed by result wrapper" `Quick
      test_engine_boundary_fixed_by_guard;
    Alcotest.test_case "pp_finding / compare_finding" `Quick
      test_finding_pp_and_order;
    Alcotest.test_case "witness lines in lifecycle messages" `Quick
      test_witness_lines_in_messages;
    Alcotest.test_case "CLI: clean file exits 0" `Quick test_exit_clean;
    Alcotest.test_case "CLI: finding exits 1 with file:line [rule]" `Quick
      test_exit_finding;
    Alcotest.test_case "CLI: --rules/--disable toggle" `Quick test_rule_toggle;
    Alcotest.test_case "CLI: unknown rule id exits 2" `Quick test_unknown_rule;
    Alcotest.test_case "pragma suppresses only the named rule" `Quick
      test_pragma_granularity;
    Alcotest.test_case "pragma 'allow all' suppresses the line" `Quick
      test_pragma_all;
    Alcotest.test_case "pragma scan stops at unknown token" `Quick
      test_pragma_unknown_token_stops;
    Alcotest.test_case "handle-lifecycle: never closed" `Quick
      test_lifecycle_never_closed;
    Alcotest.test_case "handle-lifecycle: double close" `Quick
      test_lifecycle_double_close;
    Alcotest.test_case "handle-lifecycle: use after close" `Quick
      test_lifecycle_use_after_close;
    Alcotest.test_case "handle-lifecycle: exception-path leak" `Quick
      test_lifecycle_exception_path;
    Alcotest.test_case "handle-lifecycle: Fun.protect bracket clean" `Quick
      test_lifecycle_bracket_ok;
    Alcotest.test_case "handle-lifecycle: escaped handle untracked" `Quick
      test_lifecycle_escape_ok;
    Alcotest.test_case "handle-lifecycle: pool never shut down" `Quick
      test_lifecycle_pool_never_shutdown;
    Alcotest.test_case "handle-lifecycle: pragma suppresses" `Quick
      test_lifecycle_pragma;
    Alcotest.test_case "handle-lifecycle: session leaked" `Quick
      test_lifecycle_session_leaked;
    Alcotest.test_case "handle-lifecycle: session closed outside bracket"
      `Quick test_lifecycle_session_outside_bracket;
    Alcotest.test_case "handle-lifecycle: session bracket clean" `Quick
      test_lifecycle_session_bracket_ok;
    Alcotest.test_case "handle-lifecycle: double finalize" `Quick
      test_lifecycle_stmt_double_finalize;
    Alcotest.test_case "handle-lifecycle: step after finalize" `Quick
      test_lifecycle_stmt_step_after_finalize;
    Alcotest.test_case "handle-lifecycle: statement never finalized" `Quick
      test_lifecycle_stmt_never_finalized;
    Alcotest.test_case "handle-lifecycle: session pragma suppresses" `Quick
      test_lifecycle_session_pragma;
    Alcotest.test_case "handle-lifecycle: wal leaked" `Quick
      test_lifecycle_wal_leaked;
    Alcotest.test_case "handle-lifecycle: wal closed outside bracket" `Quick
      test_lifecycle_wal_outside_bracket;
    Alcotest.test_case "handle-lifecycle: wal bracket clean" `Quick
      test_lifecycle_wal_bracket_ok;
    Alcotest.test_case "handle-lifecycle: wal double close" `Quick
      test_lifecycle_wal_double_close;
    Alcotest.test_case "pragma above an attribute line" `Quick
      test_pragma_above_attribute;
    Alcotest.test_case "pragma above a doc comment" `Quick
      test_pragma_above_doc_comment;
    Alcotest.test_case "pragma does not cross a blank line" `Quick
      test_pragma_blank_line_breaks;
    Alcotest.test_case "--timings payload covers every pass" `Quick
      test_timings_payload;
    Alcotest.test_case "--timings flag in text output" `Quick
      test_timings_flag;
    Alcotest.test_case "--explain prints rationale and example" `Quick
      test_explain_flag;
    Alcotest.test_case "pragma above a multi-line attribute" `Quick
      test_pragma_above_multiline_attribute;
    Alcotest.test_case "pragma above attribute with trailing bracket" `Quick
      test_pragma_above_multiline_attribute_trailing_bracket;
  ]
