(* Whole-program source loader.

   Parses every [.ml] / [.mli] under the given paths into a module
   map, tagging each file with the dune library that owns it (name,
   wrapper module, declared dependencies). The library metadata drives
   conservative cross-module resolution in {!Callgraph}: a file may
   only reference modules of its own library, of libraries its dune
   stanza depends on, or of unwrapped libraries — exactly the
   visibility dune itself enforces. Directories without a dune file
   (ad-hoc fixture dirs, single-file CLI invocations) get unrestricted
   visibility instead of none, which errs toward finding more edges. *)

type kind = Impl | Intf

type file = {
  path : string;
  modname : string;  (** "Engine" for [lib/core/engine.ml] *)
  library : string;  (** dune library name, or the directory basename *)
  wrapper : string option;  (** [Some "Iq"] for wrapped libraries *)
  is_library : bool;  (** a dune [(library ...)] stanza owns this dir *)
  deps : string list option;  (** declared library deps; [None] = unrestricted *)
  kind : kind;
  source : string;
  str : Parsetree.structure option;
  sg : Parsetree.signature option;
  parse_failed : bool;
}

type t = {
  files : file list;  (** sorted by path *)
  lib_mods : (string, string list) Hashtbl.t;  (** library -> module names *)
  wrappers : (string, string) Hashtbl.t;  (** wrapper module -> library *)
  unwrapped : (string, string) Hashtbl.t;  (** module -> unwrapped library *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------------- dune metadata ----------------------------- *)

type sexp = Atom of string | List of sexp list

let parse_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let rec skip () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | ';' ->
          while !pos < n && src.[!pos] <> '\n' do
            incr pos
          done;
          skip ()
      | _ -> ()
  in
  let atom () =
    if src.[!pos] = '"' then begin
      incr pos;
      let buf = Buffer.create 16 in
      while !pos < n && src.[!pos] <> '"' do
        if src.[!pos] = '\\' && !pos + 1 < n then incr pos;
        Buffer.add_char buf src.[!pos];
        incr pos
      done;
      if !pos < n then incr pos;
      Buffer.contents buf
    end
    else begin
      let start = !pos in
      while
        !pos < n
        && not
             (match src.[!pos] with
             | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> true
             | _ -> false)
      do
        incr pos
      done;
      String.sub src start (!pos - start)
    end
  in
  let rec value () =
    skip ();
    if !pos >= n then None
    else if src.[!pos] = '(' then begin
      incr pos;
      let rec items acc =
        skip ();
        if !pos >= n then Some (List (List.rev acc))
        else if src.[!pos] = ')' then begin
          incr pos;
          Some (List (List.rev acc))
        end
        else match value () with Some v -> items (v :: acc) | None -> Some (List (List.rev acc))
      in
      items []
    end
    else if src.[!pos] = ')' then begin
      (* stray close — skip it *)
      incr pos;
      value ()
    end
    else Some (Atom (atom ()))
  in
  let rec top acc =
    match value () with Some v -> top (v :: acc) | None -> List.rev acc
  in
  top []

type dir_info = {
  di_lib : string;
  di_wrapper : string option;
  di_is_library : bool;
  di_deps : string list option;
}

let field name = function
  | List (Atom f :: rest) when f = name -> Some rest
  | _ -> None

let atoms l =
  List.filter_map (function Atom a -> Some a | List _ -> None) l

let dir_info dir =
  let dune = Filename.concat dir "dune" in
  let fallback =
    let base = Filename.basename dir in
    let base = if base = "" || base = "." || base = "/" then "adhoc" else base in
    { di_lib = base; di_wrapper = None; di_is_library = false; di_deps = None }
  in
  if not (Sys.file_exists dune) then fallback
  else
    match parse_sexps (read_file dune) with
    | exception Sys_error _ -> fallback
    | stanzas -> (
        let libraries_of fields =
          List.concat_map
            (fun s -> match field "libraries" s with Some l -> atoms l | None -> [])
            fields
        in
        let lib_stanza =
          List.find_map
            (function
              | List (Atom "library" :: fields) -> Some fields
              | _ -> None)
            stanzas
        in
        match lib_stanza with
        | Some fields ->
            let name =
              List.find_map
                (fun s ->
                  match field "name" s with Some [ Atom n ] -> Some n | _ -> None)
                fields
            in
            let unwrapped =
              List.exists
                (fun s ->
                  match field "wrapped" s with
                  | Some [ Atom "false" ] -> true
                  | _ -> false)
                fields
            in
            let name = Option.value name ~default:fallback.di_lib in
            {
              di_lib = name;
              di_wrapper =
                (if unwrapped then None else Some (String.capitalize_ascii name));
              di_is_library = true;
              di_deps = Some (libraries_of fields);
            }
        | None ->
            (* Executable / test directory: union every stanza's deps. *)
            let deps =
              List.concat_map
                (function
                  | List (Atom ("executable" | "executables" | "test" | "tests") :: fields)
                    ->
                      libraries_of fields
                  | _ -> [])
                stanzas
            in
            { fallback with di_deps = Some deps })

(* ---------------------- loading ----------------------------------- *)

let collect_sources paths =
  let rec go path acc =
    if not (Sys.file_exists path) then acc
    else if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if String.length name = 0 || name.[0] = '.' || name = "_build" then
               acc
             else go (Filename.concat path name) acc)
           acc
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then path :: acc
    else acc
  in
  List.fold_left (fun acc p -> go p acc) [] paths
  |> List.sort_uniq String.compare

let parse_with parser ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  parser lexbuf

let parse_impl = parse_with Parse.implementation

(* [(structure, signature, parse_failed)] for one source file. *)
let parse ~path kind source =
  match kind with
  | Impl -> (
      match parse_impl ~file:path source with
      | ast -> (Some ast, None, false)
      | exception (Syntaxerr.Error _ | Lexer.Error _) -> (None, None, true))
  | Intf -> (
      match parse_with Parse.interface ~file:path source with
      | sg -> (None, Some sg, false)
      | exception (Syntaxerr.Error _ | Lexer.Error _) -> (None, None, true))

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension
  |> String.capitalize_ascii

let load paths =
  let sources = collect_sources paths in
  let dirs = Hashtbl.create 16 in
  let info_of_dir dir =
    match Hashtbl.find_opt dirs dir with
    | Some i -> i
    | None ->
        let i = dir_info dir in
        Hashtbl.add dirs dir i;
        i
  in
  let load_one path =
    let di = info_of_dir (Filename.dirname path) in
    let kind = if Filename.check_suffix path ".mli" then Intf else Impl in
    let source = try read_file path with Sys_error _ -> "" in
    let str, sg, parse_failed = parse ~path kind source in
    {
      path;
      modname = modname_of_path path;
      library = di.di_lib;
      wrapper = di.di_wrapper;
      is_library = di.di_is_library;
      deps = di.di_deps;
      kind;
      source;
      str;
      sg;
      parse_failed;
    }
  in
  let files = List.map load_one sources in
  let lib_mods = Hashtbl.create 16 in
  let wrappers = Hashtbl.create 16 in
  let unwrapped = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let mods =
        Option.value (Hashtbl.find_opt lib_mods f.library) ~default:[]
      in
      if not (List.mem f.modname mods) then
        Hashtbl.replace lib_mods f.library (f.modname :: mods);
      (match f.wrapper with
      | Some w -> Hashtbl.replace wrappers w f.library
      | None -> ());
      if f.is_library && f.wrapper = None then
        Hashtbl.replace unwrapped f.modname f.library)
    files;
  { files; lib_mods; wrappers; unwrapped }

let lib_has_module t lib m =
  match Hashtbl.find_opt t.lib_mods lib with
  | Some mods -> List.mem m mods
  | None -> false
