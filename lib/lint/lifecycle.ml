(* handle-lifecycle: open → use → close typestate for pools and
   channels.

   Tracked resources are let-bound results of [Parallel.create], the
   stdlib [open_in*]/[open_out*] family, the serving-session family
   ([Session.open_]/[Session.open_exn] and [Session.prepare]), and the
   durable write-ahead log ([Wal.open_]); their closers are
   [Parallel.shutdown], [close_in*]/[close_out*],
   [Session.close]/[Session.finalize], and [Wal.close].
   Per function body, each resource variable moves through

     Open {used} --close--> Closed --close--> (double-close)
                  \--use after Closed--------> (use-after-close)

   with two leak checks: a resource still [Open] at the function's
   exit that never escaped is never-closed; a close that is not the
   [~finally] of a [Fun.protect] bracket, on a handle that has been
   used, leaks on the exception path between open and close (the
   sqlite-simple/sqlheavy bracket idiom — suppressed in test files,
   where bodies run under the harness's own wrapper).

   Escape hatches keep the rule quiet where ownership moves: a
   resource mentioned outside an argument position (returned, stored,
   captured) becomes untracked, and a variable whose branches disagree
   (closed on one path, open on the other) joins to untracked rather
   than guessing. Module-level pools (top-level bindings) are never
   tracked — they live for the process and are closed by [at_exit]
   conventions. *)

open Parsetree

let rule_id = "handle-lifecycle"

module SMap = Map.Make (String)

type state =
  | Open of { kind : string; oloc : Location.t; used : bool }
  | Closed of Location.t
  | Escaped

type st = state SMap.t

let state_equal a b =
  match (a, b) with
  | Open a, Open b -> a.kind = b.kind && a.oloc = b.oloc && a.used = b.used
  | Closed a, Closed b -> a = b
  | Escaped, Escaped -> true
  | _ -> false

let join_state a b =
  match (a, b) with
  | Open a', Open b' when a'.kind = b'.kind && a'.oloc = b'.oloc ->
      Open { a' with used = a'.used || b'.used }
  | Closed _, Closed _ -> a
  | Escaped, _ | _, Escaped -> Escaped
  | _ ->
      (* Closed on one path, open on the other: conditional ownership
         we cannot prove either way — stop tracking. *)
      Escaped

let join a b =
  SMap.union (fun _ x y -> Some (join_state x y)) a b

let equal = SMap.equal state_equal

(* ---------------------- resource tables --------------------------- *)

let in_chans = [ "open_in"; "open_in_bin"; "open_in_gen" ]
let out_chans = [ "open_out"; "open_out_bin"; "open_out_gen" ]

let stdlibish = function
  | [ _ ] | [ "Stdlib"; _ ] | [ "In_channel"; _ ] | [ "Out_channel"; _ ] ->
      true
  | _ -> false

(* [creator e] — Some kind when [e] is an application of a tracked
   resource constructor. *)
let creator e =
  match (Ast_util.strip e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match (Ast_util.strip f).pexp_desc with
      | Pexp_ident { txt; _ } -> (
          let comps = Ast_util.lid_comps txt in
          let last = Ast_util.last_comp txt in
          if last = "create" && List.mem "Parallel" comps then Some "pool"
          else if
            (last = "open_" || last = "open_exn") && List.mem "Session" comps
          then Some "session"
          else if last = "prepare" && List.mem "Session" comps then
            Some "prepared statement"
          else if last = "open_" && List.mem "Wal" comps then
            Some "write-ahead log"
          else if List.mem last in_chans && stdlibish comps then
            Some "input channel"
          else if List.mem last out_chans && stdlibish comps then
            Some "output channel"
          else None)
      | _ -> None)
  | _ -> None

let closer lid =
  let comps = Ast_util.lid_comps lid in
  let last = Ast_util.last_comp lid in
  if last = "shutdown" && List.mem "Parallel" comps then true
  else if (last = "close" || last = "finalize") && List.mem "Session" comps
  then true
  else if last = "close" && List.mem "Wal" comps then true
  else
    List.mem last
      [ "close_in"; "close_in_noerr"; "close_out"; "close_out_noerr"; "close" ]
    && stdlibish comps

let bare_arg a =
  match (Ast_util.strip a).pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | _ -> None

(* ---------------------- bracket pre-scan -------------------------- *)

(* Names closed inside some [Fun.protect ~finally:...] of this body:
   their close is exception-safe, so no exception-path report. *)
let bracketed_names body =
  let acc = ref [] in
  let scan_finally fin =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
              when closer txt -> (
                match args with
                | (_, a) :: _ -> (
                    match bare_arg a with
                    | Some v -> acc := v :: !acc
                    | None -> ())
                | [] -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it fin
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply
              ( {
                  pexp_desc =
                    Pexp_ident
                      {
                        txt = Longident.Ldot (Longident.Lident "Fun", "protect");
                        _;
                      };
                  _;
                },
                args ) ->
              List.iter
                (fun (lbl, a) ->
                  match lbl with
                  | Asttypes.Labelled "finally" -> scan_finally a
                  | _ -> ())
                args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body;
  !acc

(* ---------------------- the analysis ------------------------------ *)

let findings ~in_test ~file str =
  let out = ref [] in
  let emit loc message = out := Report.mk ~file loc rule_id message :: !out in
  let analyze (_name, body, _bloc) =
    let bracketed = bracketed_names body in
    let on_bind st vars rhs =
      let st = List.fold_left (fun st v -> SMap.remove v st) st vars in
      match (vars, rhs) with
      | [ v ], Some r -> (
          match creator r with
          | Some kind ->
              SMap.add v (Open { kind; oloc = r.pexp_loc; used = false }) st
          | None -> st)
      | _ -> st
    in
    let on_apply st lid loc args =
      if closer lid then
        match args with
        | (_, a) :: _ -> (
            match bare_arg a with
            | Some v -> (
                match SMap.find_opt v st with
                | Some (Closed first) ->
                    emit loc
                      (Printf.sprintf
                         "`%s` is closed twice (first closed at line %d); the \
                          second close races or raises depending on the \
                          resource"
                         v (Report.line_of first));
                    st
                | Some (Open { kind; oloc; used }) ->
                    if used && (not (List.mem v bracketed)) && not in_test then
                      emit loc
                        (Printf.sprintf
                           "%s `%s` (opened at line %d) is closed outside a \
                            Fun.protect bracket; an exception raised between \
                            open and close leaks it — close it in ~finally"
                           kind v (Report.line_of oloc));
                    SMap.add v (Closed loc) st
                | Some Escaped -> SMap.add v (Closed loc) st
                | None -> st)
            | None -> st)
        | [] -> st
      else
        List.fold_left
          (fun st (_, a) ->
            match bare_arg a with
            | None -> st
            | Some v -> (
                match SMap.find_opt v st with
                | Some (Closed cloc) ->
                    emit a.pexp_loc
                      (Printf.sprintf
                         "`%s` is used after it was closed/shut down (closed \
                          at line %d)"
                         v (Report.line_of cloc));
                    st
                | Some (Open o) -> SMap.add v (Open { o with used = true }) st
                | Some Escaped | None -> st))
          st args
    in
    let on_ident st lid _loc =
      match lid with
      | Longident.Lident x when SMap.mem x st -> SMap.add x Escaped st
      | _ -> st
    in
    let hooks =
      {
        (Typestate.default_hooks ~join ~equal) with
        Typestate.on_bind;
        on_apply;
        on_ident;
      }
    in
    let final = Typestate.exec hooks SMap.empty body in
    SMap.iter
      (fun v state ->
        match state with
        | Open { kind; oloc; _ } ->
            emit oloc
              (Printf.sprintf
                 "%s `%s` is never closed on some path through this function \
                  (no %s reaches the exit); close it, ideally in a \
                  Fun.protect ~finally bracket"
                 kind v
                 (match kind with
                 | "pool" -> "Parallel.shutdown"
                 | "session" -> "Session.close"
                 | "prepared statement" -> "Session.finalize"
                 | "write-ahead log" -> "Wal.close"
                 | _ -> "close"))
        | Closed _ | Escaped -> ())
      final
  in
  List.iter analyze (Typestate.top_bindings str);
  !out
