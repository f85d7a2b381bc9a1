(* Findings.

   One finding type is shared by the per-file rules and the
   whole-program analyses, rendered as [file:line:col [rule] message]
   lines. A finding that depends on a second location (the open site
   of a leaked handle, the first of two closes) names that location's
   line in its message. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.message

let mk ~file (loc : Location.t) rule message =
  let p = loc.Location.loc_start in
  {
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    message;
  }

(* 1-based line of a location, for messages that cite a second site. *)
let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
