(* Shared untyped-AST helpers for the per-file rules (Lint) and the
   whole-program passes (Callgraph / Exn_escape). *)

open Parsetree

(* Peel constraints/coercions so shape checks see the real expression. *)
let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) | Pexp_newtype (_, e') ->
      strip e'
  | _ -> e

let pattern_vars pat =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it pat;
  !acc

(* ["Geom"; "Vec"; "norm"] for [Geom.Vec.norm]. Functor applications
   keep only the head path — the whole-program passes treat them as
   opaque anyway. *)
let rec lid_comps = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> lid_comps p @ [ s ]
  | Longident.Lapply (a, _) -> lid_comps a

let last_comp lid =
  match List.rev (lid_comps lid) with [] -> "" | v :: _ -> v

let loc_str (loc : Location.t) =
  let p = loc.Location.loc_start in
  Printf.sprintf "%s:%d" p.Lexing.pos_fname p.Lexing.pos_lnum
