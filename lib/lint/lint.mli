(** iqlint — static analysis over the improvement-queries sources.

    Two layers of rules, each individually toggleable and suppressible
    with a [(* iqlint: allow <rule-id> *)] comment on the finding's
    line or the line directly above (only tokens that are actual rule
    ids count; trailing commentary is ignored; attributes and one-line
    comments between the pragma and the code it governs are
    transparent).

    Per-file rules:

    - [handle-lifecycle]: open→use→close typestate for [Parallel]
      pools and stdlib channels — use after close/shutdown, double
      close, a handle never closed on some path, or a close outside a
      [Fun.protect ~finally] bracket that leaks on the exception path.
    - [float-exact-compare]: polymorphic [=], [<>], [compare], [min],
      [max] where an operand is a float literal or an application of a
      known float-returning primitive.
    - [partial-function]: [List.hd], [List.tl], [List.nth],
      [Option.get], [Hashtbl.find], [Array.unsafe_get].
    - [catch-all-handler]: [try ... with _ ->] outside test code.
    - [forbidden-escape]: [Obj.magic] or [assert false] outside test
      code.

    Whole-program rules (computed over a cross-module call graph; see
    DESIGN.md "Whole-program lint" and "Protocol analysis" for the
    conservative approximations):

    - [engine-boundary-raise]: a value exported by an [Engine] [.mli]
      whose implementation can raise instead of returning an
      [Error.t] result ([*_exn] values are exempt by convention).
    - [dead-export]: a [.mli] value of a dune library never referenced
      outside its own module.

    The search loops' budget discipline is not a rule: it holds by
    construction, in the one driver every greedy search runs on
    ([Iq.Candidates.iterate]). Neither is domain safety: the only
    public pool primitive, [Parallel.map_array], takes tasks that
    return their value, and the cross-domain determinism tests guard
    that no task writes shared state.

    The linter itself runs on one domain: it parses, builds the call
    graph and runs every pass sequentially, so its output depends on
    nothing but the sources.

    Findings have one rendering, {!pp_finding}'s text line. Nothing is
    tolerated: any unsuppressed finding fails [dune build @lint], and
    [dune runtest] depends on that alias. *)

type finding = Report.finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : string;  (** rule id, e.g. ["float-exact-compare"] *)
  message : string;
      (** a finding that depends on a second site (the open of a leaked
          handle, the first of two closes) names its line here *)
}

val all_rules : (string * string) list
(** [(rule-id, one-line description)] for every rule. *)

val explain : Format.formatter -> string -> bool
(** [explain out id] prints the rule's rationale, a minimal firing
    example and its suppression pragma (the payload behind
    [--explain]); [false] if [id] is not a known rule. *)

val compare_finding : finding -> finding -> int
(** Position order: file, line, col, rule. *)

val pp_finding : Format.formatter -> finding -> unit
(** Renders as [file:line:col [rule-id] message]. *)

val lint_source :
  ?enabled:(string -> bool) -> file:string -> string -> finding list
(** Per-file rules over source text [src] attributed to [file].
    [enabled] filters rule ids (default: all on). Unsuppressed
    findings, sorted by position. A file whose path contains a [test]
    directory segment skips the [catch-all-handler] and
    [forbidden-escape] rules and the lifecycle exception-path check. *)

val lint_file : ?enabled:(string -> bool) -> string -> finding list
(** [lint_source] over a file's contents. *)

val lint_paths : ?enabled:(string -> bool) -> string list -> finding list
(** Whole-program lint: loads every [.ml]/[.mli] under the given
    files/directories (recursively; skips [_build] and
    dot-directories) into a project, runs the per-file rules on each
    implementation and the whole-program rules on the cross-module
    call graph. *)

val lint_paths_timed :
  ?enabled:(string -> bool) ->
  string list ->
  finding list * (string * float) list
(** [lint_paths] plus per-pass wall times (pass name, seconds) in pass
    order — the payload behind [--timings]. *)

val main : ?out:Format.formatter -> string list -> int
(** CLI driver: [main args] (argv without the program name) prints
    findings to [out] and returns the exit code — 0 clean, 1 findings,
    2 usage error. Supports [--rules], [--disable], [--list-rules],
    [--timings], [--explain rule-id] and [--help]; default paths are
    [lib bin bench examples test]. The run is sequential on the
    calling domain; [IQ_DOMAINS] does not affect it. There is no
    baseline: any unsuppressed finding fails the run. *)
