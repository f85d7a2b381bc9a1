(** iqlint — static analysis over the improvement-queries sources.

    Two layers of rules, each individually toggleable and suppressible
    with a [(* iqlint: allow <rule-id> *)] comment on the finding's
    line or the line directly above (only tokens that are actual rule
    ids count; trailing commentary is ignored; attributes and one-line
    comments between the pragma and the code it governs are
    transparent).

    Per-file rules:

    - [domain-unsafe-capture]: a closure passed to
      [Parallel.parallel_for]/[map_array] mutates ([:=], [<-],
      [Array.set] sugar, [incr]/[decr]) an identifier bound outside the
      closure without routing through [Atomic] or a [Mutex]. Lock-set
      aware: paths under [Mutex.lock]/[Mutex.protect] or a local lock
      wrapper, [parallel_for] writes indexed by the closure's own
      parameter (disjoint slots), and closures handed to a
      [~domains:1] pool are exempt.
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

    - [domain-unsafe-call]: a call from a Parallel pool closure to a
      function that (transitively) mutates shared state without
      [Atomic]/[Mutex].
    - [engine-boundary-raise]: a value exported by an [Engine] [.mli]
      whose implementation can raise instead of returning an
      [Error.t] result ([*_exn] values are exempt by convention).
    - [dead-export]: a [.mli] value of a dune library never referenced
      outside its own module.

    The search loops' budget discipline is not a rule: it holds by
    construction, in the one driver every greedy search runs on
    ([Iq.Candidates.iterate]). *)

type related = Report.related = {
  rl_file : string;
  rl_line : int;  (** 1-based *)
  rl_col : int;  (** 0-based *)
  rl_note : string;  (** why this location matters, e.g. "opened here" *)
}

type finding = Report.finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : string;  (** rule id, e.g. ["float-exact-compare"] *)
  message : string;
  related : related list;
      (** witness path: steps that explain the finding, rendered as
          SARIF [relatedLocations] *)
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

type format = Report.format = Text | Json | Sarif

val render : ?timings:(string * float) list -> format -> finding list -> string
(** Render a finding list as the given output document: plain text
    lines, an iqlint JSON report, or SARIF 2.1.0. [timings] (pass
    name, wall seconds) adds a [timings_ms] object to the JSON
    report; the other formats ignore it. *)

val lint_source :
  ?enabled:(string -> bool) -> file:string -> string -> finding list
(** Per-file rules over source text [src] attributed to [file].
    [enabled] filters rule ids (default: all on). Unsuppressed
    findings, sorted by position. A file whose path contains a [test]
    directory segment skips the [catch-all-handler] and
    [forbidden-escape] rules and the lifecycle exception-path check. *)

val lint_file : ?enabled:(string -> bool) -> string -> finding list
(** [lint_source] over a file's contents. *)

val lint_paths :
  ?enabled:(string -> bool) ->
  ?jobs:int ->
  ?pragmas:bool ->
  string list ->
  finding list
(** Whole-program lint: loads every [.ml]/[.mli] under the given
    files/directories (recursively; skips [_build] and
    dot-directories) into a project, runs the per-file rules on each
    implementation and the whole-program rules on the cross-module
    call graph. [jobs] sizes the worker pool (default
    [Parallel.default_domains ()], which honours [IQ_DOMAINS]); output
    is deterministic regardless of job count. [pragmas:false] ignores
    suppression comments (audit mode). *)

val parse_cache_stats : unit -> int * int * float
(** [(hits, misses, saved_seconds)] of the process-wide parsed-AST
    cache: repeated lints of unchanged sources (multiple passes, test
    suites, baseline rewrites) reuse the parse instead of re-running
    it; [saved_seconds] is the wall time the cached parses originally
    cost. Surfaced per run as the [parse-cache-saved] timings entry. *)

val lint_paths_timed :
  ?enabled:(string -> bool) ->
  ?jobs:int ->
  ?pragmas:bool ->
  string list ->
  finding list * (string * float) list
(** [lint_paths] plus per-pass wall times (pass name, seconds) in pass
    order — the payload behind [--timings]. *)

val main : ?out:Format.formatter -> string list -> int
(** CLI driver: [main args] (argv without the program name) prints
    findings to [out] and returns the exit code — 0 clean, 1 findings,
    2 usage error. Supports [--rules], [--disable], [--list-rules],
    [--format text|json|sarif], [--baseline file] (budgeted per-file,
    per-rule counts; growth past a budget is a ratchet failure),
    [--write-baseline file], [--prune-baseline file] (cap budgets at
    today's counts), [--jobs N], [--no-pragmas], [--timings],
    [--explain rule-id], [--help]; default paths are
    [lib bin bench examples test]. *)
