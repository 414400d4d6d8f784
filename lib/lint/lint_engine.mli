(** The cslint driver: parse sources with compiler-libs (once per file),
    run the rule set, honour [@lint.allow] suppressions, report the stale
    ones (M1), and enforce the .mli pairing rule over a file set.

    Everything here is pure over its inputs apart from {!lint_file},
    {!collect_files} and {!run}, which read the filesystem — tests
    exercise the rules through {!lint_source} with inline fixtures. *)

type report = { findings : Lint_finding.t list; suppressed : int }

val scope_of_path : string -> Lint_rules.scope
(** Classify a path: under [lib/], under [bench/], in the planning core,
    under [lib/obs/], or the PRNG module itself (either side of the pair
    — [prng.ml] and [prng.mli] are both exempt from R3). Leading "./" and backslash separators are
    normalized. *)

val lint_source : path:string -> string -> (report, string) result
(** [lint_source ~path content] lints one compilation unit held in
    memory — an implementation, or an interface when [path] ends in
    [.mli] (R3 on aliases/opens, attribute payloads, suppression
    spans). [path] determines rule scoping and appears in findings.
    Findings are sorted and include M1 reports for [@lint.allow]
    attributes that suppressed nothing; [suppressed] counts findings
    silenced by [@lint.allow]. Errors are unparsable source. *)

val lint_file : string -> (report, string) result
(** {!lint_source} over a file's contents. *)

val missing_mli_findings : string list -> Lint_finding.t list
(** Rule R5 over a file set, both directions: one finding per
    [lib/**/*.ml] with no matching [.mli] in the same set, and one per
    orphan [lib/**/*.mli] whose implementation is gone. *)

val collect_files : string list -> string list
(** Walk files and directories (skipping [_build] and dotted entries) and
    return the sorted [.ml]/[.mli] paths beneath them. Nonexistent paths
    contribute nothing; {!run} reports them. *)

type result = {
  all_findings : Lint_finding.t list;  (** Sorted, post-suppression. *)
  total_suppressed : int;
  errors : string list;
      (** Nonexistent paths, unreadable or unparsable files. *)
}

val run : string list -> result
(** [collect_files], lint each file, and append the R5 pairing check.
    A nonexistent path is an error naming it. *)
