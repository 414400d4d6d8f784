(** SARIF 2.1.0 rendering of a lint run, paired with a validator for the
    exact subset of the grammar it emits — the same round-trip
    discipline as {!Obs_export}'s folded-stack validator, so the CI artifact is checked before it is uploaded.

    One run, one [tool.driver] (cslint) carrying the rule table, one
    [result] per finding. Columns are converted from cslint's 0-based
    to SARIF's 1-based convention. *)

val render :
  ?tool_version:string ->
  rules:Lint_rules.meta list ->
  findings:Lint_finding.t list ->
  warnings:Lint_finding.t list ->
  unit ->
  Jsonx.t
(** [findings] become [level:"error"] results, [warnings] (downgraded
    unused-suppression reports) [level:"warning"]. Rules referenced by
    a result but absent from [rules] (e.g. [E1]) are synthesized into
    the driver table so the file always validates. *)

val validate : Jsonx.t -> (int, string) result
(** Check the SARIF subset {!render} emits: [version] 2.1.0, a
    [$schema] URI, at least one run whose driver has a name and a rule
    table with unique ids, and every result carrying a declared
    [ruleId], a known [level], a non-empty [message.text] and one
    physical location with a non-empty [uri] and 1-based [startLine]/
    [startColumn]. Returns the result count. *)
