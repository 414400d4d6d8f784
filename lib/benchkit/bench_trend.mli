(** Cross-run trend analytics over the bench trajectory.

    [BENCH_HISTORY.jsonl] accumulates one {!Bench_record.t} per timing
    run. This module extracts one benchmark's trajectory from it, fits
    a noise-aware slope, and locates the first significant adjacent
    jump — {e when} a metric moved and by how much.

    Advisory points — entries whose fit was not {!Bench_fit.reliable},
    recorded with ["advisory": true] — stay {e visible} in the
    trajectory but are excluded from the slope fit and from jump
    detection: a point whose own error bars are unbounded can neither
    steer a slope nor convict a commit. The slope itself reuses
    {!Bench_fit}'s conventions (Kahan-compensated sums,
    {!Bench_fit.min_samples} before r² is reported, [nan] over
    degenerate inputs) but regresses {e with} an intercept, because a
    trajectory's baseline cost is arbitrary — only its drift matters. *)

type point = {
  seq : int;  (** 0-based position in the history, oldest first. *)
  git_sha : string;
  unix_time : float;  (** As recorded by the timing run. *)
  ns_per_call : float;
  r_square : float;
  advisory : bool;
}

type trajectory = {
  metric : string;
  points : point list;  (** Oldest first; one per record naming [metric]. *)
  fit : Bench_fit.fit option;
      (** Slope in ns/run-index over the usable (non-advisory, finite)
          points; [None] when fewer than two are usable. [kept] counts
          usable points, [total] all points, so [total - kept] is the
          advisory/unusable tail the fit ignored. *)
}

val metrics_of : Bench_record.t list -> string list
(** All benchmark names appearing in any record, sorted, deduplicated —
    what [csbench trend] lists when asked for an unknown metric. *)

val trajectory : metric:string -> Bench_record.t list -> trajectory
(** Extract [metric]'s trajectory from a history (oldest first, as
    {!Bench_record.load_history} returns it). Records that do not carry
    the metric contribute no point but still advance [seq], so the
    x-axis stays aligned with history positions. *)

val slope_fit : (float * float) list -> Bench_fit.fit option
(** Least squares {e with intercept} over [(x, y)] pairs: [ns_per_run]
    is the slope, [r_square] the coefficient of determination ([nan]
    below {!Bench_fit.min_samples} points or at zero x-variance, per
    {!Bench_fit}'s conventions). [None] with fewer than two pairs. *)

type jump = {
  j_from : point;
  j_to : point;  (** First usable point whose ratio to [j_from] trips. *)
  j_ratio : float;  (** [j_to.ns_per_call /. j_from.ns_per_call]. *)
}

val first_jump : ?threshold:float -> trajectory -> jump option
(** First adjacent pair of {e usable} points whose ratio leaves
    [[1/threshold, threshold]] (default [1.25] — the same shape as
    {!Bench_gate}'s regression band). Advisory points are skipped, so a
    jump is always between two measured values. *)

val pp_trajectory : Format.formatter -> trajectory -> unit
(** Fixed-width table — seq, sha, ns/call, r², advisory marker — then
    the slope line ([per-step drift] with its r², or the reason no
    slope was fit). *)

val pp_jump : threshold:float -> Format.formatter -> jump option -> unit
(** The {!first_jump} verdict line: the jump's ratio, endpoints and
    values, or ["no jump beyond <threshold>x ..."] when there is none. *)
