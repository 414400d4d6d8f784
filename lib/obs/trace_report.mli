(** Offline aggregation of a JSONL event trace back into the summary
    numbers a live run computes.

    [csctl simulate --trace FILE] (or any [Jsonl]-sinked run) produces a
    stream of {!Obs_event.t}; this module folds that stream into totals,
    per-workstation tables, kill rates, an overhead fraction, and
    period-length / episode-duration quantiles. The design contract —
    pinned by [test/test_obs.ml] — is that a trace {e round-trips}: the
    aggregate of the events equals the [Farm.report] / [Monte_carlo]
    numbers of the run that emitted them, to float tolerance. A trace is
    thus a complete scientific artifact of a run, not a lossy log. *)

type ws_summary = {
  ws : int;
  episodes : int;  (** [Episode_started] count. *)
  periods_completed : int;
  periods_killed : int;
  work_done : float;  (** Σ banked. *)
  work_lost : float;  (** Σ lost. *)
  overhead : float;  (** Σ overhead over completed and killed periods. *)
}

type t = {
  events : int;  (** Total events aggregated. *)
  sources : string list;  (** Distinct [Run_started] sources, in order. *)
  plans : (string * float * int * float) list;
      (** [Plan_computed] records: (source, t0, periods, expected_work). *)
  episodes_started : int;
  episodes_finished : int;
  episodes_interrupted : int;
  periods_dispatched : int;
  periods_completed : int;
  periods_killed : int;
  total_done : float;
  total_lost : float;
  total_overhead : float;
  pool_drained_at : float option;
  per_ws : ws_summary list;  (** Sorted by workstation id. *)
  period_lengths : float array;
      (** Length of every dispatched period, emission order. *)
  episode_durations : float array;
      (** [Episode_finished.time − Episode_started.time] for every
          matched (ws, ep) pair, emission order of the finish. *)
}

val of_events : Obs_event.t list -> t

val load : string -> (t, string) result
(** [load path] is {!Obs_query.load} followed by {!of_events}: the same
    parse and the same [file:line] errors (malformed lines, bad or
    duplicate meta headers), with the provenance header dropped — the
    summary is about the events. *)

val kill_rate : t -> float
(** Killed / (completed + killed); [0] when no period ever started. *)

val overhead_fraction : t -> float
(** Overhead / (done + lost + overhead) — the share of borrowed busy
    time spent communicating; [0] when nothing happened. *)

val pp : Format.formatter -> t -> unit
(** Deterministic multi-line summary: totals, quantiles
    ({!Stats.quantile} over the exact collected values, not bucketed),
    plan lines, and the per-workstation table. *)

(** {1 Span trees}

    The span-profiler side of the report: fold the flat span list of an
    {!Obs_span} recorder into a call tree with total and self wall time
    per (path, name) — the terminal-friendly complement of the Chrome
    trace export. *)

type span_node = {
  sn_name : string;
  sn_count : int;  (** Spans aggregated into this node. *)
  sn_total_us : float;  (** Σ duration of those spans. *)
  sn_self_us : float;
      (** Total minus the children's totals, clamped at 0 (clock
          granularity can make nested sums exceed the parent). *)
  sn_children : span_node list;  (** First-seen order. *)
}

val span_tree : Obs_span.span list -> span_node list
(** Group sibling spans (same parent path) by name, recursively. Spans
    whose [parent] is [-1] form the roots; pass the full
    [Obs_span.spans] list. *)

val pp_span_tree : Format.formatter -> span_node list -> unit
(** Fixed-width indented table: one line per node — total, self,
    call count. *)
