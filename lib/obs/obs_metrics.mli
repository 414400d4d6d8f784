(** A zero-dependency metrics registry: named counters, gauges, and
    log-scale histograms with quantile extraction, plus a monotonic-clock
    span timer.

    Hot paths hold direct references to their instruments (one registry
    lookup at setup, then a field update per event); the {!Obs} facade
    adds the name-at-call-site convenience layer and the "disabled costs
    one branch" guarantee on top.

    Histograms use geometric buckets: an observation [v > 0] lands in
    bucket [⌊ln v / ln γ⌋] where [γ = (1 + α)/(1 − α)] for the registry's
    relative accuracy [α] (default 1%), so {!quantile} answers are exact
    in rank and within relative error [α] in value — the DDSketch
    guarantee. Buckets live in one dense, preallocated [int array]
    spanning the observed index range (proportional to the log of the
    dynamic range, not to the observation count), grown geometrically on
    range extension; together with a one-slot bucket-index memo for
    repeated values, {!observe} allocates nothing on the hot path. Exact
    zeros are counted separately; [min]/[max]/[sum] are tracked
    exactly. *)

type t
(** A registry. Instruments are created on first use of a name; a name
    denotes one kind of instrument for the registry's lifetime. *)

type counter
type gauge
type histogram

val create : ?accuracy:float -> unit -> t
(** [create ()] is an empty registry. [accuracy] (default [0.01]) is the
    relative quantile error of histograms subsequently created in it.
    Requires [0 < accuracy < 1]. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** Find-or-create. @raise Invalid_argument if [name] exists as another
    instrument kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float
(** Last value set; [nan] before the first {!set}. *)

(** {1 Histograms} *)

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** @raise Invalid_argument on negative or non-finite values. *)

val n_observations : histogram -> int
val sum : histogram -> float

val mean : histogram -> float
(** [nan] when empty. *)

val quantile : histogram -> q:float -> float
(** Linearly ranked [q]-quantile over the bucketed observations, within
    the registry's relative accuracy; answers are clamped to the exact
    observed [[min, max]], and [q = 0] / [q = 1] return those exact
    extremes. Requires [0 <= q <= 1].
    @raise Invalid_argument on an empty histogram or [q] out of range. *)

val hist_min : histogram -> float
val hist_max : histogram -> float
(** Exact extremes; [nan] when empty. *)

(** {1 Merging} *)

val accuracy : t -> float
(** The relative quantile accuracy the registry was created with. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds every instrument of [src] into [into],
    find-or-creating by name: counters add, gauges take [src]'s value
    when it has ever been set, histograms add bucket-by-bucket (exact in
    rank — both registries must have the same {!accuracy}, or the merge
    raises [Invalid_argument]). [src] is left untouched. The parallel
    execution layer gives each worker chunk a private registry and merges
    them through this in chunk-index order, so metrics stay race-free and
    deterministic for any domain count. *)

(** {1 Span timer} *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f ()] and observes its duration in seconds
    ({!Obs_clock}) into histogram [name]. Exceptions propagate; the span
    is recorded either way. *)

(** {1 Snapshots} *)

type hist_stats = {
  hs_count : int;
  hs_sum : float;
  hs_mean : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}
(** Frozen summary of one histogram; the float fields are [nan] when the
    histogram was empty. *)

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_stats) list;
}
(** Immutable, name-sorted copy of a registry's state at one instant. *)

val snapshot : t -> snapshot
(** Freeze the registry's current state. O(instruments); the registry
    keeps running. *)

(** {1 Export} *)

val to_json : t -> Jsonx.t
(** Self-describing snapshot: [{"counters": {...}, "gauges": {...},
    "histograms": {name: {n, sum, mean, min, max, p50, p90, p99}}}],
    keys sorted. *)

val pp : Format.formatter -> t -> unit
(** Deterministic (name-sorted) human-readable dump, one instrument per
    line, prefixed [counter]/[gauge]/[hist]. *)
