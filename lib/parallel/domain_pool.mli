(** A fixed-size pool of OCaml 5 domains with a deterministic
    chunk-grid discipline.

    The repository's parallelism contract (DESIGN.md §10) is that
    {e results are bit-identical for any domain count}. The pool supplies
    the execution half of that contract: callers split work into a fixed
    {e chunk grid} whose geometry depends only on the problem size (never
    on the domain count), each chunk computes an independent partial
    result (with its own {!Prng} stream where randomness is involved)
    into a preallocated slot, and the caller folds the partials {e on the
    calling domain, in chunk-index order}. Which domain executed which
    chunk — and in what interleaving — then cannot influence a single bit
    of the answer; it only influences wall time.

    Chunks are claimed dynamically (an atomic counter), so uneven chunk
    costs load-balance automatically. The caller participates in chunk
    execution, so a pool of [n] domains applies [n] cores, not [n + 1]
    and not [n - 1]; [create ~domains:1] spawns nothing and runs every
    chunk inline on the caller — the serial path with zero
    synchronisation overhead.

    This module is the only place in the repository allowed to call
    [Domain.spawn] (enforced by cslint rule R7): keeping domain creation
    centralised is what keeps the determinism contract auditable.

    {2 Utilization accounting}

    The pool keeps per-domain cumulative accounting — chunks executed,
    busy seconds (inside chunk functions), queue-wait seconds
    (submission to first claim), idle seconds (the rest of each job's
    window) and caller-side merge seconds — folded into compensated
    totals on the caller after each job's completion barrier, so the
    accounting is as race-free as the results. {!utilization} reports
    it post-run; {!publish} mirrors the aggregates into an
    {!Obs_metrics} registry as [pool.*] {e gauges} (never counters:
    the values are wall-time-like and must stay out of the
    deterministic counter comparisons the trace-diff and snapshot
    gates perform). Deterministic invariants of the report — total
    chunks equals chunks submitted, {!chunk_order_violations} is 0 —
    hold for any domain count; the time splits are where the
    26ms-vs-6.8ms question lives (fixed overhead vs idle vs merge). *)

type t
(** A pool. One parallel operation may be in flight at a time; the pool
    survives exceptions in tasks and is reusable until {!shutdown}. *)

val max_domains : int
(** The largest pool {!create} accepts: 128. *)

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (the caller is
    the remaining worker). Requires [1 <= domains <= max_domains]. Call
    {!shutdown} when done — worker domains are not garbage-collected. *)

val domains : t -> int
(** The domain count the pool was created with (including the caller). *)

val parallel_for : t -> chunks:int -> (int -> unit) -> unit
(** [parallel_for t ~chunks f] runs [f 0 .. f (chunks - 1)], distributed
    over the pool's domains, and returns when all calls have finished.
    [f] must only write state disjoint per chunk index (e.g. slices of a
    preallocated array).

    If one or more chunks raise, every remaining chunk still runs (or is
    abandoned unclaimed), the pool is left reusable, and the exception of
    the {e lowest-indexed} failing chunk is re-raised on the caller with
    its original backtrace — the same exception a serial in-order
    execution would have surfaced first.

    Nested or concurrent [parallel_for] calls on the same pool are a
    programming error and raise [Invalid_argument]. *)

val shutdown : t -> unit
(** Join and release the worker domains. Idempotent. Using the pool
    after shutdown raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] is [f (create ~domains)] with a guaranteed
    {!shutdown}, also on exceptions. *)

val run :
  ?pool:t -> ?domains:int -> ?metrics:Obs_metrics.t -> chunks:int ->
  (int -> unit) -> unit
(** [run ?pool ?domains ?metrics ~chunks f] is the execution front-end
    the instrumented hot paths share: with [?pool] it is
    [parallel_for pool ~chunks f]; otherwise with [?domains] [> 1] it
    runs on a transient pool ({!with_pool}); otherwise (the default) it
    is a plain inline [for] loop with zero pool machinery. Because every
    caller splits on the same fixed chunk grid, all three routes produce
    bit-identical results.

    With [?metrics], utilization is mirrored into the registry as
    [pool.*] gauges after the chunks complete: a persistent pool
    {!publish}es its cumulative totals (idempotent across reuse), while
    the transient and inline routes add this run's totals to the
    registry's running aggregates — either way the registry holds
    consistent totals for the process's chosen execution mode. *)

(** {1 Utilization} *)

type domain_stat = {
  d_domain : int;
  d_chunks : int;  (** chunks this domain executed *)
  d_busy_s : float;  (** seconds inside chunk functions *)
  d_idle_s : float;  (** seconds awake but chunk-less during jobs *)
  d_queue_wait_s : float;  (** seconds from job submission to first claim *)
  d_merge_s : float;
      (** caller-side merge seconds ({!note_merge}); domain 0 only *)
}

val utilization : t -> domain_stat array
(** Cumulative per-domain accounting since {!create}, indexed by domain
    (0 is the caller). Read it between jobs — never while a
    [parallel_for] is in flight. *)

val runs : t -> int
(** Jobs completed (parallel and serial-path alike). *)

val chunk_order_violations : t -> int
(** Chunks observed executed twice or not at all — 0 unless the claim
    protocol is broken. Health rules pin this at 0. *)

val merge_seconds : t -> float
(** Total caller-side merge time recorded via {!note_merge}. *)

val note_merge :
  ?pool:t -> ?metrics:Obs_metrics.t -> seconds:float -> unit -> unit
(** Record [seconds] of caller-side merge/gather time: added to the
    pool's cumulative total when [?pool] is given (and re-published to
    the [pool.merge_seconds] gauge when [?metrics] is too), otherwise
    added directly to the gauge. Merging happens on the caller in
    chunk-index order, outside any chunk, which is why it is not part
    of busy time. *)

val publish : t -> Obs_metrics.t -> unit
(** Overwrite the [pool.domains], [pool.runs], [pool.chunks],
    [pool.busy_seconds], [pool.idle_seconds],
    [pool.queue_wait_seconds], [pool.merge_seconds] and
    [pool.chunk_order_violations] gauges with the pool's cumulative
    totals (domains summed). Idempotent; call after any batch of
    jobs. *)
