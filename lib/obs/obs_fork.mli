(** Scatter/gather for observability handles across parallel chunks.

    The parallel execution layer ({!Domain_pool}) runs chunks of work on
    several domains at once, but {!Obs_metrics} registries, {!Obs_span}
    recorders, and event sinks are single-domain mutable structures. This
    module resolves the tension without locks: {!scatter} hands each
    chunk a {e private} child handle (fresh registry at the parent's
    accuracy, fresh recorder, event buffer), and {!gather} folds the
    children back into the parent {e in chunk-index order} after the
    join. The merged result is therefore identical for any domain count —
    the same determinism contract the rest of the layer keeps.

    When the parent is {!Obs.disabled} (or carries no sink, registry, or
    recorder), all children alias one shared disabled handle and
    {!gather} is a no-op, so uninstrumented runs pay nothing. *)

type children
(** The scattered child handles plus what {!gather} needs to fold them
    back. Use each child on at most one domain at a time. *)

val scatter : Obs.t -> n:int -> children
(** [scatter obs ~n] prepares [n] private child handles mirroring the
    shape of [obs]: a child has a metrics registry iff [obs] does (same
    accuracy), a span recorder iff [obs] does, and an event buffer iff
    [obs] is tracing. Requires [n >= 0]. *)

val child : children -> int -> Obs.t
(** The handle chunk [i] must use. *)

val gather : Obs.t -> children -> unit
(** Fold every child back into [obs], in chunk-index order: buffered
    events are replayed into the parent sink, registries are merged with
    {!Obs_metrics.merge}, recorders grafted with {!Obs_span.absorb}
    (under the parent's innermost open span, so wrap the parallel region
    in a span to group its chunks). Call once, after all chunks have
    finished; [obs] must be the same handle given to {!scatter}. Errors
    from the parent sink (a closed channel, a raising [Custom]) propagate
    — a failed write is an error, not a silent drop. *)
