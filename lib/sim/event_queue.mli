(** A binary min-heap of timestamped events — the core of the discrete-
    event farm simulator.

    Events carry a [(time, tie)] priority: earlier times first, and among
    equal times the smaller [tie] rank first. The farm uses the tie rank to
    process period completions before owner returns at the same instant,
    matching the model convention that a period ending exactly when the
    owner reclaims still counts as completed. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val push : 'a t -> time:float -> tie:int -> 'a -> unit
(** [push q ~time ~tie e] inserts event [e]. Requires [time] finite. *)

val pop : 'a t -> (float * 'a) option
(** [pop q] removes and returns the earliest event (breaking time ties by
    the lower [tie], then insertion order) or [None] when empty. *)
