(** Interpolation on sampled grids.

    Trace-estimated survival curves arrive as a monotone sequence of sample
    points; the scheduler needs a differentiable life function through them.
    The monotone cubic (Fritsch–Carlson PCHIP) interpolant preserves
    monotonicity — essential because a life function must decrease — while
    providing a continuous derivative for the recurrence engine. *)

type t
(** An interpolant over a fixed strictly-increasing knot grid. *)

exception Bad_grid of string
(** Raised by {!pchip} on unsorted, duplicated or too-short grids. *)

val pchip : xs:float array -> ys:float array -> t
(** [pchip ~xs ~ys] is the Fritsch–Carlson monotone piecewise-cubic Hermite
    interpolant: C¹, and monotone on every interval where the data are.
    Requires [xs] strictly increasing and arrays of equal length >= 2.
    @raise Bad_grid otherwise. *)

val eval : t -> float -> float
(** [eval ip x] evaluates the interpolant. Outside the grid, the boundary
    cubic is extrapolated; callers who need clamping should compose with
    {!val-domain}. *)

val derivative : t -> float -> float
(** [derivative ip x] is the exact derivative of the interpolant at [x]. *)

val domain : t -> float * float
(** [domain ip] is the [(min, max)] of the knot grid. *)

val knots : t -> (float * float) array
(** [knots ip] returns a copy of the defining points. *)
