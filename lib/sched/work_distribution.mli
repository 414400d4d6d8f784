(** The full probability distribution of an episode's banked work — the
    risk profile behind the paper's expectation objective.

    Under the draconian contract the banked work of schedule
    [S = t_0, ..., t_{m-1}] is a discrete random variable: it equals the
    cumulative work [W_k = Σ_{i<=k} (t_i ⊖ c)] exactly when the owner
    returns in [(T_k, T_{k+1}]] (and [W_{m-1}] when never returning within
    the support). Its law is therefore closed-form in [p]:

    [P(work = W_k) = p(T_k) − p(T_{k+1})], with [P(work = 0) = 1 − p(T_0)]
    and [P(work = W_{m-1}) = p(T_{m-1})].

    Expectations recover eq. 2.1 (the test suite enforces the identity),
    and quantiles/variance expose what the expectation hides: e.g. the
    all-or-nothing risk of long periods. Experiment E21 compares policies
    on this risk profile. *)

type t = {
  outcomes : (float * float) array;
      (** [(work, probability)] pairs, work strictly increasing, starting
          with the zero-work outcome when it has positive probability;
          probabilities sum to 1. *)
  mean : float;
  variance : float;
  stddev : float;
}

val of_schedule : Life_function.t -> c:float -> Schedule.t -> t
(** [of_schedule p ~c s] computes the exact law. Consecutive periods with
    equal cumulative work (unproductive periods) are merged into one
    outcome. Requires [c >= 0]. *)

val quantile : t -> q:float -> float
(** [quantile d ~q] is the smallest outcome [w] with [P(work <= w) >= q].
    Requires [0 <= q <= 1]. *)

val prob_zero : t -> float
(** [prob_zero d] is [P(work = 0)] — the chance the whole episode is
    wasted. *)
