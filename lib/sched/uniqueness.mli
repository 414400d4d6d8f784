(** A numerical probe of the paper's §6 open question: {e are optimal
    cycle-stealing schedules unique?}

    Theorem 3.1 reduces the question to initial periods: distinct optimal
    schedules must have distinct [t_0] (each [t_0] determines the rest via
    eq. 3.6). This probe therefore maps the value function
    [V(t_0) = E(recurrence-schedule from t_0; p)] over the Theorem 3.2/3.3
    bracket and reports the set of near-optimal [t_0] as clusters: a single
    narrow cluster is (numerical) evidence of uniqueness, several separated
    clusters would witness non-uniqueness.

    The paper notes each of its [3]-scenarios admits a unique optimal
    schedule, proved by scenario-specific arguments; experiment E17 runs
    this probe across all of them and finds a single cluster each time. *)

type cluster = {
  t0_low : float;  (** Left edge of the near-optimal t0 interval. *)
  t0_high : float;  (** Right edge. *)
  best_t0 : float;  (** The best sample inside the cluster. *)
  best_value : float;  (** Expected work at [best_t0]. *)
}

type probe = {
  clusters : cluster list;  (** Near-optimal clusters, left to right. *)
  max_value : float;  (** The global maximum of the value map. *)
  samples : int;  (** Grid resolution used. *)
  rel_tol : float;  (** Near-optimality threshold used. *)
}

val probe :
  ?samples:int -> ?rel_tol:float -> Life_function.t -> c:float -> probe
(** [probe p ~c] samples [V] on [samples] (default 512) grid points of the
    t0 bracket and clusters the points with
    [V >= (1 − rel_tol) · max V] (default [rel_tol] 1e-4; adjacent
    near-optimal grid points join the same cluster).
    Requires [0 < c < horizon p]. *)
