(** The paper's scheduling guidelines assembled into a scheduler.

    The recipe (§3, applied in §4): bracket the optimal initial period with
    Theorems 3.2/3.3, search that "manageably narrow" interval for the
    [t_0] whose recurrence-generated schedule has maximal expected work,
    and emit that schedule. This is exactly the workflow the paper
    prescribes to a practitioner; the independent {!Optimizer} exists to
    measure how close it lands. *)

type result = {
  schedule : Schedule.t;  (** The guideline-generated schedule. *)
  t0 : float;  (** The chosen initial period. *)
  expected_work : float;  (** [E(schedule; p)] per eq. 2.1. *)
  bracket : float * float;  (** The Theorem 3.2/3.3 search interval. *)
  stop : Recurrence.stop_reason;  (** Why generation ended. *)
}

val plan : ?obs:Obs.t -> Life_function.t -> c:float -> result
(** [plan p ~c] runs the full guideline pipeline: a 128-point grid search
    for [t_0] inside the bracket, then Brent refinement. Requires
    [0 < c < horizon p].

    [?obs] (default {!Obs.disabled}) records the planning step: a
    [Plan_computed] event (source ["guideline"], with the chosen [t_0],
    period count, expected work, and wall seconds spent) and the
    [plan.guideline_calls] / [plan.guideline_seconds] metrics. With a
    span recorder attached it also profiles where the time goes — a
    [guideline.plan] root span over [plan.bracket] (Thm 3.2/3.3),
    [plan.search], and per-candidate [plan.evaluate] /
    [recurrence.generate] / [plan.expected_work] children. The returned
    plan is unaffected.
    @raise Invalid_argument when [c] is out of range. *)

val plan_batch :
  ?pool:Domain_pool.t -> (Life_function.t * float) list -> result list
(** [plan_batch scenarios] is [List.map (fun (p, c) -> plan p ~c)
    scenarios], except the scenarios may run concurrently — one chunk per
    scenario on [?pool] (default inline). Plans are pure in [(p, c)], so
    the returned list is bit-identical for any domain count and keeps the
    input order. This is the batch entry point [csctl table] uses to sweep
    an overhead grid. *)

val next_period_online :
  Life_function.t -> c:float -> elapsed:float -> float option
(** [next_period_online p ~c ~elapsed] supports the §6 "progressive"
    mode: given that the workstation has survived to [elapsed], it plans
    against the conditional life function
    [s ↦ p(elapsed + s)/p(elapsed)] and returns only the first period of
    that plan, or [None] when no productive period remains. The simulator's
    adaptive policy calls this after every completed period. *)
