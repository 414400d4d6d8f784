(** Synthetic owner-behaviour models.

    The paper assumes the reclaim-risk function is "garnered possibly from
    trace data that exposes B's owner's computer usage patterns" (§1). No
    1998 usage traces ship with this reproduction, so we synthesise them
    from explicit behavioural models with known ground truth; the E10
    experiment then measures how much scheduling quality survives the
    estimate-from-trace detour. Every generator produces absence durations
    (episode lifetimes), optionally right-censored as real monitoring
    systems would be at collection boundaries. *)

type observation = {
  duration : float;  (** Observed absence length. *)
  observed : bool;  (** [false] when censored (owner still away at the end
                        of the monitoring window). *)
}

type model =
  | Exponential_absence of { mean : float }
      (** Memoryless absences — ground truth for the geometric-decreasing
          scenario. *)
  | Uniform_absence of { max : float }
      (** Absences uniform on [[0, max]] — ground truth for uniform risk. *)
  | Weibull_absence of { shape : float; scale : float }
      (** Ageing (shape > 1) or bursty (shape < 1) absences. *)
  | Coffee_break of { typical : float; spread : float }
      (** Short absences with sharply increasing return risk, mimicking the
          §4.3 scenario: truncated normal around [typical]. *)
  | Day_night of {
      short_mean : float;
      long_mean : float;
      long_fraction : float;
    }
      (** Mixture of brief daytime absences and long overnight ones. *)

val sample : model -> Prng.t -> float
(** [sample m g] draws one absence duration (always [> 0]). An
    exponential mean (also the day-night means) must be finite and
    [> 0]. @raise Invalid_argument otherwise. *)

val collect :
  ?censor_at:float -> model -> Prng.t -> n:int -> observation array
(** [collect m g ~n] draws [n] absences; with [?censor_at] every draw
    exceeding the monitoring window is recorded as a censored observation
    of that length. Requires [n > 0]. *)

val true_life_function : model -> Life_function.t option
(** [true_life_function m] is the exact survival function of the model when
    it belongs to a family this library represents exactly
    ([Exponential_absence], [Uniform_absence], [Weibull_absence]); [None]
    for the mixture models, whose truth is only available empirically. *)
