(** Discrete (task-quantised) analogues of continuous schedules — the §6
    open question "can one show that our continuous guidelines yield
    valuable discrete analogues?", answered empirically by experiment E12.

    The paper's tasks are indivisible with known durations (§2.1); a real
    deployment must round each continuous period [t_k] down to
    [c + w_k·τ], where [τ] is the task duration and [w_k] the whole number
    of tasks that fit. This module performs that rounding and measures the
    expected-work loss. *)

type t = {
  schedule : Schedule.t;  (** The quantised schedule. *)
  tasks_per_period : int array;  (** [w_k] for each kept period. *)
  total_tasks : int;
  expected_work : float;
  continuous_expected_work : float;
      (** [E] of the input schedule, for loss reporting. *)
}

val quantize :
  Life_function.t -> c:float -> task:float -> Schedule.t -> t
(** [quantize p ~c ~task s] rounds every period of [s] to a whole number of
    tasks: periods that cannot fit even one task are dropped (their time is
    simply not scheduled — the discrete analogue of Prop 2.1's merge).
    Requires [task > 0] and [c >= 0].
    @raise Invalid_argument if no period of [s] fits a single task. *)

val efficiency : t -> float
(** [efficiency q] is [expected_work / continuous_expected_work], in
    [[0, 1]] up to rounding benefits (shorter periods complete earlier, so
    values slightly above 1 are possible when rounding down helps).
    Returns [1.0] when the continuous expected work is 0. *)
