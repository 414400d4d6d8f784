type t = {
  schedule : Schedule.t;
  tasks_per_period : int array;
  total_tasks : int;
  expected_work : float;
  continuous_expected_work : float;
}

let quantize lf ~c ~task s =
  if task <= 0.0 then invalid_arg "Discretize.quantize: task must be > 0";
  if c < 0.0 then invalid_arg "Discretize.quantize: c must be >= 0";
  let continuous = Schedule.expected_work ~c lf s in
  let periods = Schedule.periods s in
  let kept = ref [] in
  Array.iter
    (fun tk ->
      let w = int_of_float (Float.floor ((tk -. c) /. task)) in
      if w >= 1 then kept := (c +. (float_of_int w *. task), w) :: !kept)
    periods;
  match List.rev !kept with
  | [] ->
      invalid_arg "Discretize.quantize: no period fits a single task"
  | kept ->
      let qs = Schedule.of_periods (Array.of_list (List.map fst kept)) in
      let ws = Array.of_list (List.map snd kept) in
      {
        schedule = qs;
        tasks_per_period = ws;
        total_tasks = Array.fold_left ( + ) 0 ws;
        expected_work = Schedule.expected_work ~c lf qs;
        continuous_expected_work = continuous;
      }

let efficiency q =
  if q.continuous_expected_work <= 0.0 then 1.0
  else q.expected_work /. q.continuous_expected_work
