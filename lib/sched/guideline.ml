type result = {
  schedule : Schedule.t;
  t0 : float;
  expected_work : float;
  bracket : float * float;
  stop : Recurrence.stop_reason;
}

(* Grid resolution of the t0 search inside the Thm 3.2/3.3 bracket,
   before Brent refinement. *)
let t0_steps = 128

let evaluate ?(obs = Obs.disabled) lf ~c ~t0 =
  Obs.span obs "plan.evaluate" (fun () ->
      let g = Recurrence.generate ~obs lf ~c ~t0 in
      let ew =
        Obs.span obs "plan.expected_work" (fun () ->
            Schedule.expected_work ~c lf g.Recurrence.schedule)
      in
      (g, ew))

let plan ?(obs = Obs.disabled) lf ~c =
  let compute () =
    (* The guideline's three phases, each its own span: Thm 3.2/3.3
       bracketing, the t0 grid-and-refine search (whose evaluations span
       themselves), and the final regeneration at the winner. *)
    let lo, hi =
      Obs.span obs "plan.bracket" (fun () -> Bounds.bracket lf ~c)
    in
    let objective t0 = snd (evaluate ~obs lf ~c ~t0) in
    let best =
      Obs.span obs "plan.search" (fun () ->
          Optimize.grid_then_refine objective ~lo ~hi ~steps:t0_steps)
    in
    let g, ew = evaluate ~obs lf ~c ~t0:best.Optimize.x in
    {
      schedule = g.Recurrence.schedule;
      t0 = best.Optimize.x;
      expected_work = ew;
      bracket = (lo, hi);
      stop = g.Recurrence.stop;
    }
  in
  if not (Obs.instrumented obs) then compute ()
  else begin
    let t_start = Obs_clock.now () in
    let r = Obs.span obs "guideline.plan" compute in
    let elapsed = Obs_clock.elapsed_since t_start in
    Obs.incr obs "plan.guideline_calls";
    Obs.observe obs "plan.guideline_seconds" elapsed;
    Obs.emit obs
      (Obs.Event.Plan_computed
         {
           source = "guideline";
           t0 = r.t0;
           periods = Schedule.num_periods r.schedule;
           expected_work = r.expected_work;
           elapsed;
         });
    r
  end

let plan_batch ?pool scenarios =
  let scen = Array.of_list scenarios in
  let slots = Array.make (Array.length scen) None in
  (* One scenario per chunk: plans are pure in (lf, c), so any domain
     assignment fills the slots with the same plans. *)
  Domain_pool.run ?pool ~chunks:(Array.length scen) (fun i ->
      let lf, c = scen.(i) in
      slots.(i) <- Some (plan lf ~c));
  Array.to_list (Array.map Option.get slots)

let next_period_online lf ~c ~elapsed =
  if elapsed < 0.0 then
    invalid_arg "Guideline.next_period_online: elapsed must be >= 0";
  let p_elapsed = Life_function.eval lf elapsed in
  if p_elapsed <= 0.0 then None
  else begin
    (* Conditional life function given survival to [elapsed]. Shape is
       inherited: conditioning rescales p by a constant and shifts time,
       both of which preserve concavity/convexity. *)
    let support =
      match Life_function.support lf with
      | Life_function.Bounded l ->
          if l -. elapsed <= c then None
          else Some (Life_function.Bounded (l -. elapsed))
      | Life_function.Unbounded -> Some Life_function.Unbounded
    in
    match support with
    | None -> None
    | Some support ->
        let conditional =
          Life_function.make
            ~name:(Life_function.name lf ^ " | survived")
            ~support
            ~dp:(fun s -> Life_function.deriv lf (elapsed +. s) /. p_elapsed)
            ~shape:(Life_function.shape lf)
            ~validate:false
            (fun s -> Life_function.eval lf (elapsed +. s) /. p_elapsed)
        in
        let r = plan conditional ~c in
        if r.expected_work > 0.0 && r.t0 > c then Some r.t0 else None
  end
