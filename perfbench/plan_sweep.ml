(* plan-sweep: about a thousand distinct cold Guideline.plan calls over
   the paper's smooth families. Each family gets the same number of
   inputs, with the overhead c and the family scale drawn from
   log-uniform strata, so every seed sweeps the same population and only
   the points inside the strata move.

   Two inputs are left out on purpose: power-law life functions and
   c/horizon below 1/2000. There a single plan takes seconds and may stop
   at Period_cap (the open "bounded, never-silent planning" defect), and
   timing it would turn this workload into a clock for that defect. *)

type scenario = { family : string; lf : Life_function.t; c : float }

let families =
  [| "uniform"; "poly2"; "poly3"; "poly4"; "geo-dec"; "geo-inc"; "weibull" |]

let per_family = 144
let min_c_over_horizon = 1.0 /. 2000.0

(* The family scale is [rho] times c: a lifespan for the bounded
   families, a mean lifetime for geo-dec, a scale for weibull. The
   unbounded ranges keep Life_function.horizon (a power-of-two search
   for p < 1e-12) within 2000 c. *)
let rho_range = function
  | "geo-dec" | "weibull" -> (3.0, 30.0)
  | _ -> (4.0, 1500.0)

let life_function family ~c ~rho ~shape =
  let l = rho *. c in
  match family with
  | "uniform" -> Families.uniform ~lifespan:l
  | "poly2" -> Families.polynomial ~d:2 ~lifespan:l
  | "poly3" -> Families.polynomial ~d:3 ~lifespan:l
  | "poly4" -> Families.polynomial ~d:4 ~lifespan:l
  | "geo-dec" -> Families.geometric_decreasing ~a:(exp (1.0 /. l))
  | "geo-inc" -> Families.geometric_increasing ~lifespan:l
  | "weibull" -> Families.weibull ~shape ~scale:l
  | f -> invalid_arg ("unknown family " ^ f)

let scenarios ~seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let all =
    Array.concat
      (Array.to_list
         (Array.map
            (fun family ->
              let n = per_family in
              let pc = Harness.permutation g n
              and pr = Harness.permutation g n
              and ps = Harness.permutation g n in
              let lo, hi = rho_range family in
              Array.init n (fun k ->
                  let c = Harness.stratified g ~j:pc.(k) ~n ~lo:0.2 ~hi:5.0 in
                  let rho = Harness.stratified g ~j:pr.(k) ~n ~lo ~hi in
                  let shape =
                    1.0 +. (2.0 *. (float_of_int ps.(k) +. Prng.float g)
                           /. float_of_int n)
                  in
                  let lf = life_function family ~c ~rho ~shape in
                  if c /. Life_function.horizon lf < min_c_over_horizon then
                    failwith (Printf.sprintf "plan-sweep generated excluded input %s c=%g" family c);
                  { family; lf; c }))
            families))
  in
  Prng.shuffle g all;
  all

(* The planner's layers called one by one at the plan's answer: the
   Thm 3.2/3.3 bracket, the recurrence at the winning t0 and E(S;p). One
   more plan of the same input, timed next to them, gives the t0 search's
   own time on this input: plan - bracket - generate - E. Shared by every
   workload that plans. *)
let plan_detail r lf ~c (res : Guideline.result) =
  let timed name f =
    let t0 = Harness.now () in
    let v = Span_rec.record r name f in
    (v, Harness.now () -. t0)
  in
  let t0 = Harness.now () in
  ignore (Guideline.plan lf ~c);
  let plan_s = Harness.now () -. t0 in
  let _, bracket_s = timed "sched.bracket" (fun () -> Bounds.bracket lf ~c) in
  let g, generate_s =
    timed "sched.generate" (fun () -> Recurrence.generate lf ~c ~t0:res.Guideline.t0)
  in
  let _, e_s =
    timed "sched.expected_work" (fun () ->
        Schedule.expected_work ~c lf g.Recurrence.schedule)
  in
  Span_rec.note r "sched.search_self_ms" (1e3 *. (plan_s -. bracket_s -. generate_s -. e_s));
  Span_rec.count r "sched.periods" (Schedule.num_periods res.Guideline.schedule);
  Span_rec.count r "sched.period_cap_stops"
    (match res.Guideline.stop with Recurrence.Period_cap -> 1 | _ -> 0)

let plan_digest (r : Guideline.result) =
  Printf.sprintf "%.17g %.17g %d" r.Guideline.t0 r.Guideline.expected_work
    (Schedule.num_periods r.Guideline.schedule)

(* Output checks shared by every workload that plans: the recomputed
   E(S;p) matches, and the plan did not stop at the period cap. *)
let plan_faults lf ~c (r : Guideline.result) =
  let e = Schedule.expected_work ~c lf r.Guideline.schedule in
  (if Tol.equal e r.Guideline.expected_work then []
   else [ Printf.sprintf "E recomputed %.17g vs plan %.17g" e r.Guideline.expected_work ])
  @
  match r.Guideline.stop with
  | Recurrence.Period_cap -> [ "plan stopped at Period_cap" ]
  | _ -> []

let prepare ~seed ~pool:_ =
  let inputs = scenarios ~seed in
  let n = Array.length inputs in
  let answers = Array.make n None in
  let answer i =
    match answers.(i) with
    | Some r -> r
    | None ->
        let s = inputs.(i) in
        let r = Guideline.plan s.lf ~c:s.c in
        answers.(i) <- Some r;
        r
  in
  let op rec_ i =
    let s = inputs.(i) in
    let r = Span_rec.traced rec_ "sched.plan" (fun () -> Guideline.plan s.lf ~c:s.c) in
    if Option.is_none answers.(i) then answers.(i) <- Some r;
    1.0
  in
  let detail r i =
    let s = inputs.(i) in
    plan_detail r s.lf ~c:s.c (answer i)
  in
  (* One plan per family at a fixed reference scale. *)
  let warm () =
    Array.iter
      (fun family ->
        let lo, hi = rho_range family in
        let lf = life_function family ~c:1.0 ~rho:(sqrt (lo *. hi)) ~shape:2.0 in
        ignore (Guideline.plan lf ~c:1.0))
      families
  in
  let check () =
    let notes = ref [] in
    let bad =
      Array.init n (fun i ->
          let s = inputs.(i) and r = answer i in
          let theory =
            List.filter_map
              (fun (chk : Theory.check) ->
                if chk.Theory.holds then None
                else Some (chk.Theory.name ^ ": " ^ chk.Theory.detail))
              (Theory.full_report s.lf ~c:s.c r.Guideline.schedule)
          in
          let exact =
            match Life_function.support s.lf with
            | Life_function.Bounded lifespan when String.equal s.family "uniform" ->
                let ex = (Exact.uniform ~c:s.c ~lifespan).Exact.expected_work in
                if r.Guideline.expected_work >= (1.0 -. 1e-4) *. ex then []
                else
                  [ Printf.sprintf "E %.17g below Exact.uniform %.17g"
                      r.Guideline.expected_work ex ]
            | _ -> []
          in
          let faults = theory @ plan_faults s.lf ~c:s.c r @ exact in
          List.iter
            (fun f ->
              notes := Printf.sprintf "input %d (%s c=%g): %s" i s.family s.c f :: !notes)
            faults;
          faults <> [])
    in
    let digest =
      Array.to_list
        (Array.mapi
           (fun i s ->
             Printf.sprintf "%s %.17g %s" s.family s.c (plan_digest (answer i)))
           inputs)
    in
    { Harness.bad; notes = List.rev !notes; digest }
  in
  let summarize (l : Harness.loop) =
    let plans_per_s = Harness.pass_rate l ~inputs:n in
    let p50 = Harness.input_p50_ms l ~inputs:n in
    let p99 = 1e3 *. Harness.quantile l.Harness.lat 0.99 in
    {
      Harness.work_per_s = plans_per_s;
      op_p50_ms = p50;
      named =
        [
          ("plans_per_s", plans_per_s, "1/s");
          ("plan_p50_ms", p50, "ms");
          ("plan_p99_ms", p99, "ms");
          ("plan_samples", float_of_int l.Harness.ops, "count");
        ];
    }
  in
  { Harness.inputs = n; warm; op; detail; check; summarize }

let workload = { Harness.name = "plan-sweep"; uses_pool = false; tour = 14; prepare }
