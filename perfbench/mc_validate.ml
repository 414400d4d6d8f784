(* mc-validate: what `csctl simulate` and `csctl compare` do, untraced,
   on six planned scenarios. One operation plans a scenario, runs a
   large-trial Monte_carlo.estimate on the pool, and races the guideline
   against Baselines.all with compare_policies on the same pool. *)

let trials = 200_000
let compare_trials = 20_000

(* Family and its scale as a multiple of c. The seed moves c within
   [0.8, 1.25] and the scale by up to 10%: the Monte Carlo cost and
   variance of a scenario depend on its shape, and six scenarios are too
   few to average out a wider draw. *)
let kinds =
  [| ("uniform", 60.0); ("poly2", 60.0); ("poly3", 60.0); ("geo-dec", 15.0);
     ("geo-inc", 30.0); ("weibull", 15.0) |]

let scenarios ~seed =
  let g = Prng.create ~seed:(Int64.of_int (seed + 1_000_003)) in
  let n = Array.length kinds in
  let pc = Harness.permutation g n in
  Array.mapi
    (fun k (family, rho) ->
      let c = Harness.stratified g ~j:pc.(k) ~n ~lo:0.8 ~hi:1.25 in
      let rho = rho *. (0.9 +. (0.2 *. Prng.float g)) in
      { Plan_sweep.family; c; lf = Plan_sweep.life_function family ~c ~rho ~shape:2.0 })
    kinds

let mc_seed ~seed i = Int64.of_int ((seed * 1000) + i)

type answer = {
  plan : Guideline.result;
  est : Monte_carlo.estimate;
  runs : Monte_carlo.policy_run list;
}

let half_width (e : Monte_carlo.estimate) =
  let lo, hi = e.Monte_carlo.ci95 in
  (hi -. lo) /. 2.0

let prepare ~seed ~pool =
  let inputs = scenarios ~seed in
  let n = Array.length inputs in
  let answers = Array.make n None in
  let est_seconds = Array.make n [] in
  let run ?pool ?domains rec_ i =
    let s = inputs.(i) in
    let lf = s.Plan_sweep.lf and c = s.Plan_sweep.c in
    let plan = Span_rec.traced rec_ "sched.plan" (fun () -> Guideline.plan lf ~c) in
    let policies =
      Span_rec.traced rec_ "sched.baselines" (fun () ->
          ("guideline", plan.Guideline.schedule)
          :: List.map (fun b -> (b.Baselines.name, b.Baselines.schedule)) (Baselines.all lf ~c))
    in
    let t0 = Harness.now () in
    let est =
      Span_rec.traced rec_ "sim.estimate" (fun () ->
          Monte_carlo.estimate ?pool ?domains ~trials lf ~c ~schedule:plan.Guideline.schedule
            ~seed:(mc_seed ~seed i))
    in
    let dt = Harness.now () -. t0 in
    let runs =
      Span_rec.traced rec_ "sim.compare" (fun () ->
          Monte_carlo.compare_policies ?pool ?domains ~trials:compare_trials lf ~c ~policies
            ~seed:(mc_seed ~seed i))
    in
    ({ plan; est; runs }, dt)
  in
  let answer i =
    match answers.(i) with
    | Some a -> a
    | None ->
        let a, _ = run ?pool None i in
        answers.(i) <- Some a;
        a
  in
  let op rec_ i =
    let a, dt = run ?pool rec_ i in
    if Option.is_none answers.(i) then answers.(i) <- Some a;
    est_seconds.(i) <- dt :: est_seconds.(i);
    float_of_int (trials + (compare_trials * List.length a.runs))
  in
  let detail r i =
    let s = inputs.(i) and a = answer i in
    Plan_sweep.plan_detail r s.Plan_sweep.lf ~c:s.Plan_sweep.c a.plan;
    Span_rec.count r "sim.trials" (trials + (compare_trials * List.length a.runs))
  in
  (* Scenario 0 is always the uniform one. *)
  let warm () = ignore (run ?pool None 0) in
  let check () =
    let notes = ref [] in
    let bad =
      Array.init n (fun i ->
          let s = inputs.(i) and a = answer i in
          let e = a.est in
          let sigma = half_width e /. 1.96 in
          let gap = Float.abs (e.Monte_carlo.analytic -. e.Monte_carlo.mean_work) in
          let within =
            if gap <= 4.0 *. sigma then []
            else
              [ Printf.sprintf "analytic %.17g vs MC %.17g: %.2f sigma" e.Monte_carlo.analytic
                  e.Monte_carlo.mean_work (gap /. sigma) ]
          in
          let episodes =
            List.filter_map
              (fun (p : Monte_carlo.policy_run) ->
                if p.Monte_carlo.episodes = compare_trials then None
                else Some (p.Monte_carlo.policy_name ^ " reports the wrong episode count"))
              a.runs
          in
          (* The pool width must not change a bit of the answer (DESIGN
             §10): the first scenario runs again on two domains, where
             the timed pool has one. *)
          let width =
            if i > 0 then []
            else
              let b, _ = run ~domains:2 None i in
              if b.est = a.est && b.runs = a.runs then []
              else [ "answers differ on 2 domains" ]
          in
          let faults =
            within @ episodes @ width
            @ Plan_sweep.plan_faults s.Plan_sweep.lf ~c:s.Plan_sweep.c a.plan
          in
          List.iter
            (fun f ->
              notes := Printf.sprintf "scenario %d (%s): %s" i s.Plan_sweep.family f :: !notes)
            faults;
          faults <> [])
    in
    let digest =
      Array.to_list
        (Array.mapi
           (fun i (s : Plan_sweep.scenario) ->
             let a = answer i in
             let lo, hi = a.est.Monte_carlo.ci95 in
             Printf.sprintf "%s %.17g %s mc=%.17g [%.17g,%.17g] %s" s.Plan_sweep.family
               s.Plan_sweep.c (Plan_sweep.plan_digest a.plan) a.est.Monte_carlo.mean_work lo
               hi
               (String.concat " "
                  (List.map
                     (fun (p : Monte_carlo.policy_run) ->
                       Printf.sprintf "%s=%.17g" p.Monte_carlo.policy_name
                         p.Monte_carlo.mean_work_per_episode)
                     a.runs)))
           inputs)
    in
    { Harness.bad; notes = List.rev !notes; digest }
  in
  (* Per scenario: the estimate's mean seconds and its relative CI
     half-width give the efficiency 1/(rel² · s), and the time the
     estimate would need for a ±0.1% half-width, s · (rel/0.001)². Both
     faster code and lower variance improve them. *)
  let summarize (l : Harness.loop) =
    let timed = List.filter (fun i -> est_seconds.(i) <> []) (List.init n Fun.id) in
    let per f =
      Array.of_list
        (List.map
           (fun i ->
             let a = answer i in
             let rel = half_width a.est /. a.est.Monte_carlo.mean_work in
             f rel (Harness.mean (Array.of_list est_seconds.(i))))
           timed)
    in
    let eff = Harness.median (per (fun rel s -> 1.0 /. (rel *. rel *. s))) in
    let to_precision =
      Harness.median (per (fun rel s -> 1e3 *. s *. (rel /. 1e-3) *. (rel /. 1e-3)))
    in
    let trials_per_s = Harness.pass_rate l ~inputs:n in
    {
      Harness.work_per_s = trials_per_s;
      op_p50_ms = to_precision;
      named =
        [
          ("trials_per_s", trials_per_s, "1/s");
          ("mc_efficiency", eff, "1/s");
          ("mc_precision_p50_ms", to_precision, "ms");
          ("mc_op_p50_ms", Harness.input_p50_ms l ~inputs:n, "ms");
          ("mc_ops", float_of_int l.Harness.ops, "count");
        ];
    }
  in
  { Harness.inputs = n; warm; op; detail; check; summarize }

let workload = { Harness.name = "mc-validate"; uses_pool = true; tour = 1; prepare }
