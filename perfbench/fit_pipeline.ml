(* fit-pipeline: what `csctl fit` does, on fifteen datasets (the five
   owner models, each at 250, 700 and 2000 absences). One operation takes
   one dataset through Survival.of_durations, Fit.best_fit, and
   Guideline.plan on both the fit and the nonparametric estimate.
   Sampling the owner models is input generation and counts in set-up. *)

type dataset = {
  label : string;
  model : Owner_model.model;
  ds : float array;
  c : float;
}

let sizes = [| 250; 700; 2000 |]

(* RMSE bounds of the output check. Where the model has a true survival
   function, the fit must lie within the 99.9% Dvoretzky-Kiefer-Wolfowitz
   band half-width of an n-sample ECDF. The two mixture models have no
   catalogue family, so their fit is held to the sample's own ECDF with a
   fixed allowance for that misfit (over 150 seeds the worst was 0.096). *)
let rmse_truth_bound n = sqrt (log (2.0 /. 1e-3) /. (2.0 *. float_of_int n))
let rmse_ecdf_bound = 0.12

let models m g =
  [
    ("exponential", Owner_model.Exponential_absence { mean = m });
    ("uniform", Owner_model.Uniform_absence { max = 2.0 *. m });
    ( "weibull",
      Owner_model.Weibull_absence
        { shape = 1.5 +. (1.5 *. Prng.float g); scale = 1.13 *. m } );
    ("coffee", Owner_model.Coffee_break { typical = m; spread = m /. 4.0 });
    ( "day-night",
      Owner_model.Day_night
        { short_mean = m /. 2.0; long_mean = 10.0 *. m; long_fraction = 0.15 } );
  ]

let datasets ~seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let n = 5 * Array.length sizes in
  let pm = Harness.permutation g n in
  let all =
    Array.init n (fun k ->
        let m = Harness.stratified g ~j:pm.(k) ~n ~lo:20.0 ~hi:60.0 in
        let label, model = List.nth (models m g) (k mod 5) in
        let ds = Array.init sizes.(k / 5) (fun _ -> Owner_model.sample model g) in
        { label; model; ds; c = m /. 20.0 })
  in
  Prng.shuffle g all;
  all

let rmse_vs_truth (fit : Fit.fitted) truth ds =
  let mx = Array.fold_left Float.max 0.0 ds in
  let acc = ref 0.0 in
  for k = 0 to 255 do
    let x = mx *. float_of_int k /. 255.0 in
    let d = Life_function.eval fit.Fit.life x -. Life_function.eval truth x in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. 256.0)

type answer = { est : Survival.estimate; fit : Fit.fitted; pf : Guideline.result; pn : Guideline.result }

let answer_of rec_ d =
  let est = Span_rec.traced rec_ "trace.survival" (fun () -> Survival.of_durations d.ds) in
  let fit = Span_rec.traced rec_ "trace.fit_best" (fun () -> Fit.best_fit d.ds) in
  let pf = Span_rec.traced rec_ "sched.plan" (fun () -> Guideline.plan fit.Fit.life ~c:d.c) in
  let pn =
    Span_rec.traced rec_ "sched.plan" (fun () -> Guideline.plan est.Survival.life ~c:d.c)
  in
  { est; fit; pf; pn }

let prepare ~seed ~pool:_ =
  let inputs = datasets ~seed in
  let n = Array.length inputs in
  let answers = Array.make n None in
  let answer i =
    match answers.(i) with
    | Some a -> a
    | None ->
        let a = answer_of None inputs.(i) in
        answers.(i) <- Some a;
        a
  in
  let op rec_ i =
    let a = answer_of rec_ inputs.(i) in
    if Option.is_none answers.(i) then answers.(i) <- Some a;
    float_of_int (Array.length inputs.(i).ds)
  in
  let detail r i =
    let d = inputs.(i) and a = answer i in
    ignore (Span_rec.record r "numerics.ecdf" (fun () -> Stats.ecdf_survival d.ds));
    let fitter name f = ignore (Span_rec.record r ("trace.fit." ^ name) (fun () -> f d.ds)) in
    fitter "exponential" Fit.exponential_mle;
    fitter "uniform" Fit.uniform_fit;
    fitter "polynomial" (fun ds -> Fit.polynomial_fit ds);
    fitter "geometric_increasing" Fit.geometric_increasing_fit;
    fitter "weibull" (fun ds -> Fit.weibull_mle ds);
    ignore
      (Span_rec.record r "trace.sse" (fun () -> Fit.sse_against_ecdf a.fit.Fit.life d.ds));
    Plan_sweep.plan_detail r a.fit.Fit.life ~c:d.c a.pf;
    Plan_sweep.plan_detail r a.est.Survival.life ~c:d.c a.pn
  in
  (* One operation on a fixed 250-absence exponential dataset. *)
  let warm () =
    let g = Prng.create ~seed:0L in
    let ds = Array.init 250 (fun _ -> Owner_model.sample (Owner_model.Exponential_absence { mean = 40.0 }) g) in
    ignore
      (answer_of None
         { label = "warm"; model = Owner_model.Exponential_absence { mean = 40.0 }; ds; c = 2.0 })
  in
  let check () =
    let notes = ref [] in
    let bad =
      Array.init n (fun i ->
          let d = inputs.(i) and a = answer i in
          let lf = a.fit.Fit.life in
          let valid =
            if Life_function.is_decreasing_on_grid lf
               && Tol.equal (Life_function.eval lf 0.0) 1.0
            then []
            else [ "fitted life function is not valid" ]
          in
          let fit_err =
            match Owner_model.true_life_function d.model with
            | Some truth ->
                let e = rmse_vs_truth a.fit truth d.ds in
                let bound = rmse_truth_bound (Array.length d.ds) in
                if e < bound then []
                else [ Printf.sprintf "RMSE vs truth %.4f >= %.4f" e bound ]
            | None ->
                let steps = Array.length (Stats.ecdf_survival d.ds) in
                let e = sqrt (a.fit.Fit.sse /. float_of_int steps) in
                if e < rmse_ecdf_bound then []
                else [ Printf.sprintf "RMSE vs ECDF %.4f >= %g" e rmse_ecdf_bound ]
          in
          let faults =
            valid @ fit_err
            @ Plan_sweep.plan_faults lf ~c:d.c a.pf
            @ Plan_sweep.plan_faults a.est.Survival.life ~c:d.c a.pn
          in
          List.iter
            (fun f ->
              notes :=
                Printf.sprintf "dataset %d (%s n=%d): %s" i d.label (Array.length d.ds) f
                :: !notes)
            faults;
          faults <> [])
    in
    let digest =
      Array.to_list
        (Array.mapi
           (fun i d ->
             let a = answer i in
             Printf.sprintf "%s %d %s %s sse=%.17g fit:%s np:%s" d.label (Array.length d.ds)
               a.fit.Fit.family
               (String.concat ","
                  (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) a.fit.Fit.params))
               a.fit.Fit.sse (Plan_sweep.plan_digest a.pf) (Plan_sweep.plan_digest a.pn))
           inputs)
    in
    { Harness.bad; notes = List.rev !notes; digest }
  in
  let summarize (l : Harness.loop) =
    let per_s = Harness.pass_rate l ~inputs:n in
    let p50 = Harness.input_p50_ms l ~inputs:n in
    {
      Harness.work_per_s = per_s;
      op_p50_ms = p50;
      named =
        [
          ("fit_samples_per_s", per_s, "1/s");
          ("fit_p50_ms", p50, "ms");
          ("fit_datasets", float_of_int l.Harness.ops, "count");
        ];
    }
  in
  { Harness.inputs = n; warm; op; detail; check; summarize }

let workload = { Harness.name = "fit-pipeline"; uses_pool = false; tour = 2; prepare }
