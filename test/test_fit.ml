let samples_of model n seed =
  let rng = Prng.create ~seed in
  Array.init n (fun _ -> Owner_model.sample model rng)

let test_exponential_mle_recovers_rate () =
  let ds = samples_of (Owner_model.Exponential_absence { mean = 4.0 }) 20_000 1L in
  let f = Fit.exponential_mle ds in
  Alcotest.(check string) "family" "exponential" f.Fit.family;
  match List.assoc_opt "rate" f.Fit.params with
  | Some rate -> Alcotest.(check (float 0.01)) "rate" 0.25 rate
  | None -> Alcotest.fail "missing rate param"

let test_uniform_fit_recovers_lifespan () =
  let ds = samples_of (Owner_model.Uniform_absence { max = 12.0 }) 20_000 2L in
  let f = Fit.uniform_fit ds in
  match List.assoc_opt "lifespan" f.Fit.params with
  | Some l -> Alcotest.(check (float 0.05)) "lifespan" 12.0 l
  | None -> Alcotest.fail "missing lifespan param"

let test_weibull_mle_recovers_params () =
  let ds =
    samples_of (Owner_model.Weibull_absence { shape = 2.0; scale = 10.0 }) 20_000 3L
  in
  let f = Fit.weibull_mle ds in
  let shape = List.assoc "shape" f.Fit.params in
  let scale = List.assoc "scale" f.Fit.params in
  Alcotest.(check (float 0.05)) "shape" 2.0 shape;
  Alcotest.(check (float 0.15)) "scale" 10.0 scale

let test_weibull_mle_shape_below_one () =
  let ds =
    samples_of (Owner_model.Weibull_absence { shape = 0.7; scale = 5.0 }) 20_000 4L
  in
  let f = Fit.weibull_mle ds in
  Alcotest.(check (float 0.03)) "shape" 0.7 (List.assoc "shape" f.Fit.params)

let test_weibull_needs_distinct () =
  match Fit.weibull_mle [| 2.0; 2.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "identical durations accepted"

let test_polynomial_fit_prefers_uniform_data () =
  (* Uniform data is p_{1,L}: polynomial fit should pick d = 1 (or produce
     an SSE no worse than d = 1's). *)
  let ds = samples_of (Owner_model.Uniform_absence { max = 10.0 }) 10_000 5L in
  let f = Fit.polynomial_fit ds in
  let d = int_of_float (List.assoc "d" f.Fit.params) in
  Alcotest.(check bool) (Printf.sprintf "low d (got %d)" d) true (d <= 2)

let test_geometric_increasing_fit_recovers_lifespan () =
  (* Sample reclaim times from the geo-inc scenario itself. *)
  let lf = Families.geometric_increasing ~lifespan:25.0 in
  let sampler = Reclaim.create lf in
  let rng = Prng.create ~seed:77L in
  let ds = Array.init 6_000 (fun _ -> Float.max 1e-9 (Reclaim.draw sampler rng)) in
  let f = Fit.geometric_increasing_fit ds in
  let l = List.assoc "lifespan" f.Fit.params in
  Alcotest.(check bool) (Printf.sprintf "lifespan %.2f near 25" l) true
    (Float.abs (l -. 25.0) < 1.0)

let test_best_fit_prefers_geo_inc_on_its_own_data () =
  let lf = Families.geometric_increasing ~lifespan:25.0 in
  let sampler = Reclaim.create lf in
  let rng = Prng.create ~seed:78L in
  let ds = Array.init 6_000 (fun _ -> Float.max 1e-9 (Reclaim.draw sampler rng)) in
  let best = Fit.best_fit ds in
  Alcotest.(check bool)
    (Printf.sprintf "geo-inc competitive (got %s)" best.Fit.family)
    true
    (best.Fit.sse <= (Fit.geometric_increasing_fit ds).Fit.sse +. 1e-9)

let test_best_fit_selects_right_family_exponential () =
  let ds = samples_of (Owner_model.Exponential_absence { mean = 6.0 }) 20_000 6L in
  let f = Fit.best_fit ds in
  (* Exponential data: exponential or weibull (shape ~ 1) both fine; the
     uniform family must lose. *)
  Alcotest.(check bool)
    (Printf.sprintf "not uniform (got %s)" f.Fit.family)
    true
    (f.Fit.family <> "uniform")

let test_best_fit_selects_right_family_uniform () =
  let ds = samples_of (Owner_model.Uniform_absence { max = 15.0 }) 20_000 7L in
  let f = Fit.best_fit ds in
  Alcotest.(check bool)
    (Printf.sprintf "uniform-ish (got %s)" f.Fit.family)
    true
    (f.Fit.family = "uniform" || f.Fit.family = "polynomial(d=1)"
    || f.Fit.family = "weibull")

let test_best_fit_sse_is_minimal () =
  let ds = samples_of (Owner_model.Exponential_absence { mean = 5.0 }) 5_000 8L in
  let best = Fit.best_fit ds in
  List.iter
    (fun candidate ->
      Alcotest.(check bool)
        (candidate.Fit.family ^ " not better")
        true
        (best.Fit.sse <= candidate.Fit.sse +. 1e-12))
    [ Fit.exponential_mle ds; Fit.uniform_fit ds; Fit.polynomial_fit ds ]

let test_sse_against_ecdf_zero_for_perfect () =
  (* The ECDF of a sample scored against itself-as-interpolant is near 0;
     use the exponential truth on huge n as a proxy: SSE per point small. *)
  let ds = samples_of (Owner_model.Exponential_absence { mean = 5.0 }) 20_000 9L in
  let truth = Families.exponential ~rate:0.2 in
  let sse = Fit.sse_against_ecdf truth ds in
  Alcotest.(check bool) "small per-point error" true
    (sse /. float_of_int (Array.length ds) < 1e-3)

let test_fitted_lives_are_schedulable () =
  let ds = samples_of (Owner_model.Weibull_absence { shape = 1.5; scale = 20.0 }) 3_000 10L in
  let f = Fit.best_fit ds in
  let r = Guideline.plan f.Fit.life ~c:1.0 in
  Alcotest.(check bool) "positive expected work" true
    (r.Guideline.expected_work > 0.0)

let test_validation () =
  (match Fit.exponential_mle [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  (match Fit.uniform_fit [| -1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative duration accepted");
  match Fit.best_fit [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single observation accepted"

(* best_fit on n = 700 draws (seed 700) from each owner model, recorded at
   %.17g before the fitters shared one ECDF. Sorting once must not move a
   single bit of the chosen family, its parameters or its SSE. *)
let pinned_best_fits =
  [
    ( Owner_model.Exponential_absence { mean = 40.0 },
      "exponential",
      [ ("rate", 0.024757822254983696) ],
      0.086250792321908284 );
    ( Owner_model.Uniform_absence { max = 80.0 },
      "polynomial(d=1)",
      [ ("d", 1.0); ("lifespan", 80.700150446470417) ],
      0.090666877084377664 );
    ( Owner_model.Weibull_absence { shape = 2.0; scale = 45.2 },
      "weibull",
      [ ("shape", 1.9887271133166582); ("scale", 45.367564683762609) ],
      0.094417359876487569 );
    ( Owner_model.Coffee_break { typical = 40.0; spread = 10.0 },
      "weibull",
      [ ("shape", 4.5372061798093792); ("scale", 44.038443663022733) ],
      0.10422243640781387 );
    ( Owner_model.Day_night
        { short_mean = 20.0; long_mean = 400.0; long_fraction = 0.15 },
      "weibull",
      [ ("shape", 0.57697028689154506); ("scale", 37.69196905488598) ],
      3.042898736760852 );
  ]

let test_best_fit_pinned () =
  let bits x = Printf.sprintf "%.17g" x in
  List.iter
    (fun (model, family, params, sse) ->
      let f = Fit.best_fit (samples_of model 700 700L) in
      Alcotest.(check string) "family" family f.Fit.family;
      Alcotest.(check (list (pair string string)))
        (family ^ " params")
        (List.map (fun (k, v) -> (k, bits v)) params)
        (List.map (fun (k, v) -> (k, bits v)) f.Fit.params);
      Alcotest.(check string) (family ^ " sse") (bits sse) (bits f.Fit.sse))
    pinned_best_fits

(* Samples of 2..300 durations; about half the arrays draw from five
   integer values only, so ties are common. *)
let gen_durations =
  QCheck.Gen.(
    int_range 2 300 >>= fun n ->
    oneof
      [
        array_size (return n) (float_range 0.1 50.0);
        array_size (return n) (map float_of_int (int_range 1 5));
      ])

let prop_sse_matches_sse_against_ecdf =
  QCheck.Test.make
    ~name:"every fitter's sse is sse_against_ecdf of its life, exactly"
    ~count:60
    (QCheck.make ~print:QCheck.Print.(array float) gen_durations)
    (fun ds ->
      let weibull = try [ Fit.weibull_mle ds ] with Invalid_argument _ -> [] in
      List.for_all
        (fun f -> Tol.exactly f.Fit.sse (Fit.sse_against_ecdf f.Fit.life ds))
        ([
           Fit.exponential_mle ds;
           Fit.uniform_fit ds;
           Fit.polynomial_fit ds;
           Fit.geometric_increasing_fit ds;
           Fit.best_fit ds;
         ]
        @ weibull))

let prop_exponential_mle_rate_consistent =
  QCheck.Test.make ~name:"exponential MLE rate ~ 1/sample-mean" ~count:50
    QCheck.(array_of_size Gen.(int_range 5 100) (float_range 0.1 50.0))
    (fun ds ->
      let f = Fit.exponential_mle ds in
      let rate = List.assoc "rate" f.Fit.params in
      Float.abs (rate -. (1.0 /. Stats.mean ds)) < 1e-9)

let prop_best_fit_recovers_scale_order =
  QCheck.Test.make
    ~name:"best fit's mean lifetime tracks the sample mean" ~count:10
    QCheck.(float_range 2.0 30.0)
    (fun mean ->
      let ds =
        samples_of (Owner_model.Exponential_absence { mean }) 5_000
          (Int64.of_float (mean *. 1000.0))
      in
      let f = Fit.best_fit ds in
      let fitted_mean = Life_function.mean_lifetime f.Fit.life in
      Float.abs (fitted_mean -. mean) /. mean < 0.2)

let () =
  Alcotest.run "fit"
    [
      ( "fit",
        [
          Alcotest.test_case "exponential MLE" `Quick
            test_exponential_mle_recovers_rate;
          Alcotest.test_case "uniform fit" `Quick
            test_uniform_fit_recovers_lifespan;
          Alcotest.test_case "weibull MLE" `Quick test_weibull_mle_recovers_params;
          Alcotest.test_case "weibull shape < 1" `Quick
            test_weibull_mle_shape_below_one;
          Alcotest.test_case "weibull needs distinct" `Quick
            test_weibull_needs_distinct;
          Alcotest.test_case "polynomial on uniform data" `Quick
            test_polynomial_fit_prefers_uniform_data;
          Alcotest.test_case "geo-inc fit recovers L" `Quick
            test_geometric_increasing_fit_recovers_lifespan;
          Alcotest.test_case "best fit on geo-inc data" `Quick
            test_best_fit_prefers_geo_inc_on_its_own_data;
          Alcotest.test_case "best fit exponential" `Quick
            test_best_fit_selects_right_family_exponential;
          Alcotest.test_case "best fit uniform" `Quick
            test_best_fit_selects_right_family_uniform;
          Alcotest.test_case "best fit minimal SSE" `Quick
            test_best_fit_sse_is_minimal;
          Alcotest.test_case "sse near zero for truth" `Quick
            test_sse_against_ecdf_zero_for_perfect;
          Alcotest.test_case "fitted schedulable" `Quick
            test_fitted_lives_are_schedulable;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "best fit pinned per owner model" `Quick
            test_best_fit_pinned;
          QCheck_alcotest.to_alcotest prop_sse_matches_sse_against_ecdf;
          QCheck_alcotest.to_alcotest prop_exponential_mle_rate_consistent;
          QCheck_alcotest.to_alcotest prop_best_fit_recovers_scale_order;
        ] );
    ]
