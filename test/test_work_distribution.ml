let c = 1.0
let lf = Families.uniform ~lifespan:100.0

let test_probabilities_sum_to_one () =
  let s = Schedule.of_list [ 10.0; 8.0; 6.0 ] in
  let d = Work_distribution.of_schedule lf ~c s in
  let total =
    Array.fold_left (fun a (_, pr) -> a +. pr) 0.0 d.Work_distribution.outcomes
  in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total

let test_mean_equals_expected_work () =
  (* The central identity: the law's mean IS eq. 2.1. *)
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c in
      let d = Work_distribution.of_schedule lf ~c g.Guideline.schedule in
      Alcotest.(check (float 1e-9)) (name ^ ": mean = E")
        (Schedule.expected_work ~c lf g.Guideline.schedule)
        d.Work_distribution.mean)
    (Families.all_paper_scenarios ~c)

let test_hand_computed_law () =
  (* Uniform L = 10, S = [4; 3] (ends 4, 7; works 3, 5):
     P(0) = 1 - p(4) = 0.4; P(3) = p(4) - p(7) = 0.3; P(5) = p(7) = 0.3. *)
  let lf = Families.uniform ~lifespan:10.0 in
  let d = Work_distribution.of_schedule lf ~c (Schedule.of_list [ 4.0; 3.0 ]) in
  match d.Work_distribution.outcomes with
  | [| (w0, p0); (w1, p1); (w2, p2) |] ->
      Alcotest.(check (float 1e-12)) "w0" 0.0 w0;
      Alcotest.(check (float 1e-12)) "p0" 0.4 p0;
      Alcotest.(check (float 1e-12)) "w1" 3.0 w1;
      Alcotest.(check (float 1e-12)) "p1" 0.3 p1;
      Alcotest.(check (float 1e-12)) "w2" 5.0 w2;
      Alcotest.(check (float 1e-12)) "p2" 0.3 p2
  | _ -> Alcotest.fail "expected three outcomes"

let test_single_period_all_or_nothing () =
  let lf = Families.uniform ~lifespan:10.0 in
  let d = Work_distribution.of_schedule lf ~c (Schedule.of_list [ 5.0 ]) in
  Alcotest.(check int) "two outcomes" 2
    (Array.length d.Work_distribution.outcomes);
  Alcotest.(check (float 1e-12)) "P(zero)" 0.5 (Work_distribution.prob_zero d);
  let w, pr = d.Work_distribution.outcomes.(1) in
  Alcotest.(check (float 1e-12)) "full work" 4.0 w;
  Alcotest.(check (float 1e-12)) "P(= 4)" 0.5 pr

let test_unproductive_periods_merge () =
  (* Two sub-c periods add no outcomes beyond zero work. *)
  let lf = Families.uniform ~lifespan:10.0 in
  let d =
    Work_distribution.of_schedule lf ~c (Schedule.of_list [ 0.5; 0.5; 5.0 ])
  in
  Alcotest.(check int) "zero and one work level" 2
    (Array.length d.Work_distribution.outcomes)

let test_quantiles () =
  let lf = Families.uniform ~lifespan:10.0 in
  let d = Work_distribution.of_schedule lf ~c (Schedule.of_list [ 4.0; 3.0 ]) in
  Alcotest.(check (float 1e-12)) "q=0.2" 0.0 (Work_distribution.quantile d ~q:0.2);
  Alcotest.(check (float 1e-12)) "q=0.5" 3.0 (Work_distribution.quantile d ~q:0.5);
  Alcotest.(check (float 1e-12)) "q=0.9" 5.0 (Work_distribution.quantile d ~q:0.9);
  match Work_distribution.quantile d ~q:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q > 1 accepted"

let test_matches_monte_carlo () =
  let g = Guideline.plan lf ~c in
  let d = Work_distribution.of_schedule lf ~c g.Guideline.schedule in
  let est =
    Monte_carlo.estimate ~trials:40_000 lf ~c ~schedule:g.Guideline.schedule
      ~seed:2L
  in
  Alcotest.(check bool) "MC mean within 2% of law mean" true
    (Float.abs (est.Monte_carlo.mean_work -. d.Work_distribution.mean)
    < 0.02 *. d.Work_distribution.mean)

let test_variance_nonnegative_and_consistent () =
  let g = Guideline.plan lf ~c in
  let d = Work_distribution.of_schedule lf ~c g.Guideline.schedule in
  Alcotest.(check bool) "variance >= 0" true (d.Work_distribution.variance >= 0.0);
  Alcotest.(check (float 1e-9)) "stddev = sqrt variance"
    (sqrt d.Work_distribution.variance)
    d.Work_distribution.stddev

let test_validation () =
  match Work_distribution.of_schedule lf ~c:(-1.0) (Schedule.of_list [ 1.0 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted"

let prop_mean_identity =
  QCheck.Test.make
    ~name:"distribution mean equals eq. 2.1 for random schedules" ~count:300
    QCheck.(array_of_size Gen.(int_range 1 15) (float_range 0.3 12.0))
    (fun ts ->
      let s = Schedule.of_periods ts in
      let d = Work_distribution.of_schedule lf ~c s in
      Float.abs (d.Work_distribution.mean -. Schedule.expected_work ~c lf s)
      < 1e-9)

let () =
  Alcotest.run "work_distribution"
    [
      ( "work_distribution",
        [
          Alcotest.test_case "probabilities sum to 1" `Quick
            test_probabilities_sum_to_one;
          Alcotest.test_case "mean = eq 2.1" `Quick
            test_mean_equals_expected_work;
          Alcotest.test_case "hand-computed law" `Quick test_hand_computed_law;
          Alcotest.test_case "all or nothing" `Quick
            test_single_period_all_or_nothing;
          Alcotest.test_case "unproductive merge" `Quick
            test_unproductive_periods_merge;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "matches Monte Carlo" `Quick
            test_matches_monte_carlo;
          Alcotest.test_case "variance consistent" `Quick
            test_variance_nonnegative_and_consistent;
          Alcotest.test_case "validation" `Quick test_validation;
          QCheck_alcotest.to_alcotest prop_mean_identity;
        ] );
    ]
