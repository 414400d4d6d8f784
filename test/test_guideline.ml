let feq ?(eps = 1e-6) a b = Alcotest.(check (float eps)) "value" a b

(* --- the central reproduction claims ---------------------------------- *)

let test_guideline_matches_exact_uniform () =
  (* For uniform risk the guideline recurrence IS the optimal recurrence
     (§4.1), so the guideline must recover the exact optimal E. *)
  let c = 1.0 and l = 100.0 in
  let lf = Families.uniform ~lifespan:l in
  let g = Guideline.plan lf ~c in
  let exact = Exact.uniform ~c ~lifespan:l in
  feq ~eps:1e-6 exact.Exact.expected_work g.Guideline.expected_work;
  feq ~eps:1e-4 exact.Exact.t0 g.Guideline.t0

let test_guideline_matches_exact_geo_dec () =
  (* Exact's Lambert-W optimum is the true maximum, so the guideline's
     searched E may trail it by the search's refinement error but never
     exceed it. *)
  List.iter
    (fun rate ->
      List.iter
        (fun c ->
          let a = exp rate in
          let lf = Families.geometric_decreasing ~a in
          let g = Guideline.plan lf ~c in
          let exact = Exact.geometric_decreasing ~c ~a in
          feq ~eps:1e-6 exact.Exact.expected_work g.Guideline.expected_work;
          feq ~eps:1e-4 exact.Exact.t0 g.Guideline.t0;
          Alcotest.(check bool)
            (Printf.sprintf "exact >= guideline (a = e^%g, c = %g)" rate c)
            true
            (exact.Exact.expected_work >= g.Guideline.expected_work -. 1e-9))
        [ 0.5; 1.0; 2.0 ])
    [ 0.02; 0.05; 0.1 ]

let test_guideline_geo_inc_at_least_exact_structure () =
  (* In continuous time the guideline recurrence (4.7) can slightly beat
     [3]'s ±1-perturbation recurrence; it must never fall below it by more
     than numerical noise. *)
  let c = 1.0 and l = 30.0 in
  let lf = Families.geometric_increasing ~lifespan:l in
  let g = Guideline.plan lf ~c in
  let exact = Exact.geometric_increasing ~c ~lifespan:l in
  Alcotest.(check bool) "guideline >= [3] structure" true
    (g.Guideline.expected_work >= exact.Exact.expected_work -. 1e-6)

let test_guideline_t0_inside_own_bracket () =
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c:1.0 in
      let lo, hi = g.Guideline.bracket in
      Alcotest.(check bool) (name ^ " t0 in bracket") true
        (g.Guideline.t0 >= lo -. 1e-9 && g.Guideline.t0 <= hi +. 1e-9))
    (Families.all_paper_scenarios ~c:1.0)

let test_guideline_beats_naive_singleperiod () =
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c:1.0 in
      let naive = Baselines.single_period lf ~c:1.0 in
      Alcotest.(check bool)
        (name ^ " beats single period")
        true
        (g.Guideline.expected_work >= naive.Baselines.expected_work -. 1e-9))
    (Families.all_paper_scenarios ~c:1.0)

let test_plan_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  match Guideline.plan lf ~c:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "c = 0 accepted"

let test_schedule_is_productive () =
  List.iter
    (fun (name, lf) ->
      let g = Guideline.plan lf ~c:1.0 in
      Alcotest.(check bool) (name ^ " productive") true
        (Schedule.is_productive ~c:1.0 g.Guideline.schedule))
    (Families.all_paper_scenarios ~c:1.0)

(* --- online / conditional scheduling (§6) ------------------------------ *)

let test_online_first_step_matches_plan () =
  (* At elapsed = 0 the conditional function is p itself, so the online
     step equals the plan's t0. *)
  let lf = Families.uniform ~lifespan:100.0 in
  let g = Guideline.plan lf ~c:1.0 in
  match Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 with
  | Some t -> feq ~eps:1e-3 g.Guideline.t0 t
  | None -> Alcotest.fail "expected a period at t = 0"

let test_online_memoryless_constant () =
  (* Exponential: the conditional problem is identical at every elapsed
     time, so the online period never changes. *)
  let lf = Families.geometric_decreasing ~a:(exp 0.1) in
  let p0 = Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 in
  let p7 = Guideline.next_period_online lf ~c:1.0 ~elapsed:7.0 in
  match (p0, p7) with
  | Some a, Some b -> feq ~eps:1e-3 a b
  | _ -> Alcotest.fail "expected periods at both times"

let test_online_shrinks_near_deadline () =
  let lf = Families.uniform ~lifespan:100.0 in
  let early = Guideline.next_period_online lf ~c:1.0 ~elapsed:0.0 in
  let late = Guideline.next_period_online lf ~c:1.0 ~elapsed:90.0 in
  match (early, late) with
  | Some e, Some l -> Alcotest.(check bool) "late period shorter" true (l < e)
  | _ -> Alcotest.fail "expected periods at both times"

let test_online_none_when_exhausted () =
  let lf = Families.uniform ~lifespan:100.0 in
  Alcotest.(check bool) "no period at the end of life" true
    (Guideline.next_period_online lf ~c:1.0 ~elapsed:99.5 = None)

let test_online_validation () =
  let lf = Families.uniform ~lifespan:10.0 in
  match Guideline.next_period_online lf ~c:1.0 ~elapsed:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative elapsed accepted"

(* --- properties -------------------------------------------------------- *)

let prop_guideline_within_2pct_of_optimizer =
  (* The headline reproduction claim: guideline-generated schedules land
     within a few percent of the independent numeric optimum. *)
  QCheck.Test.make ~name:"guideline E within 2% of brute-force optimum"
    ~count:8
    QCheck.(pair (float_range 0.5 2.0) (float_range 30.0 120.0))
    (fun (c, l) ->
      let lf = Families.uniform ~lifespan:l in
      let g = Guideline.plan lf ~c in
      let o = Optimizer.optimal_schedule lf ~c in
      g.Guideline.expected_work >= 0.98 *. o.Optimizer.expected_work)

let prop_guideline_t0_in_paper_bounds_uniform =
  QCheck.Test.make ~name:"guideline t0 within the §4.1 simplified bounds"
    ~count:25
    QCheck.(pair (float_range 0.5 2.0) (float_range 30.0 300.0))
    (fun (c, l) ->
      let lf = Families.uniform ~lifespan:l in
      let g = Guideline.plan lf ~c in
      g.Guideline.t0 >= Closed_forms.uniform_t0_lower ~c ~lifespan:l -. 1e-6
      && g.Guideline.t0
         <= Closed_forms.uniform_t0_upper ~c ~lifespan:l +. 1e-6)

let () =
  Alcotest.run "guideline"
    [
      ( "against-exact",
        [
          Alcotest.test_case "uniform matches exact" `Quick
            test_guideline_matches_exact_uniform;
          Alcotest.test_case "geo-dec matches exact" `Quick
            test_guideline_matches_exact_geo_dec;
          Alcotest.test_case "geo-inc >= [3] structure" `Quick
            test_guideline_geo_inc_at_least_exact_structure;
          QCheck_alcotest.to_alcotest prop_guideline_within_2pct_of_optimizer;
          QCheck_alcotest.to_alcotest prop_guideline_t0_in_paper_bounds_uniform;
        ] );
      ( "structure",
        [
          Alcotest.test_case "t0 inside bracket" `Quick
            test_guideline_t0_inside_own_bracket;
          Alcotest.test_case "beats single period" `Quick
            test_guideline_beats_naive_singleperiod;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "productive schedules" `Quick
            test_schedule_is_productive;
        ] );
      ( "online",
        [
          Alcotest.test_case "first step = plan t0" `Quick
            test_online_first_step_matches_plan;
          Alcotest.test_case "memoryless constant" `Quick
            test_online_memoryless_constant;
          Alcotest.test_case "shrinks near deadline" `Quick
            test_online_shrinks_near_deadline;
          Alcotest.test_case "none when exhausted" `Quick
            test_online_none_when_exhausted;
          Alcotest.test_case "validation" `Quick test_online_validation;
        ] );
    ]
