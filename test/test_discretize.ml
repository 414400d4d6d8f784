let lf = Families.uniform ~lifespan:100.0
let c = 1.0

let test_quantize_rounds_down () =
  (* Period 10 with c = 1 and task 4: floor(9/4) = 2 tasks, period 9. *)
  let s = Schedule.of_list [ 10.0 ] in
  let q = Discretize.quantize lf ~c ~task:4.0 s in
  Alcotest.(check int) "tasks" 2 q.Discretize.total_tasks;
  Alcotest.(check (float 1e-12)) "period" 9.0
    (Schedule.period q.Discretize.schedule 0)

let test_quantize_exact_fit () =
  (* Period 9 with c = 1 and task 4: exactly 2 tasks. *)
  let s = Schedule.of_list [ 9.0 ] in
  let q = Discretize.quantize lf ~c ~task:4.0 s in
  Alcotest.(check int) "tasks" 2 q.Discretize.total_tasks;
  Alcotest.(check (float 1e-12)) "period unchanged" 9.0
    (Schedule.period q.Discretize.schedule 0)

let test_quantize_drops_tiny_periods () =
  let s = Schedule.of_list [ 10.0; 2.0; 8.0 ] in
  (* task 4: periods yield 2, 0, 1 tasks; the middle is dropped. *)
  let q = Discretize.quantize lf ~c ~task:4.0 s in
  Alcotest.(check int) "two kept" 2 (Schedule.num_periods q.Discretize.schedule);
  Alcotest.(check (array int)) "tasks per period" [| 2; 1 |]
    q.Discretize.tasks_per_period

let test_quantize_nothing_fits () =
  let s = Schedule.of_list [ 2.0 ] in
  match Discretize.quantize lf ~c ~task:4.0 s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_quantize_validation () =
  let s = Schedule.of_list [ 10.0 ] in
  (match Discretize.quantize lf ~c ~task:0.0 s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "task = 0 accepted");
  match Discretize.quantize lf ~c:(-1.0) ~task:1.0 s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c accepted"

let test_efficiency_bounds () =
  let g = Guideline.plan lf ~c in
  let q = Discretize.quantize lf ~c ~task:0.5 g.Guideline.schedule in
  let eff = Discretize.efficiency q in
  Alcotest.(check bool) "fine grain highly efficient" true (eff > 0.9);
  Alcotest.(check bool) "bounded above" true (eff <= 1.05)

let test_efficiency_degrades_with_grain () =
  let g = Guideline.plan lf ~c in
  let eff task =
    Discretize.efficiency (Discretize.quantize lf ~c ~task g.Guideline.schedule)
  in
  Alcotest.(check bool) "coarse grain loses more" true (eff 0.1 >= eff 6.0)

let test_quantized_work_consistent () =
  let g = Guideline.plan lf ~c in
  let q = Discretize.quantize lf ~c ~task:1.0 g.Guideline.schedule in
  Alcotest.(check (float 1e-9)) "E consistent" q.Discretize.expected_work
    (Schedule.expected_work ~c lf q.Discretize.schedule)

let prop_quantized_capacity_le_continuous =
  QCheck.Test.make
    ~name:"quantized productive time never exceeds the continuous periods"
    ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 10) (float_range 2.0 20.0))
        (float_range 0.2 3.0))
    (fun (ts, task) ->
      let s = Schedule.of_periods ts in
      match Discretize.quantize lf ~c ~task s with
      | exception Invalid_argument _ -> true
      | q ->
          float_of_int q.Discretize.total_tasks *. task
          <= Schedule.work_capacity ~c s +. 1e-9)

let prop_fine_tasks_lose_little =
  QCheck.Test.make ~name:"task grain 0.05 keeps >= 95% of continuous E"
    ~count:20
    QCheck.(float_range 40.0 150.0)
    (fun l ->
      let lf = Families.uniform ~lifespan:l in
      let g = Guideline.plan lf ~c:1.0 in
      let q = Discretize.quantize lf ~c:1.0 ~task:0.05 g.Guideline.schedule in
      Discretize.efficiency q >= 0.95)

let () =
  Alcotest.run "discretize"
    [
      ( "discretize",
        [
          Alcotest.test_case "rounds down" `Quick test_quantize_rounds_down;
          Alcotest.test_case "exact fit" `Quick test_quantize_exact_fit;
          Alcotest.test_case "drops tiny periods" `Quick
            test_quantize_drops_tiny_periods;
          Alcotest.test_case "nothing fits" `Quick test_quantize_nothing_fits;
          Alcotest.test_case "validation" `Quick test_quantize_validation;
          Alcotest.test_case "efficiency bounds" `Quick test_efficiency_bounds;
          Alcotest.test_case "grain degrades efficiency" `Quick
            test_efficiency_degrades_with_grain;
          Alcotest.test_case "quantized E consistent" `Quick
            test_quantized_work_consistent;
          QCheck_alcotest.to_alcotest prop_quantized_capacity_le_continuous;
          QCheck_alcotest.to_alcotest prop_fine_tasks_lose_little;
        ] );
    ]
