let lf = Families.uniform ~lifespan:100.0
let c = 1.0

let test_perturb_preserves_duration () =
  let s = Schedule.of_list [ 5.0; 4.0; 3.0 ] in
  match Perturb.perturb s ~k:0 ~delta:0.7 with
  | Some s' ->
      Alcotest.(check (float 1e-12)) "total preserved"
        (Schedule.total_duration s) (Schedule.total_duration s');
      Alcotest.(check (float 0.0)) "k grew" 5.7 (Schedule.period s' 0);
      Alcotest.(check (float 1e-12)) "k+1 shrank" 3.3 (Schedule.period s' 1)
  | None -> Alcotest.fail "perturbation should be valid"

let test_perturb_rejects_collapse () =
  let s = Schedule.of_list [ 5.0; 1.0 ] in
  Alcotest.(check bool) "None when k+1 collapses" true
    (Perturb.perturb s ~k:0 ~delta:1.0 = None);
  Alcotest.(check bool) "None when k collapses" true
    (Perturb.perturb s ~k:0 ~delta:(-5.0) = None)

let test_perturb_out_of_range () =
  let s = Schedule.of_list [ 5.0; 4.0 ] in
  match Perturb.perturb s ~k:1 ~delta:0.1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k+1 out of range accepted"

(* --- Theorem 5.1 in action -------------------------------------------- *)

let test_recurrence_schedule_beats_perturbations () =
  (* A schedule built from the recurrence on a concave (here linear) life
     function must have a nonnegative perturbation margin. *)
  let g = Guideline.plan lf ~c in
  let m = Perturb.perturbation_margin ~min_period:c lf ~c g.Guideline.schedule in
  Alcotest.(check bool) "Thm 5.1 margin >= 0" true (m.Perturb.margin >= -1e-9)

let test_geo_inc_guideline_beats_perturbations () =
  let lfi = Families.geometric_increasing ~lifespan:30.0 in
  let g = Guideline.plan lfi ~c in
  if Schedule.num_periods g.Guideline.schedule >= 2 then begin
    let m =
      Perturb.perturbation_margin ~min_period:c lfi ~c g.Guideline.schedule
    in
    Alcotest.(check bool) "Thm 5.1 margin >= 0" true (m.Perturb.margin >= -1e-9)
  end

let test_bad_schedule_detected_by_perturbation () =
  (* Equal periods on uniform risk violate the recurrence; some
     perturbation must strictly improve them. *)
  let s = Schedule.of_list [ 10.0; 10.0; 10.0; 10.0 ] in
  let m = Perturb.perturbation_margin lf ~c s in
  Alcotest.(check bool) "improvable" true (m.Perturb.margin < 0.0)

let test_margin_requires_two_periods () =
  let s = Schedule.of_list [ 5.0 ] in
  match Perturb.perturbation_margin lf ~c s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-period accepted"

let prop_thm51_recurrence_schedules_locally_optimal =
  (* Theorem 5.1 over random starting periods and concave shapes. *)
  QCheck.Test.make
    ~name:"recurrence-generated schedules beat perturbations (Thm 5.1)"
    ~count:40
    QCheck.(triple (float_range 8.0 25.0) (float_range 0.4 1.5) (int_range 1 3))
    (fun (t0, c, dsel) ->
      let lf =
        match dsel with
        | 1 -> Families.uniform ~lifespan:120.0
        | 2 -> Families.polynomial ~d:2 ~lifespan:120.0
        | _ -> Families.polynomial ~d:3 ~lifespan:120.0
      in
      let g = Recurrence.generate lf ~c ~t0 in
      (* Strip a trailing sub-c period: Thm 5.1's algebra uses ordinary
         subtraction and does not cover perturbing into dead tails. *)
      let s =
        let ps = Schedule.periods g.Recurrence.schedule in
        let n = Array.length ps in
        if n >= 2 && ps.(n - 1) <= c then
          Schedule.of_periods (Array.sub ps 0 (n - 1))
        else g.Recurrence.schedule
      in
      Schedule.num_periods s < 2
      ||
      let m = Perturb.perturbation_margin ~min_period:c lf ~c s in
      m.Perturb.margin >= -1e-7)

let () =
  Alcotest.run "perturb"
    [
      ( "operators",
        [
          Alcotest.test_case "perturb preserves duration" `Quick
            test_perturb_preserves_duration;
          Alcotest.test_case "perturb rejects collapse" `Quick
            test_perturb_rejects_collapse;
          Alcotest.test_case "perturb out of range" `Quick
            test_perturb_out_of_range;
        ] );
      ( "thm-5.1",
        [
          Alcotest.test_case "recurrence beats perturbations" `Quick
            test_recurrence_schedule_beats_perturbations;
          Alcotest.test_case "geo-inc guideline margin" `Quick
            test_geo_inc_guideline_beats_perturbations;
          Alcotest.test_case "bad schedule improvable" `Quick
            test_bad_schedule_detected_by_perturbation;
          Alcotest.test_case "needs two periods" `Quick
            test_margin_requires_two_periods;
          QCheck_alcotest.to_alcotest
            prop_thm51_recurrence_schedules_locally_optimal;
        ] );
    ]
