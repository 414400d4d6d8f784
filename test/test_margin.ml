(* Theorem 5.1: a schedule built from the recurrence on a concave life
   function cannot be improved by any [k, ±δ] exchange of two adjacent
   periods. [Theory.perturbation_margin] scores each exchange from two
   terms of eq. 2.1; "exchanges" checks it against a whole-schedule
   re-sum. *)

let c = 1.0

let uniform100 = Families.uniform ~lifespan:100.0

let test_recurrence_schedule_beats_perturbations () =
  (* A schedule built from the recurrence on a concave (here linear) life
     function must have a nonnegative perturbation margin. *)
  let g = Guideline.plan uniform100 ~c in
  let m = Theory.perturbation_margin uniform100 ~c g.Guideline.schedule in
  Alcotest.(check bool) "Thm 5.1 margin >= 0" true (m.Theory.margin >= -1e-9)

let test_geo_inc_guideline_beats_perturbations () =
  let lfi = Families.geometric_increasing ~lifespan:30.0 in
  let g = Guideline.plan lfi ~c in
  if Schedule.num_periods g.Guideline.schedule >= 2 then begin
    let m = Theory.perturbation_margin lfi ~c g.Guideline.schedule in
    Alcotest.(check bool) "Thm 5.1 margin >= 0" true (m.Theory.margin >= -1e-9)
  end

let test_bad_schedule_detected_by_perturbation () =
  (* Equal periods on uniform risk violate the recurrence; some
     perturbation must strictly improve them. *)
  let s = Schedule.of_list [ 10.0; 10.0; 10.0; 10.0 ] in
  let m = Theory.perturbation_margin uniform100 ~c s in
  Alcotest.(check bool) "improvable" true (m.Theory.margin < 0.0)

let test_margin_requires_two_periods () =
  let s = Schedule.of_list [ 5.0 ] in
  match Theory.perturbation_margin uniform100 ~c s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-period accepted"

(* Strip a trailing sub-c period: Thm 5.1's algebra uses ordinary
   subtraction and does not cover perturbing into dead tails. *)
let strip_tail ~c s =
  let ps = Schedule.periods s in
  let n = Array.length ps in
  if n >= 2 && ps.(n - 1) <= c then Schedule.of_periods (Array.sub ps 0 (n - 1))
  else s

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
      let s = strip_tail ~c g.Recurrence.schedule in
      Schedule.num_periods s < 2
      ||
      let m = Theory.perturbation_margin lf ~c s in
      m.Theory.margin >= -1e-7)

(* Differential oracle: every exchanged schedule rebuilt in full and
   re-summed through eq. 2.1, with the same exchange sizes and the same
   domain filter (every period of S' above c). O(m²). *)
let margin_by_resum lf ~c s =
  let ts = Schedule.periods s in
  let tmin = Array.fold_left Float.min ts.(0) ts in
  let e0 = Schedule.expected_work ~c lf s in
  let worst = ref infinity in
  for k = 0 to Array.length ts - 2 do
    List.iter
      (fun f ->
        List.iter
          (fun delta ->
            let ts' = Array.copy ts in
            ts'.(k) <- ts.(k) +. delta;
            ts'.(k + 1) <- ts.(k + 1) -. delta;
            if Array.for_all (fun t -> t > c) ts' then
              worst :=
                Float.min !worst
                  (e0 -. Schedule.expected_work ~c lf (Schedule.of_periods ts')))
          [ f *. tmin; -.(f *. tmin) ])
      [ 0.001; 0.01; 0.05; 0.25 ]
  done;
  if !worst < infinity then !worst else 0.0

let family = function
  | 0 -> Families.uniform ~lifespan:80.0
  | 1 -> Families.polynomial ~d:2 ~lifespan:80.0
  | 2 -> Families.polynomial ~d:3 ~lifespan:80.0
  | 3 -> Families.polynomial ~d:4 ~lifespan:80.0
  | 4 -> Families.geometric_decreasing ~a:(exp 0.05)
  | 5 -> Families.geometric_increasing ~lifespan:30.0
  | _ -> Families.weibull ~shape:1.5 ~scale:40.0

let agrees lf ~c s =
  Schedule.num_periods s < 2
  ||
  let fast = (Theory.perturbation_margin lf ~c s).Theory.margin in
  let slow = margin_by_resum lf ~c s in
  let scale = Float.max 1.0 (Schedule.expected_work ~c lf s) in
  Float.abs (fast -. slow) <= 1e-11 *. scale
  || QCheck.Test.fail_reportf "fast %.17g vs re-sum %.17g" fast slow

let prop_margin_matches_whole_schedule_resum =
  QCheck.Test.make ~name:"two-term margin = whole-schedule re-sum" ~count:120
    QCheck.(triple (int_range 0 6) (float_range 0.3 3.0) (float_range 0.0 1.0))
    (fun (fam, c, u) ->
      let lf = family fam in
      let lo, hi = Bounds.bracket lf ~c in
      let t0 = lo +. (u *. (hi -. lo)) in
      agrees lf ~c (strip_tail ~c (Recurrence.generate lf ~c ~t0).Recurrence.schedule))

let prop_margin_domain_matches_resum =
  (* Arbitrary periods straddling c: the domain filter decides the margin. *)
  QCheck.Test.make ~name:"two-term margin = re-sum off the recurrence"
    ~count:200
    QCheck.(
      triple (int_range 0 6) (float_range 0.3 3.0)
        (list_of_size Gen.(2 -- 12) (float_range 0.5 4.0)))
    (fun (fam, c, fs) ->
      agrees (family fam) ~c (Schedule.of_list (List.map (fun f -> f *. c) fs)))

let () =
  Alcotest.run "margin"
    [
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
      ( "exchanges",
        [
          QCheck_alcotest.to_alcotest prop_margin_matches_whole_schedule_resum;
          QCheck_alcotest.to_alcotest prop_margin_domain_matches_resum;
        ] );
    ]
