(* Cross-run trend analytics (Bench_trend): trajectory extraction from a
   bench history, the with-intercept slope fit and its advisory-point
   exclusions, and jump detection. *)

let entry ?(advisory = false) ns r2 =
  { Bench_record.ns_per_call = ns; r_square = r2; advisory }

let record ~sha ~t results =
  Bench_record.make ~ocaml:"5.1" ~git_sha:sha ~hostname:"h"
    ~quota_seconds:1.0 ~unix_time:t results

(* A history where metric "m" walks through [values]; each record gets
   a distinct synthetic sha ("sha0", "sha1", ...). *)
let history ?(metric = "m") values =
  List.mapi
    (fun i v ->
      record ~sha:(Printf.sprintf "sha%d" i) ~t:(float_of_int i)
        [ (metric, v) ])
    values

(* ------------------------------------------------------------------ *)
(* Trajectories                                                        *)

let test_metrics_of () =
  let records =
    [
      record ~sha:"a" ~t:0.0 [ ("beta", entry 1.0 1.0); ("alpha", entry 2.0 1.0) ];
      record ~sha:"b" ~t:1.0 [ ("beta", entry 1.0 1.0); ("gamma", entry 3.0 1.0) ];
    ]
  in
  Alcotest.(check (list string)) "sorted, deduplicated"
    [ "alpha"; "beta"; "gamma" ]
    (Bench_trend.metrics_of records)

let test_trajectory_alignment () =
  (* Record 2 does not carry the metric: it contributes no point but
     still advances seq, keeping the x-axis aligned with history rows. *)
  let records =
    [
      record ~sha:"s0" ~t:10.0 [ ("m", entry 5.0 0.99) ];
      record ~sha:"s1" ~t:11.0 [ ("m", entry 5.1 0.98) ];
      record ~sha:"s2" ~t:12.0 [ ("other", entry 1.0 1.0) ];
      record ~sha:"s3" ~t:13.0 [ ("m", entry ~advisory:true 9.9 (-2.0)) ];
    ]
  in
  let tr = Bench_trend.trajectory ~metric:"m" records in
  Alcotest.(check (list int)) "seq skips the silent record" [ 0; 1; 3 ]
    (List.map (fun p -> p.Bench_trend.seq) tr.Bench_trend.points);
  let p0 = List.hd tr.Bench_trend.points in
  Alcotest.(check string) "sha surfaced" "s0" p0.Bench_trend.git_sha;
  Alcotest.(check (float 1e-12)) "time surfaced" 10.0 p0.Bench_trend.unix_time;
  Alcotest.(check bool) "advisory flag surfaced" true
    (List.exists (fun p -> p.Bench_trend.advisory) tr.Bench_trend.points)

(* ------------------------------------------------------------------ *)
(* Slope fits                                                          *)

let test_slope_fit_guards () =
  Alcotest.(check bool) "empty" true (Bench_trend.slope_fit [] = None);
  Alcotest.(check bool) "single point" true
    (Bench_trend.slope_fit [ (0.0, 1.0) ] = None);
  (* Two points fit a slope but r² stays nan below min_samples — the
     same reporting discipline as Bench_fit. *)
  (match Bench_trend.slope_fit [ (0.0, 3.0); (1.0, 5.0) ] with
  | None -> Alcotest.fail "two points should fit"
  | Some f ->
      Alcotest.(check (float 1e-9)) "slope" 2.0 f.Bench_fit.ns_per_run;
      Alcotest.(check bool) "r2 withheld" true
        (Float.is_nan f.Bench_fit.r_square));
  (* Zero x-variance cannot support a slope. *)
  match Bench_trend.slope_fit [ (1.0, 3.0); (1.0, 5.0) ] with
  | None -> Alcotest.fail "degenerate input still returns a fit record"
  | Some f ->
      Alcotest.(check bool) "slope nan at zero x-variance" true
        (Float.is_nan f.Bench_fit.ns_per_run)

let test_slope_fit_with_intercept () =
  (* y = 100 + 2x: a through-origin fit would be badly biased by the
     arbitrary baseline; the intercept form recovers the drift. *)
  let pairs = List.init 5 (fun i -> (float_of_int i, 100.0 +. (2.0 *. float_of_int i))) in
  match Bench_trend.slope_fit pairs with
  | None -> Alcotest.fail "no fit"
  | Some f ->
      Alcotest.(check (float 1e-9)) "slope is the drift" 2.0
        f.Bench_fit.ns_per_run;
      Alcotest.(check (float 1e-9)) "perfect line" 1.0 f.Bench_fit.r_square;
      Alcotest.(check int) "kept" 5 f.Bench_fit.kept

let test_trajectory_fit_excludes_advisory () =
  let values =
    [
      entry 10.0 0.99;
      entry 12.0 0.99;
      entry ~advisory:true 500.0 Float.nan;
      entry 16.0 0.99;
      entry 18.0 0.99;
    ]
  in
  let tr = Bench_trend.trajectory ~metric:"m" (history values) in
  (match tr.Bench_trend.fit with
  | None -> Alcotest.fail "usable points should fit"
  | Some f ->
      Alcotest.(check int) "advisory excluded from kept" 4 f.Bench_fit.kept;
      Alcotest.(check int) "but counted in total" 5 f.Bench_fit.total;
      Alcotest.(check (float 1e-9)) "slope from measured points only" 2.0
        f.Bench_fit.ns_per_run);
  (* Fewer than two usable points: no fit at all. *)
  let tr' =
    Bench_trend.trajectory ~metric:"m"
      (history [ entry 10.0 0.9; entry ~advisory:true 20.0 Float.nan ])
  in
  Alcotest.(check bool) "one usable point, no fit" true
    (tr'.Bench_trend.fit = None)

(* ------------------------------------------------------------------ *)
(* Jumps                                                               *)

let test_first_jump () =
  let tr values = Bench_trend.trajectory ~metric:"m" (history values) in
  Alcotest.(check bool) "flat trajectory, no jump" true
    (Bench_trend.first_jump (tr [ entry 10.0 1.0; entry 11.0 1.0; entry 10.5 1.0 ])
    = None);
  (match
     Bench_trend.first_jump
       (tr [ entry 10.0 1.0; entry 10.5 1.0; entry 14.0 1.0; entry 30.0 1.0 ])
   with
  | None -> Alcotest.fail "missed the jump"
  | Some j ->
      Alcotest.(check int) "first trip wins" 1 j.Bench_trend.j_from.Bench_trend.seq;
      Alcotest.(check int) "to the next point" 2 j.Bench_trend.j_to.Bench_trend.seq;
      Alcotest.(check (float 1e-9)) "ratio" (14.0 /. 10.5) j.Bench_trend.j_ratio);
  (* Improvements trip the band too — a 2x speedup is as attributable
     as a 2x regression. *)
  (match Bench_trend.first_jump (tr [ entry 10.0 1.0; entry 5.0 1.0 ]) with
  | None -> Alcotest.fail "missed the downward jump"
  | Some j -> Alcotest.(check (float 1e-9)) "ratio below band" 0.5 j.Bench_trend.j_ratio);
  (* Advisory points are invisible to jump detection: the comparison is
     between the measured neighbors around them. *)
  (match
     Bench_trend.first_jump
       (tr [ entry 10.0 1.0; entry ~advisory:true 100.0 Float.nan; entry 10.5 1.0 ])
   with
  | None -> ()
  | Some _ -> Alcotest.fail "advisory point manufactured a jump");
  (match
     Bench_trend.first_jump
       (tr [ entry 10.0 1.0; entry ~advisory:true 1.0 Float.nan; entry 14.0 1.0 ])
   with
  | None -> Alcotest.fail "advisory point hid a jump"
  | Some j ->
      Alcotest.(check int) "jump spans the advisory gap" 2
        j.Bench_trend.j_to.Bench_trend.seq);
  (* Wider thresholds tolerate more. *)
  Alcotest.(check bool) "wide threshold" true
    (Bench_trend.first_jump ~threshold:2.0 (tr [ entry 10.0 1.0; entry 14.0 1.0 ])
    = None);
  match Bench_trend.first_jump ~threshold:1.0 (tr [ entry 10.0 1.0 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted threshold <= 1"

let () =
  Alcotest.run "trend"
    [
      ( "trajectory",
        [
          Alcotest.test_case "metrics_of" `Quick test_metrics_of;
          Alcotest.test_case "seq alignment" `Quick test_trajectory_alignment;
        ] );
      ( "slope",
        [
          Alcotest.test_case "guards" `Quick test_slope_fit_guards;
          Alcotest.test_case "with intercept" `Quick
            test_slope_fit_with_intercept;
          Alcotest.test_case "advisory excluded" `Quick
            test_trajectory_fit_excludes_advisory;
        ] );
      ( "jump",
        [ Alcotest.test_case "first jump" `Quick test_first_jump ] );
    ]
