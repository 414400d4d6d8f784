let test_determinism () =
  let g1 = Prng.create ~seed:123L in
  let g2 = Prng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 g1)
      (Prng.next_int64 g2)
  done

let test_different_seeds_differ () =
  let g1 = Prng.create ~seed:1L in
  let g2 = Prng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 g1 = Prng.next_int64 g2 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_split_diverges () =
  let g = Prng.create ~seed:5L in
  let child = Prng.split g in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 g = Prng.next_int64 child then incr overlap
  done;
  Alcotest.(check bool) "split stream distinct" true (!overlap < 4)

let test_float_range_01 () =
  let g = Prng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let u = Prng.float g in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_float_mean () =
  let g = Prng.create ~seed:11L in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check (float 0.01)) "uniform mean ~ 0.5" 0.5 mean

let test_int_bounds_and_coverage () =
  let g = Prng.create ~seed:13L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Prng.int g ~bound:10 in
    if k < 0 || k >= 10 then Alcotest.fail "int out of range";
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "bucket count %d far from uniform" c)
    counts

let test_int_invalid_bound () =
  let g = Prng.create ~seed:1L in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Prng.int: requires bound > 0") (fun () ->
      ignore (Prng.int g ~bound:0))

let test_exponential_mean () =
  let g = Prng.create ~seed:17L in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential g ~rate:2.0
  done;
  Alcotest.(check (float 0.01)) "Exp(2) mean ~ 0.5" 0.5 (!acc /. float_of_int n)

let test_normal_moments () =
  let g = Prng.create ~seed:19L in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Prng.normal g ~mu:3.0 ~sigma:2.0) in
  let s = Stats.summarize xs in
  Alcotest.(check (float 0.05)) "normal mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 0.1)) "normal stddev" 2.0 s.Stats.stddev

let test_weibull_median () =
  let g = Prng.create ~seed:23L in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.weibull g ~shape:2.0 ~scale:1.0) in
  (* Weibull median = scale * (ln 2)^(1/shape) *)
  let expected = Float.pow (log 2.0) 0.5 in
  Alcotest.(check (float 0.02)) "weibull median" expected
    (Stats.quantile xs ~q:0.5)

let test_shuffle_permutes () =
  let g = Prng.create ~seed:29L in
  let a = Array.init 100 (fun i -> i) in
  let b = Array.copy a in
  Prng.shuffle g b;
  Array.sort compare b;
  Alcotest.(check bool) "same multiset" true (a = b)

let test_float_range_args () =
  let g = Prng.create ~seed:31L in
  Alcotest.check_raises "lo >= hi rejected"
    (Invalid_argument "Prng.float_range: requires lo < hi") (fun () ->
      ignore (Prng.float_range g ~lo:1.0 ~hi:1.0))

let () =
  Alcotest.run "prng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "float in [0,1)" `Quick test_float_range_01;
          Alcotest.test_case "uniform mean" `Quick test_float_mean;
          Alcotest.test_case "int coverage" `Quick test_int_bounds_and_coverage;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid_bound;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "weibull median" `Quick test_weibull_median;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "float_range validation" `Quick
            test_float_range_args;
        ] );
    ]
