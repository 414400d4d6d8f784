let c = 1.0

let test_paper_scenarios_unique () =
  (* §6: "each of the life functions studied in [3] admits a unique optimal
     schedule" — the probe should find one near-optimal t0 cluster. *)
  List.iter
    (fun (name, lf) ->
      let p = Uniqueness.probe lf ~c in
      Alcotest.(check int)
        (Printf.sprintf "%s: one cluster" name)
        1
        (List.length p.Uniqueness.clusters))
    (Families.all_paper_scenarios ~c)

let test_cluster_contains_exact_t0_uniform () =
  let lf = Families.uniform ~lifespan:100.0 in
  let exact = Exact.uniform ~c ~lifespan:100.0 in
  match (Uniqueness.probe lf ~c).Uniqueness.clusters with
  | [ cl ] ->
      Alcotest.(check bool)
        (Printf.sprintf "optimal t0 %.3f in [%.3f, %.3f]" exact.Exact.t0
           cl.Uniqueness.t0_low cl.Uniqueness.t0_high)
        true
        (exact.Exact.t0 >= cl.Uniqueness.t0_low -. 0.1
        && exact.Exact.t0 <= cl.Uniqueness.t0_high +. 0.1)
  | _ -> Alcotest.fail "expected one cluster"

let test_cluster_is_narrow () =
  (* Near-uniqueness: the 1e-4-optimal set should be a small fraction of
     the search bracket. *)
  let lf = Families.uniform ~lifespan:100.0 in
  let lo, hi = Bounds.bracket lf ~c in
  match (Uniqueness.probe lf ~c).Uniqueness.clusters with
  | [ cl ] ->
      let width = cl.Uniqueness.t0_high -. cl.Uniqueness.t0_low in
      Alcotest.(check bool)
        (Printf.sprintf "width %.3f vs bracket %.3f" width (hi -. lo))
        true
        (width < 0.25 *. (hi -. lo))
  | _ -> Alcotest.fail "expected one cluster"

let test_best_value_consistent () =
  let lf = Families.polynomial ~d:2 ~lifespan:80.0 in
  let p = Uniqueness.probe lf ~c in
  let g = Guideline.plan lf ~c in
  Alcotest.(check bool) "probe max ~ guideline E" true
    (Float.abs (p.Uniqueness.max_value -. g.Guideline.expected_work)
    <= 0.01 *. g.Guideline.expected_work)

let test_loose_tolerance_widens_cluster () =
  let lf = Families.uniform ~lifespan:60.0 in
  let tight = Uniqueness.probe ~rel_tol:1e-6 lf ~c in
  let loose = Uniqueness.probe ~rel_tol:0.05 lf ~c in
  let width p =
    List.fold_left
      (fun acc cl -> acc +. (cl.Uniqueness.t0_high -. cl.Uniqueness.t0_low))
      0.0 p.Uniqueness.clusters
  in
  Alcotest.(check bool) "looser tolerance, wider set" true
    (width loose >= width tight)

let test_validation () =
  match Uniqueness.probe ~samples:2 (Families.uniform ~lifespan:10.0) ~c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "samples = 2 accepted"

let prop_probe_never_empty =
  QCheck.Test.make ~name:"probe always finds at least one cluster" ~count:20
    QCheck.(pair (float_range 0.4 2.0) (float_range 25.0 150.0))
    (fun (c, l) ->
      let lf = Families.polynomial ~d:2 ~lifespan:l in
      (Uniqueness.probe lf ~c).Uniqueness.clusters <> [])

let () =
  Alcotest.run "uniqueness"
    [
      ( "uniqueness",
        [
          Alcotest.test_case "paper scenarios unique" `Quick
            test_paper_scenarios_unique;
          Alcotest.test_case "cluster contains optimal t0" `Quick
            test_cluster_contains_exact_t0_uniform;
          Alcotest.test_case "cluster narrow" `Quick test_cluster_is_narrow;
          Alcotest.test_case "best value consistent" `Quick
            test_best_value_consistent;
          Alcotest.test_case "tolerance widens cluster" `Quick
            test_loose_tolerance_widens_cluster;
          Alcotest.test_case "validation" `Quick test_validation;
          QCheck_alcotest.to_alcotest prop_probe_never_empty;
        ] );
    ]
