(* The repository benchmark: one single-process, closed-loop program over
   the paper workflow (plan, fit, simulate, trace). See README.md in this
   directory for the workloads, the metrics and the layer map.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with no instrument attached;
   --trace 1 is the separate traced run that gives the per-layer figures
   and the tracing overhead. The last line of standard output is one JSON
   object; the exit code is non-zero when any output check fails. *)

let workloads =
  [ Plan_sweep.workload; Fit_pipeline.workload; Mc_validate.workload;
    Observed_run.workload ]

let usage () =
  prerr_endline
    "usage: perfbench --workload plan-sweep|fit-pipeline|mc-validate|observed-run \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := String.equal v "1"; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds) with
  | Some w, Some seed, Some seconds when seconds > 0.0 ->
      { Harness.workload = w; seed; seconds; trace = !trace }
  | _ -> usage ()

(* Operations of the timed loop whose input failed a check, plus the
   operations that raised. *)
let failed_ops (l : Harness.loop) ~raised (v : Harness.verdict) =
  let n = Array.length v.Harness.bad in
  let k = ref raised in
  for i = 0 to l.Harness.ops - 1 do
    if v.Harness.bad.(i mod n) then incr k
  done;
  !k

let report_checks (v : Harness.verdict) ~workload ~seed =
  List.iter (fun s -> Printf.printf "check failed: %s\n" s) v.Harness.notes;
  let d = Digest.to_hex (Digest.string (String.concat "\n" v.Harness.digest)) in
  Printf.printf "digest %s seed=%d %s\n" workload seed d;
  Array.exists Fun.id v.Harness.bad

(* Set up several times and keep the last instance: set-up is input
   generation, pool creation and the warm-up. It repeats at least
   [min_reps] times and until [window] seconds have gone, at most
   [max_reps]. The Monte Carlo pool always has one domain (see README.md,
   "Concurrency"). *)
let setup (w : Harness.workload) (a : Harness.args) ~min_reps ~max_reps ~window ~want_pool =
  let rec go times total prev_pool =
    Option.iter Domain_pool.shutdown prev_pool;
    let t0 = Harness.now () in
    let pool = if want_pool then Some (Domain_pool.create ~domains:1) else None in
    let inst = w.Harness.prepare ~seed:a.Harness.seed ~pool in
    inst.Harness.warm ();
    let dt = Harness.now () -. t0 in
    let times = dt :: times and total = total +. dt in
    let k = List.length times in
    if k >= max_reps || (k >= min_reps && total >= window) then (inst, pool, Array.of_list times)
    else go times total pool
  in
  go [] 0.0 None

let finish ~correct ~attempted ~failed metrics =
  List.iter Harness.finite_or_fail metrics;
  print_endline (Harness.json_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* [setup_s] is the median of the set-ups of two windows, one before the
   timed loop and one after it: on a shared host the speed of the same
   code changes for seconds at a time, and two windows on either side of
   the loop sample the host at two moments rather than one. The heap
   peak is read before the second window. *)
let untraced (w : Harness.workload) (a : Harness.args) =
  let setup () =
    setup w a ~min_reps:5 ~max_reps:200 ~window:2.0 ~want_pool:w.Harness.uses_pool
  in
  let inst, pool, before = setup () in
  Gc.full_major ();
  let loop, raised = Harness.run_loop inst ~seconds:a.Harness.seconds in
  let v = inst.Harness.check () in
  Option.iter Domain_pool.shutdown pool;
  let heap_peak_mb = Harness.heap_peak_mb () in
  let _, pool, after = setup () in
  Option.iter Domain_pool.shutdown pool;
  let any_bad = report_checks v ~workload:w.Harness.name ~seed:a.Harness.seed in
  let failed = failed_ops loop ~raised v in
  let s = inst.Harness.summarize loop in
  let attempted = max 1 loop.Harness.ops in
  List.iter Harness.print_metric
    (s.Harness.named
    @ [
        ("ops_failed_frac", float_of_int failed /. float_of_int attempted, "1");
        ("setup_reps", float_of_int (Array.length before + Array.length after), "count");
      ]);
  let metrics =
    [
      ("setup_s", Harness.median (Array.append before after), "s");
      ("heap_peak_mb", heap_peak_mb, "MB");
      ("work_per_s", s.Harness.work_per_s, "1/s");
      ("op_p50_ms", s.Harness.op_p50_ms, "ms");
    ]
  in
  List.iter Harness.print_metric metrics;
  finish ~correct:((not any_bad) && failed = 0) ~attempted ~failed metrics

(* The traced run: the same operations once bare and once inside
   benchmark spans, then each input's layer calls one by one. Then, each
   into a recorder of its own, a few operations of every other workload
   (the tour) and the layer probes, so that every layer row exists; a row
   is taken from the workload's own spans whenever it has it. *)
let traced (w : Harness.workload) (a : Harness.args) =
  let inst, pool, _ = setup w a ~min_reps:1 ~max_reps:1 ~window:0.0 ~want_pool:true in
  Gc.full_major ();
  let r = Span_rec.create () and tour = Span_rec.create () and probes = Span_rec.create () in
  let bare, _ = Harness.run_loop inst ~seconds:(a.Harness.seconds /. 2.0) in
  let spanned, raised =
    Harness.run_loop ~max_ops:bare.Harness.ops ~rec_:r inst ~seconds:0.0
  in
  for i = 0 to min inst.Harness.inputs bare.Harness.ops - 1 do
    inst.Harness.detail r i
  done;
  List.iter
    (fun (o : Harness.workload) ->
      if not (String.equal o.Harness.name w.Harness.name) then begin
        let oi = o.Harness.prepare ~seed:a.Harness.seed ~pool in
        ignore (Harness.run_loop ~max_ops:o.Harness.tour ~rec_:tour oi ~seconds:0.0);
        for i = 0 to min oi.Harness.inputs o.Harness.tour - 1 do
          oi.Harness.detail tour i
        done
      end)
    workloads;
  Probes.run probes ~seed:a.Harness.seed;
  Probes.parallel probes ~seed:a.Harness.seed
    ~domains:(min 2 (Domain.recommended_domain_count ()));
  let v = inst.Harness.check () in
  let any_bad = report_checks v ~workload:w.Harness.name ~seed:a.Harness.seed in
  let failed = failed_ops spanned ~raised v in
  Harness.ensure_out_dir ();
  let path =
    Filename.concat Harness.out_dir
      (Printf.sprintf "spans-%s-%d.jsonl" w.Harness.name a.Harness.seed)
  in
  Span_rec.write r path;
  Printf.printf "spans written to %s\n" path;
  List.iter
    (fun (layer, self) -> Printf.printf "self %-10s %.6f s\n" layer self)
    (Span_rec.self_by_layer r);
  let overhead = spanned.Harness.elapsed /. bare.Harness.elapsed in
  Option.iter Domain_pool.shutdown pool;
  let rows = Layers.metrics [ ("own", r); ("probes", probes); ("tour", tour) ] in
  List.iter
    (fun (name, v, unit, src) -> Printf.printf "metric %-28s %.6g %s (%s)\n" name v unit src)
    rows;
  Harness.print_metric ("bench.span_overhead_x", overhead, "x");
  let metrics =
    List.map (fun (name, v, unit, _) -> (name, v, unit)) rows
    @ [ ("bench.span_overhead_x", overhead, "x") ]
  in
  let attempted = max 1 spanned.Harness.ops in
  finish ~correct:((not any_bad) && failed = 0) ~attempted ~failed metrics

let () =
  let a = parse Sys.argv in
  match
    List.find_opt (fun (w : Harness.workload) -> String.equal w.Harness.name a.Harness.workload)
      workloads
  with
  | None -> usage ()
  | Some w -> if a.Harness.trace then traced w a else untraced w a
