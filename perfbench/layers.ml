(* The per-layer metrics of a traced run, named after the lib/ module each
   one times. Span metrics are means over every span of that name;
   noted figures are means of the values noted (the probes' medians, one
   value per input for the detail figures); counts are exact.

   A traced run keeps three recorders apart: the workload's own
   operations and layer calls, the seed-only probes, and the tour of the
   other workloads. A row comes from the first of them that measured it,
   so a row the workload itself measures never mixes in other workloads'
   inputs; the row's source is printed with it. A row no recorder
   measured comes out as nan and fails the run. *)

let span_mean r name ~scale =
  match Span_rec.durations r name with
  | [||] -> nan
  | d -> Harness.mean d *. scale

let noted r name = match Span_rec.noted r name with [||] -> nan | v -> Harness.mean v

let counted r name =
  match Span_rec.counted r name with Some k -> float_of_int k | None -> nan

let fitters =
  [ "exponential"; "uniform"; "polynomial"; "geometric_increasing"; "weibull" ]

let rows =
  let ms name r = span_mean r name ~scale:1e3 and us name r = span_mean r name ~scale:1e6 in
  let noted name r = noted r name and counted name r = counted r name in
  [
    ("sched.bracket_us", us "sched.bracket", "us");
    ("sched.generate_us", us "sched.generate", "us");
    ("sched.expected_work_us", us "sched.expected_work", "us");
    ("sched.search_self_ms", noted "sched.search_self_ms", "ms");
    ("sched.periods", counted "sched.periods", "count");
    ("sched.period_cap_stops", counted "sched.period_cap_stops", "count");
    ("lifefn.eval_ns", noted "lifefn.eval_ns", "ns");
    ("lifefn.make_us", noted "lifefn.make_us", "us");
    ("numerics.ecdf_ms", ms "numerics.ecdf", "ms");
    ("numerics.prng_ns", noted "numerics.prng_ns", "ns");
    ("trace.survival_ms", ms "trace.survival", "ms");
    ("trace.fit_best_ms", ms "trace.fit_best", "ms");
  ]
  @ List.map
      (fun f -> (Printf.sprintf "trace.fit.%s_ms" f, ms ("trace.fit." ^ f), "ms"))
      fitters
  @ [
      ("trace.sse_ms", ms "trace.sse", "ms");
      ("sim.reclaim_draw_ns", noted "sim.reclaim_draw_ns", "ns");
      ("sim.episode_ns", noted "sim.episode_ns", "ns");
      ("sim.estimate_ms", ms "sim.estimate", "ms");
      ("sim.compare_ms", ms "sim.compare", "ms");
      ("sim.trials", counted "sim.trials", "count");
      ("parallel.speedup_x", noted "parallel.speedup_x", "x");
      ("parallel.busy_frac", noted "parallel.busy_frac", "1");
      ("parallel.idle_s", noted "parallel.idle_s", "s");
      ("parallel.queue_wait_s", noted "parallel.queue_wait_s", "s");
      ("parallel.merge_s", noted "parallel.merge_s", "s");
      ("obs.trace_ns_per_event", noted "obs.trace_ns_per_event", "ns");
      ("obs.trace_events", counted "obs.trace_events", "count");
      ("obs.trace_bytes_per_event", noted "obs.trace_bytes_per_event", "B");
      ("obs.load_ns_per_event", noted "obs.load_ns_per_event", "ns");
      ("obs.diff_ms", ms "obs.diff", "ms");
      ("obs.report_ms", ms "obs.report", "ms");
      ("obs.metrics_overhead_x", noted "obs.metrics_overhead_x", "x");
      ("jsonx.to_string_ns", noted "jsonx.to_string_ns", "ns");
      ("jsonx.of_string_ns", noted "jsonx.of_string_ns", "ns");
    ]

(* [metrics sources] is every row as (name, value, unit, source), the
   value taken from the first of the named recorders that has it. *)
let metrics sources =
  List.map
    (fun (name, f, unit) ->
      let rec first = function
        | [] -> (nan, "none")
        | (src, r) :: rest ->
            let v = f r in
            if Float.is_nan v then first rest else (v, src)
      in
      let v, src = first sources in
      (name, v, unit, src))
    rows
