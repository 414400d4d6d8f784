(* observed-run: the write and read sides of a traced run, as `csctl
   simulate --trace`, `cstrace diff`, `cstrace report` and `csctl simulate
   --metrics` do them. One operation (a round) writes two same-seed traced
   estimates to JSONL files, loads both back, diffs them, aggregates one
   with Trace_report, and runs one estimate with a metrics registry. *)

let traced_trials = 500
let metered_trials = 25_000
let families = [| ("uniform", 60.0); ("geo-dec", 15.0); ("weibull", 15.0) |]

let scenarios ~seed =
  let g = Prng.create ~seed:(Int64.of_int (seed + 2_000_003)) in
  Array.map
    (fun (family, rho) ->
      let c = 0.8 +. (0.45 *. Prng.float g) in
      { Plan_sweep.family; c; lf = Plan_sweep.life_function family ~c ~rho ~shape:2.0 })
    families

type answer = {
  plan : Guideline.result;
  mean_a : float;
  mean_b : float;
  events : int;
  same : bool;  (** Obs_query.diff found no divergence *)
  report : Trace_report.t;
  metered : float;
}

type timing = { write_s : float; read_s : float; metered_s : float; written : int }

let prepare ~seed ~pool =
  let inputs = scenarios ~seed in
  let n = Array.length inputs in
  let plans =
    Array.map (fun (s : Plan_sweep.scenario) -> Guideline.plan s.Plan_sweep.lf ~c:s.Plan_sweep.c)
      inputs
  in
  Harness.ensure_out_dir ();
  let path side = Filename.concat Harness.out_dir (Printf.sprintf "observed-%d-%s.jsonl" seed side) in
  let meta i =
    Obs.Meta.make ~git_sha:"perfbench" ~seed:(Mc_validate.mc_seed ~seed i) ~jobs:1
      ~scenario:("observed-run " ^ inputs.(i).Plan_sweep.family) ()
  in
  let estimate ?(obs = Obs.disabled) i ~trials =
    let s = inputs.(i) in
    Monte_carlo.estimate ~obs ?pool ~trials s.Plan_sweep.lf ~c:s.Plan_sweep.c
      ~schedule:plans.(i).Guideline.schedule ~seed:(Mc_validate.mc_seed ~seed i)
  in
  let write i p =
    Obs.Sink.with_jsonl_file ~meta:(meta i) p (fun sink ->
        estimate ~obs:(Obs.create ~sink ()) i ~trials:traced_trials)
  in
  let answers = Array.make n None in
  let timings = ref [] in
  let round rec_ i =
    let pa = path "a" and pb = path "b" in
    let t0 = Harness.now () in
    let ea = Span_rec.traced rec_ "obs.write" (fun () -> write i pa) in
    let eb = Span_rec.traced rec_ "obs.write" (fun () -> write i pb) in
    let t1 = Harness.now () in
    let load p =
      match Span_rec.traced rec_ "obs.load" (fun () -> Obs_query.load p) with
      | Ok q -> q
      | Error e -> failwith e
    in
    let qa = load pa and qb = load pb in
    let d = Span_rec.traced rec_ "obs.diff" (fun () -> Obs_query.diff qa.Obs_query.events qb.Obs_query.events) in
    let report =
      match Span_rec.traced rec_ "obs.report" (fun () -> Trace_report.load pa) with
      | Ok r -> r
      | Error e -> failwith e
    in
    let t2 = Harness.now () in
    let registry = Obs.Metrics.create () in
    let em =
      Span_rec.traced rec_ "obs.metered_estimate" (fun () ->
          estimate ~obs:(Obs.create ~metrics:registry ()) i ~trials:metered_trials)
    in
    let t3 = Harness.now () in
    let events = List.length qa.Obs_query.events in
    let a =
      {
        plan = plans.(i);
        mean_a = ea.Monte_carlo.mean_work;
        mean_b = eb.Monte_carlo.mean_work;
        events;
        same = Option.is_none d;
        report;
        metered = em.Monte_carlo.mean_work;
      }
    in
    (a, { write_s = t1 -. t0; read_s = t2 -. t1; metered_s = t3 -. t2; written = 2 * events })
  in
  let answer i =
    match answers.(i) with
    | Some a -> a
    | None ->
        let a, _ = round None i in
        answers.(i) <- Some a;
        a
  in
  (* A round that raises still leaves a timing, an empty one, so the
     timings stay aligned with the loop's operations. *)
  let op rec_ i =
    match round rec_ i with
    | a, t ->
        if Option.is_none answers.(i) then answers.(i) <- Some a;
        timings := t :: !timings;
        float_of_int t.written
    | exception e ->
        timings := { write_s = 0.0; read_s = 0.0; metered_s = 0.0; written = 0 } :: !timings;
        raise e
  in
  (* The per-event costs of the program's own tracing and metering, each
     against a bare estimate of the same trials (medians of three). *)
  let detail r i =
    let a = answer i in
    let timed f =
      Harness.median
        (Array.init 3 (fun _ ->
             let t0 = Harness.now () in
             ignore (f ());
             Harness.now () -. t0))
    in
    let p = path "detail" in
    let traced_s = timed (fun () -> write i p) in
    let bare_s = timed (fun () -> estimate i ~trials:traced_trials) in
    let ev = float_of_int a.events in
    Span_rec.note r "obs.trace_ns_per_event" (1e9 *. (traced_s -. bare_s) /. ev);
    Span_rec.count r "obs.trace_events" a.events;
    Span_rec.note r "obs.trace_bytes_per_event" (float_of_int (Unix.stat p).Unix.st_size /. ev);
    Span_rec.note r "obs.load_ns_per_event" (1e9 *. timed (fun () -> Obs_query.load p) /. ev);
    let metered_s =
      timed (fun () ->
          estimate ~obs:(Obs.create ~metrics:(Obs.Metrics.create ()) ()) i
            ~trials:metered_trials)
    in
    Span_rec.note r "obs.metrics_overhead_x"
      (metered_s /. timed (fun () -> estimate i ~trials:metered_trials));
    Span_rec.count r "sim.trials" ((2 * traced_trials) + metered_trials);
    let s = inputs.(i) in
    Plan_sweep.plan_detail r s.Plan_sweep.lf ~c:s.Plan_sweep.c a.plan
  in
  (* Scenario 0 is always the uniform one. *)
  let warm () = ignore (round None 0) in
  let check () =
    let notes = ref [] in
    let bad =
      Array.init n (fun i ->
          let s = inputs.(i) and a = answer i in
          let rep = a.report in
          let faults =
            (if a.same then [] else [ "same-seed traces diverge" ])
            @ (if Tol.exactly a.mean_a a.mean_b then [] else [ "same-seed estimates differ" ])
            @ (if rep.Trace_report.episodes_started = traced_trials
                  && Tol.equal
                       (rep.Trace_report.total_done /. float_of_int traced_trials)
                       a.mean_a
               then []
               else [ "Trace_report does not round-trip the estimate" ])
            @ (let bare = (estimate i ~trials:metered_trials).Monte_carlo.mean_work in
               if Tol.exactly bare a.metered then []
               else [ "a metrics registry changed the estimate" ])
            @ Plan_sweep.plan_faults s.Plan_sweep.lf ~c:s.Plan_sweep.c a.plan
          in
          List.iter
            (fun f ->
              notes := Printf.sprintf "scenario %d (%s): %s" i s.Plan_sweep.family f :: !notes)
            faults;
          faults <> [])
    in
    let digest =
      Array.to_list
        (Array.mapi
           (fun i (s : Plan_sweep.scenario) ->
             let a = answer i in
             Printf.sprintf "%s %.17g %s traced=%.17g events=%d metered=%.17g"
               s.Plan_sweep.family s.Plan_sweep.c (Plan_sweep.plan_digest a.plan) a.mean_a
               a.events a.metered)
           inputs)
    in
    { Harness.bad; notes = List.rev !notes; digest }
  in
  let summarize (l : Harness.loop) =
    let t = Array.of_list (List.rev !timings) in
    let rate secs units =
      Harness.pass_rate l ~inputs:n ~secs:(fun i -> secs t.(i)) ~units:(fun i -> units t.(i))
    in
    let written x = float_of_int x.written in
    let write_rate = rate (fun x -> x.write_s) written in
    let read_rate = rate (fun x -> x.read_s) written in
    let metered_rate = rate (fun x -> x.metered_s) (fun _ -> float_of_int metered_trials) in
    let p50 = Harness.input_p50_ms l ~inputs:n in
    {
      Harness.work_per_s = write_rate;
      op_p50_ms = p50;
      named =
        [
          ("trace_write_events_per_s", write_rate, "1/s");
          ("trace_read_events_per_s", read_rate, "1/s");
          ("metered_trials_per_s", metered_rate, "1/s");
          ("round_p50_ms", p50, "ms");
          ("rounds", float_of_int l.Harness.ops, "count");
        ];
    }
  in
  { Harness.inputs = n; warm; op; detail; check; summarize }

let workload = { Harness.name = "observed-run"; uses_pool = true; tour = 1; prepare }
