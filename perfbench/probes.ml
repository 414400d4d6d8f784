(* Layer probes of a traced run: the per-call costs that are too small to
   span one by one (an eval, a draw, an episode, one JSON line), each timed
   in batches with the median batch reported per call. Inputs come from
   the seed: one plan-sweep scenario per family. *)

let per_call ?(reps = 5) ~calls f =
  let t =
    Array.init reps (fun _ ->
        let t0 = Harness.now () in
        for _ = 1 to calls do
          f ()
        done;
        Harness.now () -. t0)
  in
  Harness.median t /. float_of_int calls

let one_per_family ~seed =
  let all = Plan_sweep.scenarios ~seed in
  Array.map
    (fun f ->
      match Array.find_opt (fun (s : Plan_sweep.scenario) -> String.equal s.family f) all with
      | Some s -> s
      | None -> assert false)
    Plan_sweep.families

let run r ~seed =
  let g = Prng.create ~seed:(Int64.of_int seed) in
  let sink = ref 0.0 in
  let scen = one_per_family ~seed in
  Array.iter
    (fun (s : Plan_sweep.scenario) ->
      let lf = s.Plan_sweep.lf and c = s.Plan_sweep.c in
      let h = Life_function.horizon lf in
      let xs = Array.init 4096 (fun k -> h *. float_of_int k /. 4096.0) in
      Span_rec.note r "lifefn.eval_ns"
        (1e9 /. 4096.0
        *. per_call ~calls:20 (fun () ->
               Array.iter (fun x -> sink := !sink +. Life_function.eval lf x) xs));
      Span_rec.note r "lifefn.make_us"
        (1e6
        *. per_call ~calls:20 (fun () ->
               ignore
                 (Plan_sweep.life_function s.Plan_sweep.family ~c ~rho:20.0
                    ~shape:1.5)));
      let sampler = Reclaim.create lf in
      Span_rec.note r "sim.reclaim_draw_ns"
        (1e9 *. per_call ~calls:20_000 (fun () -> sink := !sink +. Reclaim.draw sampler g));
      let plan = Guideline.plan lf ~c in
      let reclaims = Array.init 4096 (fun _ -> Reclaim.draw sampler g) in
      let k = ref 0 in
      Span_rec.note r "sim.episode_ns"
        (1e9
        *. per_call ~calls:20_000 (fun () ->
               k := (!k + 1) land 4095;
               let o =
                 Episode.run plan.Guideline.schedule ~c ~reclaim_at:reclaims.(!k)
               in
               sink := !sink +. o.Episode.work_done)))
    scen;
  Span_rec.note r "numerics.prng_ns"
    (1e9 *. per_call ~reps:7 ~calls:200_000 (fun () -> sink := !sink +. Prng.float g));
  (* Representative trace lines: the events of a small traced estimate. *)
  let s = scen.(0) in
  let plan = Guideline.plan s.Plan_sweep.lf ~c:s.Plan_sweep.c in
  let events = ref [] in
  let obs = Obs.create ~sink:(Obs.Sink.Custom (fun e -> events := e :: !events)) () in
  ignore
    (Monte_carlo.estimate ~obs ~trials:200 s.Plan_sweep.lf ~c:s.Plan_sweep.c
       ~schedule:plan.Guideline.schedule ~seed:(Int64.of_int seed));
  let values = Array.of_list (List.rev_map Obs_event.to_json !events) in
  let lines = Array.map Jsonx.to_string values in
  let n = float_of_int (Array.length values) in
  Span_rec.note r "jsonx.to_string_ns"
    (1e9 /. n
    *. per_call ~calls:5 (fun () -> Array.iter (fun v -> ignore (Jsonx.to_string v)) values));
  Span_rec.note r "jsonx.of_string_ns"
    (1e9 /. n
    *. per_call ~calls:5 (fun () -> Array.iter (fun l -> ignore (Jsonx.of_string l)) lines));
  ignore (Sys.opaque_identity !sink)

(* The pool at full width against the same estimate inline: the
   speed-up and the pool's own accounting for that one estimate, median
   of three. *)
let parallel r ~seed ~domains =
  let s = (one_per_family ~seed).(0) in
  let lf = s.Plan_sweep.lf and c = s.Plan_sweep.c in
  let schedule = (Guideline.plan lf ~c).Guideline.schedule in
  let estimate ?pool () =
    let t0 = Harness.now () in
    ignore
      (Monte_carlo.estimate ?pool ~trials:Mc_validate.trials lf ~c ~schedule
         ~seed:(Int64.of_int seed));
    Harness.now () -. t0
  in
  let inline = Harness.median (Array.init 3 (fun _ -> estimate ())) in
  let runs =
    Array.init 3 (fun _ ->
        Domain_pool.with_pool ~domains (fun pool ->
            let t = estimate ~pool () in
            let u = Domain_pool.utilization pool in
            let sum f = Array.fold_left (fun acc d -> acc +. f d) 0.0 u in
            ( t,
              sum (fun d -> d.Domain_pool.d_busy_s),
              sum (fun d -> d.Domain_pool.d_idle_s),
              sum (fun d -> d.Domain_pool.d_queue_wait_s),
              Domain_pool.merge_seconds pool )))
  in
  let med f = Harness.median (Array.map f runs) in
  let wide = med (fun (t, _, _, _, _) -> t) in
  let busy = med (fun (_, b, _, _, _) -> b) and idle = med (fun (_, _, i, _, _) -> i) in
  Span_rec.note r "parallel.speedup_x" (inline /. wide);
  Span_rec.note r "parallel.busy_frac" (busy /. (busy +. idle));
  Span_rec.note r "parallel.idle_s" idle;
  Span_rec.note r "parallel.queue_wait_s" (med (fun (_, _, _, q, _) -> q));
  Span_rec.note r "parallel.merge_s" (med (fun (_, _, _, _, m) -> m))
