type ws_summary = {
  ws : int;
  episodes : int;
  periods_completed : int;
  periods_killed : int;
  work_done : float;
  work_lost : float;
  overhead : float;
}

type t = {
  events : int;
  sources : string list;
  plans : (string * float * int * float) list;
  episodes_started : int;
  episodes_finished : int;
  episodes_interrupted : int;
  periods_dispatched : int;
  periods_completed : int;
  periods_killed : int;
  total_done : float;
  total_lost : float;
  total_overhead : float;
  pool_drained_at : float option;
  per_ws : ws_summary list;
  period_lengths : float array;
  episode_durations : float array;
}

(* Mutable per-workstation accumulator; sums are compensated so the
   round-trip against the simulator's Kahan totals is tight. *)
type ws_acc = {
  mutable a_episodes : int;
  mutable a_completed : int;
  mutable a_killed : int;
  a_done : Kahan.t;
  a_lost : Kahan.t;
  a_overhead : Kahan.t;
}

let of_events events =
  let ws_tbl : (int, ws_acc) Hashtbl.t = Hashtbl.create 8 in
  let acc ws =
    match Hashtbl.find_opt ws_tbl ws with
    | Some a -> a
    | None ->
        let a =
          {
            a_episodes = 0;
            a_completed = 0;
            a_killed = 0;
            a_done = Kahan.create ();
            a_lost = Kahan.create ();
            a_overhead = Kahan.create ();
          }
        in
        Hashtbl.replace ws_tbl ws a;
        a
  in
  let starts : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let sources = ref [] in
  let plans = ref [] in
  let n = ref 0 in
  let started = ref 0 and finished = ref 0 and interrupted = ref 0 in
  let dispatched = ref 0 in
  let drained = ref None in
  let period_lengths = ref [] in
  let durations = ref [] in
  List.iter
    (fun ev ->
      Stdlib.incr n;
      match (ev : Obs_event.t) with
      | Run_started { source; _ } ->
          if not (List.mem source !sources) then sources := source :: !sources
      | Run_finished _ -> ()
      | Plan_computed { source; t0; periods; expected_work; _ } ->
          plans := (source, t0, periods, expected_work) :: !plans
      | Episode_started { time; ws; ep } ->
          Stdlib.incr started;
          (acc ws).a_episodes <- (acc ws).a_episodes + 1;
          Hashtbl.replace starts (ws, ep) time
      | Episode_finished { time; ws; ep; interrupted = i; _ } ->
          Stdlib.incr finished;
          if i then Stdlib.incr interrupted;
          (match Hashtbl.find_opt starts (ws, ep) with
          | Some t0 -> durations := (time -. t0) :: !durations
          | None -> ())
      | Period_dispatched { period; _ } ->
          Stdlib.incr dispatched;
          period_lengths := period :: !period_lengths
      | Period_completed { ws; banked; overhead; _ } ->
          let a = acc ws in
          a.a_completed <- a.a_completed + 1;
          Kahan.add a.a_done banked;
          Kahan.add a.a_overhead overhead
      | Period_killed { ws; lost; overhead; _ } ->
          let a = acc ws in
          a.a_killed <- a.a_killed + 1;
          Kahan.add a.a_lost lost;
          Kahan.add a.a_overhead overhead
      | Owner_returned _ -> ()
      | Pool_drained { time; _ } ->
          if !drained = None then drained := Some time)
    events;
  let per_ws : ws_summary list =
    List.sort
      (fun (a : ws_summary) (b : ws_summary) -> Int.compare a.ws b.ws)
      (Hashtbl.fold
         (fun ws a rows ->
           ({
             ws;
             episodes = a.a_episodes;
             periods_completed = a.a_completed;
             periods_killed = a.a_killed;
             work_done = Kahan.total a.a_done;
             work_lost = Kahan.total a.a_lost;
             overhead = Kahan.total a.a_overhead;
           }
             : ws_summary)
           :: rows)
         ws_tbl [])
  in
  {
    events = !n;
    sources = List.rev !sources;
    plans = List.rev !plans;
    episodes_started = !started;
    episodes_finished = !finished;
    episodes_interrupted = !interrupted;
    periods_dispatched = !dispatched;
    periods_completed =
      List.fold_left (fun a (w : ws_summary) -> a + w.periods_completed) 0 per_ws;
    periods_killed =
      List.fold_left (fun a (w : ws_summary) -> a + w.periods_killed) 0 per_ws;
    total_done =
      Kahan.sum_by (fun (w : ws_summary) -> w.work_done) (Array.of_list per_ws);
    total_lost =
      Kahan.sum_by (fun (w : ws_summary) -> w.work_lost) (Array.of_list per_ws);
    total_overhead =
      Kahan.sum_by (fun (w : ws_summary) -> w.overhead) (Array.of_list per_ws);
    pool_drained_at = !drained;
    per_ws;
    period_lengths = Array.of_list (List.rev !period_lengths);
    episode_durations = Array.of_list (List.rev !durations);
  }

let load path =
  Result.map
    (fun (tr : Obs_query.trace) -> of_events tr.events)
    (Obs_query.load path)

let kill_rate t =
  let attempts = t.periods_completed + t.periods_killed in
  if attempts = 0 then 0.0
  else float_of_int t.periods_killed /. float_of_int attempts

let overhead_fraction t =
  let busy = t.total_done +. t.total_lost +. t.total_overhead in
  if busy <= 0.0 then 0.0 else t.total_overhead /. busy

let pp ppf t =
  let per_episode x =
    if t.episodes_started = 0 then ""
    else
      Printf.sprintf " (%.6f / episode)" (x /. float_of_int t.episodes_started)
  in
  Format.fprintf ppf "trace summary (schema v%d, %d events)@."
    Obs_event.schema_version t.events;
  if t.sources <> [] then
    Format.fprintf ppf "  source(s)     : %s@." (String.concat ", " t.sources);
  Format.fprintf ppf "  episodes      : %d started, %d finished, %d interrupted@."
    t.episodes_started t.episodes_finished t.episodes_interrupted;
  Format.fprintf ppf
    "  periods       : %d dispatched, %d completed, %d killed (kill rate \
     %.2f%%)@."
    t.periods_dispatched t.periods_completed t.periods_killed
    (100.0 *. kill_rate t);
  Format.fprintf ppf "  work done     : %.6f%s@." t.total_done
    (per_episode t.total_done);
  Format.fprintf ppf "  work lost     : %.6f%s@." t.total_lost
    (per_episode t.total_lost);
  Format.fprintf ppf "  overhead      : %.6f%s@." t.total_overhead
    (per_episode t.total_overhead);
  Format.fprintf ppf "  overhead frac : %.2f%% of busy time@."
    (100.0 *. overhead_fraction t);
  (match t.pool_drained_at with
  | Some at -> Format.fprintf ppf "  pool drained  : at t = %.6f@." at
  | None -> ());
  let quartet label xs =
    if Array.length xs > 0 then
      Format.fprintf ppf
        "  %s: min %.4f / p50 %.4f / p90 %.4f / p95 %.4f / p99 %.4f / max \
         %.4f@."
        label
        (Stats.quantile xs ~q:0.0)
        (Stats.quantile xs ~q:0.5)
        (Stats.quantile xs ~q:0.9)
        (Stats.quantile xs ~q:0.95)
        (Stats.quantile xs ~q:0.99)
        (Stats.quantile xs ~q:1.0)
  in
  quartet "period length" t.period_lengths;
  quartet "episode time " t.episode_durations;
  List.iter
    (fun (source, t0, periods, ew) ->
      Format.fprintf ppf "  plan          : %s t0=%.4f periods=%d E=%.6f@."
        source t0 periods ew)
    t.plans;
  if List.length t.per_ws > 1 then begin
    Format.fprintf ppf "  per workstation:@.";
    Format.fprintf ppf "    %-4s %9s %10s %7s %14s %14s %14s@." "ws" "episodes"
      "completed" "killed" "done" "lost" "overhead";
    List.iter
      (fun w ->
        Format.fprintf ppf "    %-4d %9d %10d %7d %14.6f %14.6f %14.6f@." w.ws
          w.episodes w.periods_completed w.periods_killed w.work_done
          w.work_lost w.overhead)
      t.per_ws
  end

(* ------------------------------------------------------------------ *)
(* Span trees                                                         *)

type span_node = {
  sn_name : string;
  sn_count : int;
  sn_total_us : float;
  sn_self_us : float;
  sn_children : span_node list;
}

let span_tree spans =
  (* Children of each span id, in creation order. *)
  let children = Hashtbl.create 64 in
  List.iter
    (fun (sp : Obs_span.span) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt children sp.Obs_span.parent)
      in
      Hashtbl.replace children sp.Obs_span.parent (sp :: prev))
    (List.rev spans);
  (* Aggregate a sibling list: group by name (first-seen order), pool the
     groups' children, recurse. Self time is what the group's own
     durations don't pass down to children. *)
  let rec aggregate siblings =
    let order = ref [] in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (sp : Obs_span.span) ->
        if not (Hashtbl.mem groups sp.Obs_span.name) then
          order := sp.Obs_span.name :: !order;
        let total, count, kids =
          Option.value ~default:(0.0, 0, [])
            (Hashtbl.find_opt groups sp.Obs_span.name)
        in
        let own =
          Option.value ~default:[] (Hashtbl.find_opt children sp.Obs_span.id)
        in
        Hashtbl.replace groups sp.Obs_span.name
          (total +. sp.Obs_span.dur_us, count + 1, List.rev_append own kids))
      siblings;
    List.rev_map
      (fun name ->
        let total, count, kids = Hashtbl.find groups name in
        let sn_children =
          aggregate (List.sort (fun (a : Obs_span.span) b ->
               Int.compare a.Obs_span.id b.Obs_span.id) kids)
        in
        let child_total =
          Kahan.sum_list (List.map (fun c -> c.sn_total_us) sn_children)
        in
        {
          sn_name = name;
          sn_count = count;
          sn_total_us = total;
          sn_self_us = Float.max 0.0 (total -. child_total);
          sn_children;
        })
      !order
  in
  aggregate (List.filter (fun (sp : Obs_span.span) -> sp.Obs_span.parent < 0) spans)

let pp_span_tree ppf nodes =
  let us v =
    if v < 1e3 then Printf.sprintf "%.1fus" v
    else if v < 1e6 then Printf.sprintf "%.2fms" (v /. 1e3)
    else Printf.sprintf "%.3fs" (v /. 1e6)
  in
  Format.fprintf ppf "  %-42s %10s %10s %8s@." "span" "total" "self" "calls";
  let rec go indent n =
    Format.fprintf ppf "  %-42s %10s %10s %8d@."
      (String.make indent ' ' ^ n.sn_name)
      (us n.sn_total_us) (us n.sn_self_us) n.sn_count;
    List.iter (go (indent + 2)) n.sn_children
  in
  List.iter (go 0) nodes
