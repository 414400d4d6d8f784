type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  log_gamma : float;  (** ln of the bucket growth factor. *)
  inv_log_gamma : float;  (** [1 / log_gamma], so bucketing multiplies. *)
  mutable base : int;  (** Bucket index of [counts.(0)]. *)
  mutable counts : int array;
      (** Dense per-bucket counts for indices [base .. base+len-1];
          [[||]] until the first positive observation. Preallocated and
          grown geometrically, so the observe hot path allocates
          nothing. *)
  mutable memo_v : float;  (** Last positive value bucketed … *)
  mutable memo_i : int;  (** … and its bucket index. *)
  mutable zeros : int;  (** Observations of exactly 0. *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  instruments : (string, instrument) Hashtbl.t;
  accuracy : float;
}

let create ?(accuracy = 0.01) () =
  if not (accuracy > 0.0 && accuracy < 1.0) then
    invalid_arg "Obs_metrics.create: accuracy must be in (0, 1)";
  { instruments = Hashtbl.create 16; accuracy }

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Obs_metrics: %S already registered as a non-%s" name want)

let counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name "counter"
  | None ->
      let c = { c_name = name; c_count = 0 } in
      Hashtbl.replace t.instruments name (Counter c);
      c

let incr c = c.c_count <- c.c_count + 1
let add c n = c.c_count <- c.c_count + n
let count c = c.c_count

let gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name "gauge"
  | None ->
      let g = { g_name = name; g_value = Float.nan } in
      Hashtbl.replace t.instruments name (Gauge g);
      g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Histogram h) -> h
  | Some _ -> kind_error name "histogram"
  | None ->
      let gamma = (1.0 +. t.accuracy) /. (1.0 -. t.accuracy) in
      let log_gamma = log gamma in
      let h =
        {
          h_name = name;
          log_gamma;
          inv_log_gamma = 1.0 /. log_gamma;
          base = 0;
          counts = [||];
          memo_v = Float.nan;
          memo_i = 0;
          zeros = 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
        }
      in
      Hashtbl.replace t.instruments name (Histogram h);
      h

let bucket_index h v = int_of_float (Float.floor (log v *. h.inv_log_gamma))

(* Regrow [h.counts] to cover bucket index [i]. Rare: the span of live
   indices is the log of the value range (~700 buckets for six decades at
   1% accuracy), and each growth at least doubles coverage. *)
let grow h i =
  let pad = 16 in
  let len = Array.length h.counts in
  if len = 0 then begin
    h.base <- i - pad;
    h.counts <- Array.make ((2 * pad) + 1) 0
  end
  else begin
    let lo = Stdlib.min h.base (i - len - pad) in
    let hi = Stdlib.max (h.base + len) (i + len + pad + 1) in
    let counts = Array.make (hi - lo) 0 in
    Array.blit h.counts 0 counts (h.base - lo) len;
    h.counts <- counts;
    h.base <- lo
  end

let observe h v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg "Obs_metrics.observe: value must be finite and >= 0";
  if Tol.exactly v 0.0 then h.zeros <- h.zeros + 1
  else begin
    (* Episodes replay the same schedule, so consecutive observations
       repeat a handful of values; one memo slot skips the [log] for
       them. [v] is finite here, so a NaN memo (the initial state) never
       matches. *)
    let i =
      if Tol.exactly v h.memo_v then h.memo_i
      else begin
        let i = bucket_index h v in
        h.memo_v <- v;
        h.memo_i <- i;
        i
      end
    in
    if i < h.base || i - h.base >= Array.length h.counts then grow h i;
    let off = i - h.base in
    h.counts.(off) <- h.counts.(off) + 1
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let n_observations h = h.h_count
let sum h = h.h_sum
let mean h = if h.h_count = 0 then Float.nan else h.h_sum /. float_of_int h.h_count
let hist_min h = if h.h_count = 0 then Float.nan else h.h_min
let hist_max h = if h.h_count = 0 then Float.nan else h.h_max

let quantile h ~q =
  if h.h_count = 0 then invalid_arg "Obs_metrics.quantile: empty histogram";
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Obs_metrics.quantile: q must be in [0, 1]";
  (* The rank the q-quantile occupies among the sorted observations; the
     answer is the representative of the bucket holding that rank. The
     extreme ranks are tracked exactly, so answer them exactly. *)
  let rank = q *. float_of_int (h.h_count - 1) in
  let clamp v = Float.min h.h_max (Float.max h.h_min v) in
  if Tol.exactly q 0.0 then h.h_min
  else if Tol.exactly q 1.0 then h.h_max
  else if rank < float_of_int h.zeros then clamp 0.0
  else begin
    (* The dense array is already in bucket-index order. *)
    let cum = ref h.zeros in
    let result = ref h.h_max in
    (try
       Array.iteri
         (fun off n ->
           if n > 0 then begin
             cum := !cum + n;
             if float_of_int !cum > rank then begin
               (* Geometric midpoint of [γ^k, γ^{k+1}). *)
               let k = h.base + off in
               result := exp (h.log_gamma *. (float_of_int k +. 0.5));
               raise Exit
             end
           end)
         h.counts
     with Exit -> ());
    clamp !result
  end

let accuracy t = t.accuracy

let time t name f =
  let h = histogram t name in
  let t0 = Obs_clock.now () in
  Fun.protect
    ~finally:(fun () -> observe h (Obs_clock.elapsed_since t0))
    f

(* ------------------------------------------------------------------ *)
(* Export                                                             *)

let sorted_instruments t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.instruments [])

(* Merging histograms bucket-by-bucket is exact in rank: both registries
   must use the same gamma (checked below), so bucket index k means the
   same value interval in both. *)
let merge_histogram ~into:hd h =
  if not (Tol.exactly hd.log_gamma h.log_gamma) then
    invalid_arg
      (Printf.sprintf "Obs_metrics.merge: histogram %S accuracy mismatch"
         h.h_name);
  let len = Array.length h.counts in
  if len > 0 then begin
    (* Ensure [hd.counts] covers the source index range, then add. *)
    if Array.length hd.counts = 0 then grow hd h.base;
    if h.base < hd.base then grow hd h.base;
    if h.base + len - 1 - hd.base >= Array.length hd.counts then
      grow hd (h.base + len - 1);
    for off = 0 to len - 1 do
      let n = h.counts.(off) in
      if n > 0 then begin
        let o = h.base + off - hd.base in
        hd.counts.(o) <- hd.counts.(o) + n
      end
    done
  end;
  hd.zeros <- hd.zeros + h.zeros;
  hd.h_count <- hd.h_count + h.h_count;
  hd.h_sum <- hd.h_sum +. h.h_sum;
  if h.h_min < hd.h_min then hd.h_min <- h.h_min;
  if h.h_max > hd.h_max then hd.h_max <- h.h_max

let merge ~into src =
  List.iter
    (fun (name, inst) ->
      match inst with
      | Counter c -> add (counter into name) c.c_count
      | Gauge g ->
          if not (Float.is_nan g.g_value) then set (gauge into name) g.g_value
      | Histogram h -> merge_histogram ~into:(histogram into name) h)
    (sorted_instruments src)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)

type hist_stats = {
  hs_count : int;
  hs_sum : float;
  hs_mean : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * hist_stats) list;
}

let hist_stats h =
  let q p = if h.h_count = 0 then Float.nan else quantile h ~q:p in
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_mean = mean h;
    hs_min = hist_min h;
    hs_max = hist_max h;
    hs_p50 = q 0.5;
    hs_p95 = q 0.95;
    hs_p99 = q 0.99;
  }

let snapshot t =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (name, inst) ->
      match inst with
      | Counter c -> counters := (name, c.c_count) :: !counters
      | Gauge g -> gauges := (name, g.g_value) :: !gauges
      | Histogram h -> hists := (name, hist_stats h) :: !hists)
    (List.rev (sorted_instruments t));
  {
    snap_counters = !counters;
    snap_gauges = !gauges;
    snap_histograms = !hists;
  }

let hist_summary_fields h =
  [
    ("n", Jsonx.Int h.h_count);
    ("sum", Jsonx.Float h.h_sum);
    ("mean", Jsonx.Float (mean h));
    ("min", Jsonx.Float (hist_min h));
    ("max", Jsonx.Float (hist_max h));
    ("p50", Jsonx.Float (if h.h_count = 0 then Float.nan else quantile h ~q:0.5));
    ("p90", Jsonx.Float (if h.h_count = 0 then Float.nan else quantile h ~q:0.9));
    ("p99", Jsonx.Float (if h.h_count = 0 then Float.nan else quantile h ~q:0.99));
  ]

let to_json t =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (name, inst) ->
      match inst with
      | Counter c -> counters := (name, Jsonx.Int c.c_count) :: !counters
      | Gauge g -> gauges := (name, Jsonx.Float g.g_value) :: !gauges
      | Histogram h ->
          hists := (name, Jsonx.Obj (hist_summary_fields h)) :: !hists)
    (List.rev (sorted_instruments t));
  Jsonx.Obj
    [
      ("counters", Jsonx.Obj !counters);
      ("gauges", Jsonx.Obj !gauges);
      ("histograms", Jsonx.Obj !hists);
    ]

let pp ppf t =
  List.iter
    (fun (name, inst) ->
      match inst with
      | Counter c -> Format.fprintf ppf "counter %s = %d@." name c.c_count
      | Gauge g -> Format.fprintf ppf "gauge   %s = %g@." name g.g_value
      | Histogram h ->
          if h.h_count = 0 then
            Format.fprintf ppf "hist    %s : empty@." name
          else
            Format.fprintf ppf
              "hist    %s : n=%d mean=%g p50=%g p90=%g p99=%g max=%g@." name
              h.h_count (mean h) (quantile h ~q:0.5) (quantile h ~q:0.9)
              (quantile h ~q:0.99) h.h_max)
    (sorted_instruments t)
