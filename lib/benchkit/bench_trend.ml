type point = {
  seq : int;
  git_sha : string;
  unix_time : float;
  ns_per_call : float;
  r_square : float;
  advisory : bool;
}

type trajectory = {
  metric : string;
  points : point list;
  fit : Bench_fit.fit option;
}

type jump = { j_from : point; j_to : point; j_ratio : float }

(* A point the analytics may lean on: measured (not advisory) and
   finite. Advisory points still render in the table — they are data
   about the *measurement*, just not about the code. *)
let usable p = (not p.advisory) && Float.is_finite p.ns_per_call

let metrics_of records =
  List.sort_uniq String.compare
    (List.concat_map
       (fun r -> List.map fst r.Bench_record.results)
       records)

(* Compensated sums: trajectories are short but the ns values span
   nine orders of magnitude. *)
let ksum f xs = Kahan.sum_list (List.map f xs)

let slope_fit pairs =
  let n = List.length pairs in
  if n < 2 then None
  else
    let nf = float_of_int n in
    let mx = ksum fst pairs /. nf and my = ksum snd pairs /. nf in
    let sxx = ksum (fun (x, _) -> (x -. mx) *. (x -. mx)) pairs in
    let syy = ksum (fun (_, y) -> (y -. my) *. (y -. my)) pairs in
    let sxy = ksum (fun (x, y) -> (x -. mx) *. (y -. my)) pairs in
    let slope = if sxx > 0.0 then sxy /. sxx else Float.nan in
    let r_square =
      (* With-intercept r² = sxy²/(sxx·syy); nan below min_samples or
         when either variance is degenerate, per Bench_fit. *)
      if n >= Bench_fit.min_samples && sxx > 0.0 && syy > 0.0 then
        sxy *. sxy /. (sxx *. syy)
      else Float.nan
    in
    Some { Bench_fit.ns_per_run = slope; r_square; kept = n; total = n }

let trajectory ~metric records =
  let points =
    records
    |> List.mapi (fun seq (r : Bench_record.t) ->
           match List.assoc_opt metric r.results with
           | None -> None
           | Some (e : Bench_record.entry) ->
               Some
                 {
                   seq;
                   git_sha = r.git_sha;
                   unix_time = r.unix_time;
                   ns_per_call = e.ns_per_call;
                   r_square = e.r_square;
                   advisory = e.advisory;
                 })
    |> List.filter_map Fun.id
  in
  let pairs =
    List.filter_map
      (fun p ->
        if usable p then Some (float_of_int p.seq, p.ns_per_call)
        else None)
      points
  in
  let fit =
    Option.map
      (fun f -> { f with Bench_fit.total = List.length points })
      (slope_fit pairs)
  in
  { metric; points; fit }

let first_jump ?(threshold = 1.25) tr =
  if not (threshold > 1.0) then
    invalid_arg "Bench_trend.first_jump: threshold must be > 1";
  let rec go = function
    | a :: (b :: _ as rest) when a.ns_per_call > 0.0 ->
        let ratio = b.ns_per_call /. a.ns_per_call in
        if ratio > threshold || ratio < 1.0 /. threshold then
          Some { j_from = a; j_to = b; j_ratio = ratio }
        else go rest
    | _ :: rest -> go rest
    | [] -> None
  in
  go (List.filter usable tr.points)

let pp_trajectory ppf tr =
  Format.fprintf ppf "metric: %s@." tr.metric;
  if tr.points = [] then Format.fprintf ppf "  (no points)@."
  else begin
    Format.fprintf ppf "  %4s  %-10s  %14s  %8s@." "seq" "sha" "ns/call"
      "r^2";
    List.iter
      (fun p ->
        Format.fprintf ppf "  %4d  %-10s  %14.6g  %8.4g%s@." p.seq
          p.git_sha p.ns_per_call p.r_square
          (if p.advisory then "  advisory" else ""))
      tr.points
  end;
  match tr.fit with
  | None ->
      Format.fprintf ppf
        "slope: not fit (fewer than 2 usable points)@."
  | Some f ->
      Format.fprintf ppf
        "slope: %+.6g ns/call per run (%d/%d usable point(s), r^2 %.4g)@."
        f.Bench_fit.ns_per_run f.Bench_fit.kept f.Bench_fit.total
        f.Bench_fit.r_square

let pp_jump ~threshold ppf = function
  | None ->
      Format.fprintf ppf
        "no jump beyond %.2fx between adjacent usable points@." threshold
  | Some j ->
      Format.fprintf ppf
        "jump: %.2fx between %s (seq %d) and %s (seq %d): %.6g -> %.6g \
         ns/call@."
        j.j_ratio j.j_from.git_sha j.j_from.seq j.j_to.git_sha j.j_to.seq
        j.j_from.ns_per_call j.j_to.ns_per_call
