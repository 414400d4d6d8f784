type fitted = {
  family : string;
  life : Life_function.t;
  sse : float;
  params : (string * float) list;
}

let check_durations name ds =
  if Array.length ds = 0 then invalid_arg (name ^ ": empty input");
  Array.iter
    (fun d ->
      if not (Float.is_finite d) || d <= 0.0 then
        invalid_arg (name ^ ": durations must be positive and finite"))
    ds

(* The empirical survival curve, sorted once per call and kept as two
   unboxed float arrays: abscissae and [Pr(X > x)]. Every candidate and
   every golden-section probe is scored against the same one. *)
type ecdf = { xs : float array; ss : float array }

let ecdf_of ds =
  let steps = Stats.ecdf_survival ds in
  { xs = Array.map fst steps; ss = Array.map snd steps }

let sse_steps lf ecdf =
  let acc = Kahan.create () in
  for i = 0 to Array.length ecdf.xs - 1 do
    let d = Life_function.eval lf ecdf.xs.(i) -. ecdf.ss.(i) in
    Kahan.add acc (d *. d)
  done;
  Kahan.total acc

let sse_against_ecdf lf ds = sse_steps lf (ecdf_of ds)

let finish family life params ecdf =
  { family; life; sse = sse_steps life ecdf; params }

(* The fitters below take the checked sample and its ECDF; the public
   entry points check and sort, [best_fit] does both once for all. *)
let exponential ds ecdf =
  let rate = 1.0 /. Stats.mean ds in
  finish "exponential"
    (Families.exponential ~rate)
    [ ("rate", rate) ]
    ecdf

let uniform ds ecdf =
  let n = float_of_int (Array.length ds) in
  let mx = Array.fold_left Float.max ds.(0) ds in
  let l = mx *. (n +. 1.0) /. n in
  finish "uniform" (Families.uniform ~lifespan:l) [ ("lifespan", l) ] ecdf

let weibull ?(tol = 1e-10) ?(max_iter = 200) ds ecdf =
  let n = Array.length ds in
  let distinct = Array.exists (fun d -> d <> ds.(0)) ds in
  if n < 2 || not distinct then
    invalid_arg "Fit.weibull_mle: need >= 2 distinct durations";
  let logs = Array.map log ds in
  let mean_log = Stats.mean logs in
  (* Profile-likelihood equation for the shape k:
     g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0, increasing in k. *)
  let g k =
    let num = Kahan.create () and den = Kahan.create () in
    Array.iteri
      (fun i d ->
        let xk = Float.pow d k in
        Kahan.add num (xk *. logs.(i));
        Kahan.add den xk)
      ds;
    (Kahan.total num /. Kahan.total den) -. (1.0 /. k) -. mean_log
  in
  let lo, hi = Rootfind.expand_bracket g ~lo:0.05 ~hi:5.0 in
  let r = Rootfind.brent ~tol ~max_iter g ~lo ~hi in
  let shape = r.Rootfind.root in
  let scale =
    let acc = Kahan.create () in
    Array.iter (fun d -> Kahan.add acc (Float.pow d shape)) ds;
    Float.pow (Kahan.total acc /. float_of_int n) (1.0 /. shape)
  in
  finish "weibull"
    (Families.weibull ~shape ~scale)
    [ ("shape", shape); ("scale", scale) ]
    ecdf

let geometric_increasing ds ecdf =
  let mx = Array.fold_left Float.max ds.(0) ds in
  let objective l =
    if l <= mx then infinity
    else sse_steps (Families.geometric_increasing ~lifespan:l) ecdf
  in
  let best =
    Optimize.golden_section_min objective ~lo:(mx *. 1.0001) ~hi:(mx *. 4.0)
  in
  let l = best.Optimize.x in
  finish "geometric-increasing"
    (Families.geometric_increasing ~lifespan:l)
    [ ("lifespan", l) ]
    ecdf

let polynomial ?(d_max = 5) ds ecdf =
  if d_max < 1 then invalid_arg "Fit.polynomial_fit: d_max must be >= 1";
  let mx = Array.fold_left Float.max ds.(0) ds in
  let candidate d =
    let objective l =
      if l <= mx then infinity
      else sse_steps (Families.polynomial ~d ~lifespan:l) ecdf
    in
    let best =
      Optimize.golden_section_min objective ~lo:(mx *. 1.0001) ~hi:(mx *. 4.0)
    in
    (d, best.Optimize.x, best.Optimize.fx)
  in
  let d, l, _ =
    List.fold_left
      (fun (bd, bl, bs) dcand ->
        let d, l, s = candidate dcand in
        if s < bs then (d, l, s) else (bd, bl, bs))
      (candidate 1)
      (List.init (d_max - 1) (fun i -> i + 2))
  in
  finish
    (Printf.sprintf "polynomial(d=%d)" d)
    (Families.polynomial ~d ~lifespan:l)
    [ ("d", float_of_int d); ("lifespan", l) ]
    ecdf

let checked name fitter ds =
  check_durations name ds;
  fitter ds (ecdf_of ds)

let exponential_mle ds = checked "Fit.exponential_mle" exponential ds
let uniform_fit ds = checked "Fit.uniform_fit" uniform ds

let weibull_mle ?tol ?max_iter ds =
  checked "Fit.weibull_mle" (weibull ?tol ?max_iter) ds

let geometric_increasing_fit ds =
  checked "Fit.geometric_increasing_fit" geometric_increasing ds

let polynomial_fit ?d_max ds = checked "Fit.polynomial_fit" (polynomial ?d_max) ds

let best_fit ?d_max ds =
  check_durations "Fit.best_fit" ds;
  if Array.length ds < 2 then
    invalid_arg "Fit.best_fit: need at least 2 observations";
  let ecdf = ecdf_of ds in
  let candidates =
    [
      exponential ds ecdf;
      uniform ds ecdf;
      polynomial ?d_max ds ecdf;
      geometric_increasing ds ecdf;
    ]
    @ (try [ weibull ds ecdf ] with Invalid_argument _ -> [])
  in
  List.fold_left
    (fun best c -> if c.sse < best.sse then c else best)
    (List.hd candidates) (List.tl candidates)
