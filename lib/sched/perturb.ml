let perturb s ~k ~delta =
  let ts = Schedule.periods s in
  if k < 0 || k + 1 >= Array.length ts then
    invalid_arg "Perturb.perturb: index out of range";
  let a = ts.(k) +. delta and b = ts.(k + 1) -. delta in
  if a <= 0.0 || b <= 0.0 then None
  else begin
    ts.(k) <- a;
    ts.(k + 1) <- b;
    Some (Schedule.of_periods ts)
  end

type margin = { worst_delta : float; worst_k : int; margin : float }

let default_deltas s =
  let ts = Schedule.periods s in
  let tmin = Array.fold_left Float.min ts.(0) ts in
  Array.map (fun f -> f *. tmin) [| 0.001; 0.01; 0.05; 0.25 |]

let perturbation_margin ?deltas ?(min_period = 0.0) lf ~c s =
  let n = Schedule.num_periods s in
  if n < 2 then
    invalid_arg "Perturb.perturbation_margin: need at least 2 periods";
  let deltas = match deltas with Some d -> d | None -> default_deltas s in
  let e0 = Schedule.expected_work ~c lf s in
  let worst = ref { worst_delta = 0.0; worst_k = -1; margin = infinity } in
  for k = 0 to n - 2 do
    Array.iter
      (fun d ->
        List.iter
          (fun delta ->
            match perturb s ~k ~delta with
            | None -> ()
            | Some s' ->
                let admissible =
                  Array.for_all (fun t -> t > min_period) (Schedule.periods s')
                in
                if admissible then begin
                  let m = e0 -. Schedule.expected_work ~c lf s' in
                  if m < !worst.margin then
                    worst := { worst_delta = delta; worst_k = k; margin = m }
                end)
          [ d; -.d ])
      deltas
  done;
  if !worst.worst_k < 0 then { worst_delta = 0.0; worst_k = 0; margin = 0.0 }
  else !worst
