type observation = { duration : float; observed : bool }

type model =
  | Exponential_absence of { mean : float }
  | Uniform_absence of { max : float }
  | Weibull_absence of { shape : float; scale : float }
  | Coffee_break of { typical : float; spread : float }
  | Day_night of {
      short_mean : float;
      long_mean : float;
      long_fraction : float;
    }

let rec sample model g =
  match model with
  | Exponential_absence { mean } ->
      if not (Float.is_finite mean && mean > 0.0) then
        invalid_arg "Owner_model: mean must be finite and > 0";
      Prng.exponential g ~rate:(1.0 /. mean)
  | Uniform_absence { max } ->
      if max <= 0.0 then invalid_arg "Owner_model: max must be > 0";
      (* Strictly positive: a zero-length absence is not an episode. *)
      let rec draw () =
        let x = Prng.float g *. max in
        if x > 0.0 then x else draw ()
      in
      draw ()
  | Weibull_absence { shape; scale } -> Prng.weibull g ~shape ~scale
  | Coffee_break { typical; spread } ->
      if typical <= 0.0 || spread <= 0.0 then
        invalid_arg "Owner_model: typical and spread must be > 0";
      (* Truncated normal: resample until positive. *)
      let rec draw () =
        let x = Prng.normal g ~mu:typical ~sigma:spread in
        if x > 0.0 then x else draw ()
      in
      draw ()
  | Day_night { short_mean; long_mean; long_fraction } ->
      if long_fraction < 0.0 || long_fraction > 1.0 then
        invalid_arg "Owner_model: long_fraction must lie in [0, 1]";
      let mean =
        if Prng.float g < long_fraction then long_mean else short_mean
      in
      sample (Exponential_absence { mean }) g

let collect ?censor_at model g ~n =
  if n <= 0 then invalid_arg "Owner_model.collect: n must be > 0";
  Array.init n (fun _ ->
      let d = sample model g in
      match censor_at with
      | Some limit when d > limit -> { duration = limit; observed = false }
      | Some _ | None -> { duration = d; observed = true })

let true_life_function = function
  | Exponential_absence { mean } -> Some (Families.exponential ~rate:(1.0 /. mean))
  | Uniform_absence { max } -> Some (Families.uniform ~lifespan:max)
  | Weibull_absence { shape; scale } -> Some (Families.weibull ~shape ~scale)
  | Coffee_break _ | Day_night _ -> None
