type kid = {
  k_obs : Obs.t;
  k_metrics : Obs_metrics.t option;
  k_spans : Obs_span.t option;
  k_events : Obs_event.t list ref option;  (** Buffered in reverse. *)
}

type children = kid array

let disabled_kid =
  { k_obs = Obs.disabled; k_metrics = None; k_spans = None; k_events = None }

let scatter obs ~n =
  if n < 0 then invalid_arg "Obs_fork.scatter: n must be >= 0";
  if not (Obs.instrumented obs) then Array.make n disabled_kid
  else
    Array.init n (fun _ ->
        let k_metrics =
          match Obs.metrics obs with
          | None -> None
          | Some m -> Some (Obs_metrics.create ~accuracy:(Obs_metrics.accuracy m) ())
        in
        let k_spans =
          match Obs.span_recorder obs with
          | None -> None
          | Some _ -> Some (Obs_span.create ())
        in
        let k_events = if Obs.tracing obs then Some (ref []) else None in
        let sink =
          match k_events with
          | None -> Obs_sink.Null
          | Some buf -> Obs_sink.Custom (fun ev -> buf := ev :: !buf)
        in
        let k_obs =
          Obs.create ~sink ?metrics:k_metrics ?spans:k_spans ()
        in
        { k_obs; k_metrics; k_spans; k_events })

let child kids i = kids.(i).k_obs

let gather obs kids =
  Array.iter
    (fun kid ->
      (match kid.k_events with
      | None -> ()
      | Some buf -> List.iter (Obs.emit obs) (List.rev !buf));
      (match (kid.k_metrics, Obs.metrics obs) with
      | Some src, Some into -> Obs_metrics.merge ~into src
      | _ -> ());
      match (kid.k_spans, Obs.span_recorder obs) with
      | Some src, Some into -> Obs_span.absorb into src
      | _ -> ())
    kids
