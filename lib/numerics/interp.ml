exception Bad_grid of string

(* [d.(i)] is the Hermite tangent at knot [i]. *)
type t = { xs : float array; ys : float array; d : float array }

let validate ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then
    raise (Bad_grid "Interp: xs and ys lengths differ");
  if n < 2 then raise (Bad_grid "Interp: need at least 2 points");
  for i = 0 to n - 2 do
    if not (xs.(i) < xs.(i + 1)) then
      raise
        (Bad_grid
           (Printf.sprintf "Interp: grid not strictly increasing at index %d"
              i))
  done

(* Fritsch–Carlson (1980) monotone cubic Hermite tangents. *)
let pchip_tangents xs ys =
  let n = Array.length xs in
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let delta = Array.init (n - 1) (fun i -> (ys.(i + 1) -. ys.(i)) /. h.(i)) in
  let d = Array.make n 0.0 in
  if n = 2 then begin
    d.(0) <- delta.(0);
    d.(1) <- delta.(0)
  end
  else begin
    (* Interior tangents: weighted harmonic mean when slopes agree in sign. *)
    for i = 1 to n - 2 do
      if delta.(i - 1) *. delta.(i) <= 0.0 then d.(i) <- 0.0
      else begin
        let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
        let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
        d.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
      end
    done;
    (* One-sided endpoint tangents (shape-preserving form). *)
    let endpoint h0 h1 d0 d1 =
      let t = ((((2.0 *. h0) +. h1) *. d0) -. (h0 *. d1)) /. (h0 +. h1) in
      if t *. d0 <= 0.0 then 0.0
      else if d0 *. d1 <= 0.0 && Float.abs t > 3.0 *. Float.abs d0 then
        3.0 *. d0
      else t
    in
    d.(0) <- endpoint h.(0) h.(1) delta.(0) delta.(1);
    d.(n - 1) <- endpoint h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  d

let pchip ~xs ~ys =
  validate ~xs ~ys;
  let xs = Array.copy xs and ys = Array.copy ys in
  { xs; ys; d = pchip_tangents xs ys }

(* Index of the segment containing x: largest i with xs.(i) <= x, clamped to
   [0, n-2] so that boundary segments extrapolate. *)
let segment t x =
  let n = Array.length t.xs in
  if x <= t.xs.(0) then 0
  else if x >= t.xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let eval t x =
  let i = segment t x in
  let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
  let y0 = t.ys.(i) and y1 = t.ys.(i + 1) and d = t.d in
  let h = x1 -. x0 in
  let s = (x -. x0) /. h in
  let s2 = s *. s in
  let s3 = s2 *. s in
  let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
  let h10 = s3 -. (2.0 *. s2) +. s in
  let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
  let h11 = s3 -. s2 in
  (h00 *. y0) +. (h10 *. h *. d.(i)) +. (h01 *. y1) +. (h11 *. h *. d.(i + 1))

let derivative t x =
  let i = segment t x in
  let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
  let y0 = t.ys.(i) and y1 = t.ys.(i + 1) and d = t.d in
  let h = x1 -. x0 in
  let s = (x -. x0) /. h in
  let s2 = s *. s in
  let dh00 = ((6.0 *. s2) -. (6.0 *. s)) /. h in
  let dh10 = ((3.0 *. s2) -. (4.0 *. s) +. 1.0) /. h in
  let dh01 = ((-6.0 *. s2) +. (6.0 *. s)) /. h in
  let dh11 = ((3.0 *. s2) -. (2.0 *. s)) /. h in
  (dh00 *. y0) +. (dh10 *. h *. d.(i)) +. (dh01 *. y1)
  +. (dh11 *. h *. d.(i + 1))

let domain t = (t.xs.(0), t.xs.(Array.length t.xs - 1))

let knots t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ys.(i)))
