(* The workload-independent half of the benchmark: the run's arguments,
   small statistics, the contract a workload fills in, the closed timed
   loop and the JSON line. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let now = Unix.gettimeofday

(* Where spans and temporary trace files go: inside the checkout. *)
let out_dir = ".perfbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* ------------------------------------------------------------------ *)
(* Small statistics (the benchmark's own, not lib/numerics).           *)

(* Type-7 quantile of an unsorted sample. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5
let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Log-uniform draw from stratum [j] of [n] over [lo, hi]. *)
let stratified g ~j ~n ~lo ~hi =
  let u = (float_of_int j +. Prng.float g) /. float_of_int n in
  exp (log lo +. (u *. (log hi -. log lo)))

(* A random permutation of [0 .. n-1]: pairs strata of different
   parameters without correlating them. *)
let permutation g n =
  let a = Array.init n Fun.id in
  Prng.shuffle g a;
  a

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* The contract between the harness and a workload.                    *)

type loop = {
  ops : int;  (** operations completed in the timed loop *)
  elapsed : float;  (** seconds the loop ran *)
  lat : float array;  (** per-operation wall seconds *)
  units : float array;  (** per-operation work units *)
}

type verdict = {
  bad : bool array;  (** per distinct input: did any output check fail *)
  notes : string list;  (** one line per failed check *)
  digest : string list;  (** the answers, one line per input, %.17g *)
}

type summary = {
  work_per_s : float;
  op_p50_ms : float;
  named : (string * float * string) list;
      (** the workload's own end-to-end figures, printed by name *)
}

type instance = {
  inputs : int;  (** distinct inputs; operation [i] runs input [i mod inputs] *)
  warm : unit -> unit;
      (** the untimed warm-up at the end of set-up, on inputs whose cost
          does not depend on the seed *)
  op : Span_rec.t option -> int -> float;
      (** one operation; returns its work units and keeps its answer *)
  detail : Span_rec.t -> int -> unit;
      (** traced runs only: time the layer calls inside input [i] one by
          one, outside any operation span *)
  check : unit -> verdict;  (** untimed: answer every input and check it *)
  summarize : loop -> summary;
}

type workload = {
  name : string;
  uses_pool : bool;
  tour : int;  (** operations a traced run of another workload borrows *)
  prepare : seed:int -> pool:Domain_pool.t option -> instance;
}

(* Closed loop: operation i+1 starts when operation i returns. Runs
   inputs 0, 1, 2, ... (cycling) until [seconds] have passed, or exactly
   [max_ops] operations when given. Exceptions count as failed
   operations and the loop goes on. Per-operation figures go into
   unboxed float arrays, so the loop's own bookkeeping adds little to the
   heap it measures. *)
let run_loop ?max_ops ?rec_ inst ~seconds =
  let lat = ref (Array.make 1024 0.0) and units = ref (Array.make 1024 0.0) in
  let push a i v =
    if i = Array.length !a then begin
      let b = Array.make (2 * i) 0.0 in
      Array.blit !a 0 b 0 i;
      a := b
    end;
    !a.(i) <- v
  in
  let failed = ref 0 in
  let t0 = now () in
  let rec go i =
    let more =
      match max_ops with Some m -> i < m | None -> now () -. t0 < seconds
    in
    if more then begin
      let s = now () in
      (match
         Span_rec.traced rec_ "op" (fun () -> inst.op rec_ (i mod inst.inputs))
       with
      | u -> push units i u
      | exception e ->
          incr failed;
          push units i 0.0;
          Printf.eprintf "operation %d raised %s\n%!" i (Printexc.to_string e));
      push lat i (now () -. s);
      go (i + 1)
    end
    else i
  in
  let ops = go 0 in
  let elapsed = now () -. t0 in
  ({ ops; elapsed; lat = Array.sub !lat 0 ops; units = Array.sub !units 0 ops }, !failed)

(* Work units per second over the complete passes of the loop (over the
   whole loop when no pass completed), so every input counts equally. A
   sum, not a median: on a shared host the same operation flips between
   a fast and a slow speed within a second, and a median picks one of
   the two while the sum averages them. *)
let pass_rate ?units ?secs (l : loop) ~inputs =
  let units = Option.value units ~default:(fun i -> l.units.(i))
  and secs = Option.value secs ~default:(fun i -> l.lat.(i)) in
  let k = if l.ops < inputs then l.ops else l.ops / inputs * inputs in
  let sum f = Array.fold_left ( +. ) 0.0 (Array.init k f) in
  sum units /. sum secs

(* Median over the inputs of each input's mean latency, in ms: the
   latency of the median input, averaged over its repeats for the same
   reason as [pass_rate]. *)
let input_p50_ms (l : loop) ~inputs =
  let n = min inputs l.ops in
  1e3
  *. median
       (Array.init n (fun i ->
            mean (Array.init (((l.ops - 1 - i) / inputs) + 1) (fun r -> l.lat.(i + (r * inputs))))))

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let print_metric (name, v, unit) = Printf.printf "metric %-28s %.6g %s\n" name v unit

let json_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name v unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed m

let finite_or_fail (name, v, _) =
  if not (Float.is_finite v) then
    failwith (Printf.sprintf "metric %s is not finite" name)
