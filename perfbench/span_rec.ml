(* The benchmark's own span recorder. It lives here rather than in
   lib/obs so that optimizing the observability layer never changes the
   instrument that measures it. Spans nest strictly on the calling
   domain; each one names the layer it times as the prefix of its name
   ("sched.plan" belongs to layer "sched"), remembers its parent, and
   carries the id of the root span (the operation) that caused it. Spans
   stay in memory until [write]. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, or -1 for a root *)
  op : int;  (** index of the root span of the same operation *)
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int list;  (** stack of open span indices *)
  counts : (string, int) Hashtbl.t;  (** exact counts, summed *)
  notes : (string, float list) Hashtbl.t;  (** measured values, kept *)
}

let create () =
  {
    spans = [||];
    n = 0;
    open_ = [];
    counts = Hashtbl.create 16;
    notes = Hashtbl.create 16;
  }

let push r s =
  if r.n = Array.length r.spans then begin
    let bigger = Array.make (max 1024 (2 * r.n)) s in
    Array.blit r.spans 0 bigger 0 r.n;
    r.spans <- bigger
  end;
  r.spans.(r.n) <- s;
  r.n <- r.n + 1

(* [record r name f] times [f ()] as a span named [name]. *)
let record r name f =
  let id = r.n in
  let parent, op =
    match r.open_ with [] -> (-1, id) | p :: _ -> (p, r.spans.(p).op)
  in
  push r { name; start = Unix.gettimeofday (); stop = nan; parent; op };
  r.open_ <- id :: r.open_;
  let close () =
    r.spans.(id).stop <- Unix.gettimeofday ();
    r.open_ <- List.tl r.open_
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* [traced rec name f] is [record] when a recorder is given, else [f ()]. *)
let traced r name f = match r with None -> f () | Some r -> record r name f

let count r name k =
  Hashtbl.replace r.counts name
    (k + Option.value ~default:0 (Hashtbl.find_opt r.counts name))

let counted r name = Hashtbl.find_opt r.counts name

let note r name v =
  Hashtbl.replace r.notes name
    (v :: Option.value ~default:[] (Hashtbl.find_opt r.notes name))

let noted r name =
  Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt r.notes name)))

let duration s = s.stop -. s.start

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Durations of every span called [name], in recording order. *)
let durations r name =
  let out = ref [] in
  for i = r.n - 1 downto 0 do
    if String.equal r.spans.(i).name name then
      out := duration r.spans.(i) :: !out
  done;
  Array.of_list !out

(* Self time per layer: each span's duration minus the part of it its
   direct children cover (children never overlap on one domain). *)
let self_by_layer r =
  let child = Array.make r.n 0.0 in
  for i = 0 to r.n - 1 do
    let s = r.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to r.n - 1 do
    let s = r.spans.(i) in
    let l = layer s.name in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (prev +. duration s -. child.(i))
  done;
  List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [])

(* One JSON object per span, written once at the end of the run. *)
let write r path =
  let oc = open_out path in
  let t0 = if r.n = 0 then 0.0 else r.spans.(0).start in
  for i = 0 to r.n - 1 do
    let s = r.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"op\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.3f,\"dur_us\":%.3f}\n"
      i s.op s.parent s.name
      ((s.start -. t0) *. 1e6)
      (duration s *. 1e6)
  done;
  close_out oc
