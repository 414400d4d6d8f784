(* The read side of the observability stack: meta headers, trace
   loading/filtering/diffing (Obs_query), folded-stack round-trips
   (Obs_export), and the Obs_fork gather edge cases. *)

let with_temp_file suffix k =
  let path = Filename.temp_file "cs_query" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let write_file path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Meta headers                                                       *)

let test_meta_roundtrip () =
  let m =
    Obs_meta.make ~git_sha:"abc123" ~seed:42L ~jobs:2
      ~scenario:"simulate family=uniform" ()
  in
  let m' = ok (Obs_meta.of_json (ok (Jsonx.of_string (Jsonx.to_string (Obs_meta.to_json m))))) in
  Alcotest.(check bool) "round-trips" true (m = m');
  (* Optional fields absent round-trip too. *)
  let bare = { m with Obs_meta.git_sha = None; seed = None; jobs = None; scenario = None } in
  let bare' = ok (Obs_meta.of_json (Obs_meta.to_json bare)) in
  Alcotest.(check bool) "bare round-trips" true (bare = bare')

let test_meta_rejects () =
  let m = Obs_meta.make ~git_sha:"abc" ~seed:1L () in
  let j = Obs_meta.to_json m in
  let mutate key v =
    match j with
    | Jsonx.Obj fields ->
        Jsonx.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> assert false
  in
  List.iter
    (fun (label, bad) ->
      match Obs_meta.of_json bad with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("wrong meta version", mutate "v" (Jsonx.Int 99));
      ("wrong event schema", mutate "schema" (Jsonx.Int 999));
      ("wrong type tag", mutate "type" (Jsonx.String "event"));
      ("missing schema", Jsonx.Obj [ ("v", Jsonx.Int 1); ("type", Jsonx.String "meta") ]);
    ]

(* ------------------------------------------------------------------ *)
(* Trace loading                                                      *)

let sample_events =
  Obs_event.
    [
      Run_started { time = 0.0; source = "test"; seed = Some 7L };
      Episode_started { time = 0.0; ws = 0; ep = 0 };
      Period_dispatched { time = 0.0; ws = 0; ep = 0; period = 4.0; assigned = 3.0 };
      Period_completed { time = 4.0; ws = 0; ep = 0; period = 4.0; banked = 3.0; overhead = 1.0 };
      Period_dispatched { time = 4.0; ws = 0; ep = 0; period = 6.0; assigned = 5.0 };
      Period_killed { time = 7.0; ws = 0; ep = 0; lost = 2.0; overhead = 1.0 };
      Owner_returned { time = 7.0; ws = 0; ep = 0 };
      Episode_finished { time = 7.0; ws = 0; ep = 0; work_done = 3.0; interrupted = true };
      Episode_started { time = 8.0; ws = 1; ep = 1 };
      Period_dispatched { time = 8.0; ws = 1; ep = 1; period = 5.0; assigned = 4.0 };
      Period_completed { time = 13.0; ws = 1; ep = 1; period = 5.0; banked = 4.0; overhead = 1.0 };
      Episode_finished { time = 13.0; ws = 1; ep = 1; work_done = 4.0; interrupted = false };
      Run_finished { time = 13.0 };
    ]

let event_lines events =
  List.map (fun ev -> Jsonx.to_string (Obs_event.to_json ev)) events

let test_load_with_header () =
  with_temp_file ".jsonl" (fun path ->
      let meta = Obs_meta.make ~git_sha:"deadbeef" ~seed:7L ~jobs:1 () in
      write_file path
        ((Jsonx.to_string (Obs_meta.to_json meta) :: event_lines sample_events));
      let t = ok (Obs_query.load path) in
      (match t.Obs_query.meta with
      | Some m ->
          Alcotest.(check bool) "seed surfaced" true (m.Obs_meta.seed = Some 7L)
      | None -> Alcotest.fail "meta not surfaced");
      Alcotest.(check int) "events loaded" (List.length sample_events)
        (List.length t.Obs_query.events);
      Alcotest.(check bool) "events equal" true
        (t.Obs_query.events = sample_events);
      (* Trace_report.load validates and skips the same header. *)
      let summary = ok (Trace_report.load path) in
      Alcotest.(check int) "summary events" (List.length sample_events)
        summary.Trace_report.events)

let test_load_headerless_and_bad_header () =
  with_temp_file ".jsonl" (fun path ->
      write_file path (event_lines sample_events);
      let t = ok (Obs_query.load path) in
      Alcotest.(check bool) "no meta" true (t.Obs_query.meta = None);
      (* A meta line with the wrong schema version is a load error. *)
      write_file path
        ({|{"v":1,"type":"meta","schema":999}|} :: event_lines sample_events);
      (match Obs_query.load path with
      | Ok _ -> Alcotest.fail "accepted wrong-schema header"
      | Error msg ->
          Alcotest.(check bool) "error names line 1" true
            (contains_sub msg ":1:"));
      (match Trace_report.load path with
      | Ok _ -> Alcotest.fail "Trace_report accepted wrong-schema header"
      | Error _ -> ());
      (* A second meta header is corruption (two runs concatenated):
         both loaders refuse it and name its line. *)
      let header =
        Jsonx.to_string (Obs_meta.to_json (Obs_meta.make ~git_sha:"x" ()))
      in
      write_file path ((header :: event_lines sample_events) @ [ header ]);
      let at_dup = Printf.sprintf ":%d:" (List.length sample_events + 2) in
      (match Obs_query.load path with
      | Ok _ -> Alcotest.fail "Obs_query accepted a duplicate header"
      | Error msg ->
          Alcotest.(check bool) "Obs_query names the duplicate line" true
            (contains_sub msg at_dup));
      (match Trace_report.load path with
      | Ok _ -> Alcotest.fail "Trace_report accepted a duplicate header"
      | Error msg ->
          Alcotest.(check bool) "Trace_report names the duplicate line" true
            (contains_sub msg at_dup));
      (* A trailing truncation marker is not an event: both loaders
         refuse it and name its line. *)
      let lines =
        event_lines sample_events
        @ [ {|{"v":1,"type":"truncated","events":3}|} ]
      in
      write_file path lines;
      let at_marker = Printf.sprintf ":%d:" (List.length lines) in
      (match Obs_query.load path with
      | Ok _ -> Alcotest.fail "Obs_query accepted a truncation marker"
      | Error msg ->
          Alcotest.(check bool) "Obs_query names the marker line" true
            (contains_sub msg at_marker));
      match Trace_report.load path with
      | Ok _ -> Alcotest.fail "Trace_report accepted a truncation marker"
      | Error msg ->
          Alcotest.(check bool) "Trace_report names the marker line" true
            (contains_sub msg at_marker))

let test_load_empty_refused () =
  (* A zero-byte or blank file is a truncated trace, not an empty run:
     loading it must fail and name the file, so two truncated traces
     cannot pass a determinism diff. A header with no events still
     loads. *)
  with_temp_file ".jsonl" (fun path ->
      List.iter
        (fun lines ->
          write_file path lines;
          (match Obs_query.load path with
          | Ok _ -> Alcotest.fail "Obs_query accepted an empty trace"
          | Error msg ->
              Alcotest.(check bool) "error names the file" true
                (contains_sub msg path));
          match Trace_report.load path with
          | Ok _ -> Alcotest.fail "Trace_report accepted an empty trace"
          | Error _ -> ())
        [ []; [ ""; "  " ] ];
      write_file path
        [ Jsonx.to_string (Obs_meta.to_json (Obs_meta.make ~git_sha:"x" ())) ];
      let t = ok (Obs_query.load path) in
      Alcotest.(check int) "header-only trace has no events" 0
        (List.length t.Obs_query.events))

(* ------------------------------------------------------------------ *)
(* Filtering and episode rows                                         *)

let test_filter () =
  let by_kind = Obs_query.filter ~kind:"period_completed" sample_events in
  Alcotest.(check int) "kind" 2 (List.length by_kind);
  let by_ws = Obs_query.filter ~ws:1 sample_events in
  Alcotest.(check int) "ws" 4 (List.length by_ws);
  let window = Obs_query.filter ~since:4.0 ~until:8.0 sample_events in
  (* t in [4,8]: completed@4, dispatched@4, killed@7, owner@7, finished@7,
     started@8, dispatched@8. *)
  Alcotest.(check int) "window" 7 (List.length window);
  let none = Obs_query.filter ~kind:"plan_computed" sample_events in
  Alcotest.(check int) "absent kind" 0 (List.length none);
  Alcotest.(check int) "no criteria = identity"
    (List.length sample_events)
    (List.length (Obs_query.filter sample_events))

let test_episodes () =
  match Obs_query.episodes sample_events with
  | [ a; b ] ->
      Alcotest.(check int) "ws of first" 0 a.Obs_query.e_ws;
      Alcotest.(check int) "dispatched" 2 a.Obs_query.e_dispatched;
      Alcotest.(check int) "completed" 1 a.Obs_query.e_completed;
      Alcotest.(check int) "killed" 1 a.Obs_query.e_killed;
      Alcotest.(check (float 1e-12)) "work" 3.0 a.Obs_query.e_work;
      Alcotest.(check (float 1e-12)) "lost" 2.0 a.Obs_query.e_lost;
      Alcotest.(check (float 1e-12)) "overhead" 2.0 a.Obs_query.e_overhead;
      Alcotest.(check bool) "interrupted" true a.Obs_query.e_interrupted;
      Alcotest.(check bool) "finish" true (a.Obs_query.e_finish = Some 7.0);
      Alcotest.(check bool) "second not interrupted" false
        b.Obs_query.e_interrupted
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Diffing                                                            *)

let test_diff_identical () =
  Alcotest.(check bool) "identical" true
    (Obs_query.diff sample_events sample_events = None)

let test_diff_ignores_wall_time () =
  (* Planning wall time differs between every pair of runs; only the
     simulated-time payload is under the determinism contract. *)
  let plan elapsed =
    Obs_event.Plan_computed
      { source = "guideline"; t0 = 13.6; periods = 13; expected_work = 41.0; elapsed }
  in
  Alcotest.(check bool) "elapsed masked" true
    (Obs_query.diff [ plan 0.0017 ] [ plan 0.0093 ] = None);
  let other =
    Obs_event.Plan_computed
      { source = "guideline"; t0 = 14.0; periods = 13; expected_work = 41.0; elapsed = 0.0017 }
  in
  Alcotest.(check bool) "sim payload still compared" true
    (Obs_query.diff [ plan 0.0017 ] [ other ] <> None)

let test_diff_mutation () =
  let mutated =
    List.mapi
      (fun i ev ->
        if i = 5 then
          Obs_event.Period_killed
            { time = 7.0; ws = 0; ep = 0; lost = 2.5; overhead = 1.0 }
        else ev)
      sample_events
  in
  match Obs_query.diff ~context:2 sample_events mutated with
  | None -> Alcotest.fail "missed the mutation"
  | Some d ->
      Alcotest.(check int) "index" 5 d.Obs_query.d_index;
      Alcotest.(check int) "context bounded" 2
        (List.length d.Obs_query.d_context);
      Alcotest.(check bool) "both sides present" true
        (d.Obs_query.d_left <> None && d.Obs_query.d_right <> None);
      Alcotest.(check bool) "context is the shared prefix tail" true
        (d.Obs_query.d_context
        = [ List.nth sample_events 3; List.nth sample_events 4 ])

let test_diff_truncation () =
  let short = List.filteri (fun i _ -> i < 4) sample_events in
  match Obs_query.diff sample_events short with
  | None -> Alcotest.fail "missed the truncation"
  | Some d ->
      Alcotest.(check int) "index" 4 d.Obs_query.d_index;
      Alcotest.(check bool) "right ended" true (d.Obs_query.d_right = None);
      Alcotest.(check bool) "left present" true (d.Obs_query.d_left <> None)

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                      *)

let recorded_spans () =
  let r = Obs_span.create () in
  Obs_span.record r "root" (fun () ->
      Obs_span.record r "plan" (fun () ->
          Obs_span.record r "solve; fast" (fun () -> ()));
      Obs_span.record r "mc" (fun () -> ());
      Obs_span.record r "mc" (fun () -> ()));
  r

let test_folded_roundtrip () =
  let r = recorded_spans () in
  let folded = Obs_export.folded_of_spans (Obs_span.spans r) in
  let n = ok (Obs_export.validate_folded folded) in
  Alcotest.(check int) "distinct paths" 4 n;
  let paths = List.map (fun l -> List.hd (String.split_on_char ' ' l)) folded in
  Alcotest.(check (list string)) "paths, sorted, sanitized"
    [ "root"; "root;mc"; "root;plan"; "root;plan;solve__fast" ]
    paths;
  (* Chrome JSON → spans → folded gives the same stack set. *)
  let chrome = Obs_span.to_chrome_json r in
  let spans' = ok (Obs_export.spans_of_chrome chrome) in
  let folded' = Obs_export.folded_of_spans spans' in
  Alcotest.(check (list string)) "chrome round-trip" folded folded'

let test_folded_rejects () =
  List.iter
    (fun (label, lines) ->
      match Obs_export.validate_folded lines with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("no weight", [ "a;b" ]);
      ("float weight", [ "a;b 1.5" ]);
      ("negative weight", [ "a;b -3" ]);
      ("empty frame", [ "a;;b 1" ]);
      ("space in stack", [ "a b;c 1" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Obs_fork gather edge cases                                         *)

let test_gather_zero_event_chunks () =
  let collected = ref [] in
  let obs =
    Obs.create ~sink:(Obs.Sink.Custom (fun ev -> collected := ev :: !collected)) ()
  in
  let kids = Obs_fork.scatter obs ~n:4 in
  (* Only chunks 1 and 3 emit anything. *)
  List.iter
    (fun k ->
      Obs.emit (Obs_fork.child kids k)
        (Obs.Event.Pool_drained { time = float_of_int k; remaining = 0.0 }))
    [ 1; 3 ];
  Obs_fork.gather obs kids;
  let times =
    List.rev_map
      (function
        | Obs.Event.Pool_drained { time; _ } -> time | _ -> Float.nan)
      !collected
  in
  Alcotest.(check (list (float 0.0))) "chunk order, empties skipped"
    [ 1.0; 3.0 ] times

let test_gather_spans_only_chunk () =
  let recorder = Obs_span.create () in
  let obs = Obs.create ~spans:recorder () in
  let kids = Obs_fork.scatter obs ~n:2 in
  (match Obs.span_recorder (Obs_fork.child kids 1) with
  | Some r -> Obs_span.record r "work" (fun () -> ())
  | None -> Alcotest.fail "child has no recorder");
  Obs_fork.gather obs kids;
  Alcotest.(check int) "span absorbed" 1 (Obs_span.count recorder);
  Alcotest.(check (list string)) "span name" [ "work" ]
    (List.map (fun s -> s.Obs_span.name) (Obs_span.spans recorder))

let test_gather_sink_failure_raises () =
  (* A parent sink that fails must surface the exception from gather,
     not drop the buffered events silently. *)
  let obs =
    Obs.create ~sink:(Obs.Sink.Custom (fun _ -> failwith "sink full")) ()
  in
  let kids = Obs_fork.scatter obs ~n:1 in
  Obs.emit (Obs_fork.child kids 0) (Obs.Event.Run_finished { time = 0.0 });
  (match Obs_fork.gather obs kids with
  | () -> Alcotest.fail "swallowed the sink failure"
  | exception Failure msg -> Alcotest.(check string) "propagated" "sink full" msg);
  (* Same through a Jsonl sink whose channel was closed under it. *)
  with_temp_file ".jsonl" (fun path ->
      let oc = open_out path in
      let obs = Obs.create ~sink:(Obs.Sink.Jsonl oc) () in
      let kids = Obs_fork.scatter obs ~n:1 in
      Obs.emit (Obs_fork.child kids 0) (Obs.Event.Run_finished { time = 0.0 });
      close_out oc;
      match Obs_fork.gather obs kids with
      | () -> Alcotest.fail "swallowed the closed-channel write"
      | exception Sys_error _ -> ())

let () =
  Alcotest.run "query"
    [
      ( "meta",
        [
          Alcotest.test_case "round-trip" `Quick test_meta_roundtrip;
          Alcotest.test_case "strict decoding" `Quick test_meta_rejects;
        ] );
      ( "load",
        [
          Alcotest.test_case "with provenance header" `Quick
            test_load_with_header;
          Alcotest.test_case "headerless and bad header" `Quick
            test_load_headerless_and_bad_header;
          Alcotest.test_case "empty trace refused" `Quick
            test_load_empty_refused;
        ] );
      ( "query",
        [
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "episode rows" `Quick test_episodes;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical streams" `Quick test_diff_identical;
          Alcotest.test_case "wall time ignored" `Quick
            test_diff_ignores_wall_time;
          Alcotest.test_case "mutation pinpointed" `Quick test_diff_mutation;
          Alcotest.test_case "truncation pinpointed" `Quick
            test_diff_truncation;
        ] );
      ( "folded",
        [
          Alcotest.test_case "round-trip and chrome import" `Quick
            test_folded_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_folded_rejects;
        ] );
      ( "fork",
        [
          Alcotest.test_case "zero-event chunks" `Quick
            test_gather_zero_event_chunks;
          Alcotest.test_case "spans-only chunk" `Quick
            test_gather_spans_only_chunk;
          Alcotest.test_case "sink failure surfaces" `Quick
            test_gather_sink_failure_raises;
        ] );
    ]
