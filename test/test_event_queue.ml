let test_empty_queue () =
  let q = Event_queue.create () in
  Alcotest.(check int) "size 0" 0 (Event_queue.size q);
  Alcotest.(check bool) "pop None" true (Event_queue.pop q = None)

let test_time_ordering () =
  let q = Event_queue.create () in
  List.iter
    (fun (t, v) -> Event_queue.push q ~time:t ~tie:0 v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (List.rev !order)

let test_tie_breaking () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5.0 ~tie:2 "owner-return";
  Event_queue.push q ~time:5.0 ~tie:0 "period-end";
  Event_queue.push q ~time:5.0 ~tie:1 "middle";
  let pop () =
    match Event_queue.pop q with Some (_, v) -> v | None -> "none"
  in
  Alcotest.(check string) "lowest tie first" "period-end" (pop ());
  Alcotest.(check string) "middle" "middle" (pop ());
  Alcotest.(check string) "highest last" "owner-return" (pop ())

let test_fifo_within_same_priority () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 ~tie:0 "first";
  Event_queue.push q ~time:1.0 ~tie:0 "second";
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "insertion order" "first" v
  | None -> Alcotest.fail "empty");
  match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "insertion order" "second" v
  | None -> Alcotest.fail "empty"

let test_interleaved_push_pop () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:10.0 ~tie:0 10;
  Event_queue.push q ~time:5.0 ~tie:0 5;
  (match Event_queue.pop q with
  | Some (t, 5) -> Alcotest.(check (float 0.0)) "t" 5.0 t
  | _ -> Alcotest.fail "expected 5");
  Event_queue.push q ~time:1.0 ~tie:0 1;
  (match Event_queue.pop q with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected 1");
  match Event_queue.pop q with
  | Some (_, 10) -> ()
  | _ -> Alcotest.fail "expected 10"

let test_rejects_nonfinite_time () =
  let q = Event_queue.create () in
  match Event_queue.push q ~time:Float.nan ~tie:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN time accepted"

let test_growth_beyond_initial_capacity () =
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    Event_queue.push q ~time:(float_of_int i) ~tie:0 i
  done;
  Alcotest.(check int) "size" 1000 (Event_queue.size q);
  for i = 0 to 999 do
    match Event_queue.pop q with
    | Some (_, v) -> Alcotest.(check int) "heap order" i v
    | None -> Alcotest.fail "premature empty"
  done

let prop_pop_order_is_sorted =
  QCheck.Test.make ~name:"pop yields nondecreasing times" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.0 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ~tie:0 t) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_size_tracks_operations =
  QCheck.Test.make ~name:"size is consistent under push/pop" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0.0 10.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t ~tie:i ()) times;
      let n = List.length times in
      Event_queue.size q = n
      &&
      let rec drain k =
        match Event_queue.pop q with
        | None -> k = 0
        | Some _ -> Event_queue.size q = k - 1 && drain (k - 1)
      in
      drain n)

let () =
  Alcotest.run "event_queue"
    [
      ( "event_queue",
        [
          Alcotest.test_case "empty" `Quick test_empty_queue;
          Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "tie breaking" `Quick test_tie_breaking;
          Alcotest.test_case "FIFO same priority" `Quick
            test_fifo_within_same_priority;
          Alcotest.test_case "interleaved" `Quick test_interleaved_push_pop;
          Alcotest.test_case "non-finite rejected" `Quick
            test_rejects_nonfinite_time;
          Alcotest.test_case "growth" `Quick
            test_growth_beyond_initial_capacity;
          QCheck_alcotest.to_alcotest prop_pop_order_is_sorted;
          QCheck_alcotest.to_alcotest prop_size_tracks_operations;
        ] );
    ]
