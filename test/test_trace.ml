(* Tests for protocol tracing. *)

module Gen = Countq_topology.Gen
module Engine = Countq_simnet.Engine
module Trace = Countq_simnet.Trace

let pinger count =
  {
    Engine.name = "pinger";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s ->
        if node = 0 then (s, List.init count (fun i -> Engine.Send (1, i)))
        else (s, []));
    on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
    on_wake = Engine.no_wake;
  }

let run_traced count =
  let protocol, events = Trace.instrument (pinger count) in
  let res =
    Engine.run ~graph:(Gen.path 2) ~config:Engine.default_config ~protocol ()
  in
  (res, events ())

let test_events_recorded () =
  let res, events = run_traced 3 in
  Alcotest.(check int) "behaviour unchanged" 3 (Engine.completion_count res);
  let sends =
    List.length
      (List.filter (function Trace.Queued_send _ -> true | _ -> false) events)
  in
  let receives =
    List.length
      (List.filter (function Trace.Received _ -> true | _ -> false) events)
  in
  let completes =
    List.length
      (List.filter (function Trace.Completed _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "sends" 3 sends;
  Alcotest.(check int) "receives" 3 receives;
  Alcotest.(check int) "completes" 3 completes

let test_event_chronology () =
  let _, events = run_traced 2 in
  let rounds =
    List.map
      (function
        | Trace.Received { round; _ }
        | Trace.Queued_send { round; _ }
        | Trace.Completed { round; _ } ->
            round)
      events
  in
  Alcotest.(check (list int)) "chronological" (List.sort compare rounds) rounds

let test_receive_precedes_actions () =
  let _, events = run_traced 1 in
  match events with
  | [ Trace.Queued_send { round = 0; node = 0; dst = 1 };
      Trace.Received { round = 1; node = 1; src = 0 };
      Trace.Completed { round = 1; node = 1 } ] ->
      ()
  | _ ->
      Alcotest.fail
        (String.concat "; "
           (List.map (Format.asprintf "%a" Trace.pp_event) events))

let test_render_shapes () =
  let _, events = run_traced 1 in
  let s = Trace.render ~n:2 events in
  let lines = String.split_on_char '\n' s in
  (* header + 2 node rows + trailing blank *)
  Alcotest.(check int) "line count" 4 (List.length lines);
  let node1 = List.nth lines 2 in
  Alcotest.(check bool) "completion drawn" true (String.contains node1 '*')

let test_render_empty () =
  let s = Trace.render ~n:1 [] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_tick_instrumented () =
  let base =
    {
      Engine.name = "tick";
      initial_state = (fun _ -> ());
      on_start = (fun ~node s -> (s, if node = 0 then [ Engine.Wake 2 ] else []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake =
        (fun ~round ~node s ->
          if node = 0 && round = 2 then (s, [ Engine.Send (1, ()) ]) else (s, []));
    }
  in
  let protocol, events = Trace.instrument base in
  ignore (Engine.run ~graph:(Gen.path 2) ~config:Engine.default_config ~protocol ());
  let has_tick_send =
    List.exists
      (function Trace.Queued_send { round = 2; node = 0; dst = 1 } -> true | _ -> false)
      (events ())
  in
  Alcotest.(check bool) "tick send recorded" true has_tick_send

let test_jsonl_round_trip () =
  let _, events = run_traced 3 in
  (match Trace.of_jsonl (Trace.to_jsonl events) with
  | Ok back -> Alcotest.(check bool) "round-trips" true (back = events)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* Blank lines are tolerated. *)
  match Trace.of_jsonl ("\n" ^ Trace.to_jsonl events ^ "\n\n") with
  | Ok back -> Alcotest.(check bool) "blank lines skipped" true (back = events)
  | Error e -> Alcotest.failf "blank-line parse failed: %s" e

let test_jsonl_rejects_garbage () =
  (match Trace.of_jsonl "not json at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Trace.of_jsonl "{\"type\":\"warp\",\"round\":1}" with
  | Ok _ -> Alcotest.fail "unknown event type accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "events recorded" `Quick test_events_recorded;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "jsonl rejects garbage" `Quick test_jsonl_rejects_garbage;
    Alcotest.test_case "chronological" `Quick test_event_chronology;
    Alcotest.test_case "exact event stream" `Quick test_receive_precedes_actions;
    Alcotest.test_case "render shapes" `Quick test_render_shapes;
    Alcotest.test_case "render empty" `Quick test_render_empty;
    Alcotest.test_case "tick instrumented" `Quick test_tick_instrumented;
  ]
