(* Tests for the windowed telemetry recorder and span reservoirs:
   window/ring accounting, passivity (attachment is bit-identical on
   both engines, also across the event engine's gap jump), the
   streaming completion sink, and the reservoir policies. The passivity
   property every passive tap shares is in test_equiv.ml. *)

module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Implicit = Countq_topology.Implicit
module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Telemetry = Countq_simnet.Telemetry
module Faults = Countq_simnet.Faults
module Sweep = Countq_counting.Sweep
module Json = Countq_util.Json

let sweep_instance g requests =
  let tree = Spanning.best_for_arrow g in
  let graph = Tree.to_graph tree in
  let protocol = Sweep.one_shot_protocol ~tree ~requests () in
  (graph, protocol)

(* Telemetry must be passive: attaching its tap changes nothing in the
   result, on any topology — the same pin Metrics carries. *)
let prop_telemetry_bit_identical =
  QCheck2.Test.make ~name:"telemetry attachment is bit-identical (fault-free)"
    ~count:100 ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      let graph, protocol = sweep_instance g requests in
      let run ?tap () =
        Engine.run ?tap ~graph ~config:Engine.default_config ~protocol ()
      in
      let plain = run () in
      let tl = Telemetry.create ~window_size:4 () in
      plain = run ~tap:(Telemetry.tap tl) ())

(* Same through the fault layer, whose drop paths carry extra hooks. *)
let prop_telemetry_bit_identical_faulty =
  QCheck2.Test.make ~name:"telemetry attachment is bit-identical (faulty)"
    ~count:100
    ~print:(fun (i, seed) ->
      Printf.sprintf "%s seed=%d" (Helpers.instance_print i) seed)
    QCheck2.Gen.(pair Helpers.nonempty_instance_gen (int_range 0 1000))
    (fun ((_, g, requests), seed) ->
      let graph, protocol = sweep_instance g requests in
      let plan () =
        Faults.start
          (Faults.random ~label:"qcheck" ~seed:(Int64.of_int seed) ~drop:0.05
             ~duplicate:0.05 ~delay:0.1
             ~crashes:[ { Faults.node = 0; at_round = 4; recover_at = Some 6 } ]
             ())
      in
      let run ?tap () =
        Engine.run ~faults:(plan ()) ?tap ~graph ~config:Engine.default_config
          ~protocol ()
      in
      let plain = run () in
      let tl = Telemetry.create ~window_size:4 () in
      plain = run ~tap:(Telemetry.tap tl) ())

(* A minimal event-engine workload: each injection sends one hop right
   on the implicit list; the receiver completes with the sender id. *)
let hop_protocol =
  {
    Engine.name = "hop";
    initial_state = (fun _ -> ());
    on_start = (fun ~node:_ s -> (s, []));
    on_receive = (fun ~round:_ ~node:_ ~src _m s -> (s, [ Engine.Complete src ]));
    on_wake = Engine.no_wake;
  }

let hop_injections rounds =
  Array.of_list
    (List.map
       (fun (at, node) ->
         { Event.at; node; inject = (fun s -> (s, [ Engine.Send (node + 1, ()) ])) })
       rounds)

let run_hops ?tap ?sink () =
  let topo = Implicit.list 16 in
  Event.run ?tap ?sink
    ~injections:(hop_injections [ (1, 0); (1, 4); (3, 4); (40, 7) ])
    ~halt_after:64 ~starters:[] ~topo ~config:Engine.default_config
    ~protocol:hop_protocol ()

let test_event_engine_passive () =
  let plain = run_hops () in
  let tl = Telemetry.create ~window_size:8 () in
  let with_tl = run_hops ~tap:(Telemetry.tap tl) () in
  Alcotest.(check bool) "bit-identical" true (plain = with_tl);
  (* The gap jump to round 40 crosses several windows; they must
     appear, zeroed, in the snapshot. *)
  let ws = Telemetry.windows tl in
  Alcotest.(check int) "4 completions recorded" 4
    (List.fold_left (fun a w -> a + w.Telemetry.completions) 0 ws);
  Alcotest.(check bool)
    "some fast-forwarded window is all zero" true
    (List.exists
       (fun w -> w.Telemetry.sends = 0 && w.Telemetry.deliveries = 0)
       ws)

(* A sink streams the same completions the result would have retained,
   in the same order, and empties result.completions. *)
let test_sink_streams_completions () =
  let plain = run_hops () in
  let streamed = ref [] in
  let sunk = run_hops ~sink:(fun c -> streamed := c :: !streamed) () in
  Alcotest.(check bool)
    "sink sees the retained list, in order" true
    (List.rev !streamed = plain.Engine.completions);
  Alcotest.(check bool) "result retains nothing" true
    (sunk.Engine.completions = []);
  Alcotest.(check bool)
    "aggregates unchanged" true
    (plain.Engine.rounds = sunk.Engine.rounds
    && plain.Engine.messages = sunk.Engine.messages
    && plain.Engine.max_link_backlog = sunk.Engine.max_link_backlog)

(* Ring accounting: a window evicts once the ring wraps, and the live
   snapshot stays contiguous. *)
let test_ring_eviction () =
  let tl = Telemetry.create ~windows:2 ~window_size:4 () in
  let tap = Telemetry.tap tl in
  tap.on_transmit ~round:0 ~src:0 ~dst:1;
  tap.on_transmit ~round:5 ~src:0 ~dst:1;
  tap.on_complete ~round:9 ~node:0 ~value:();
  Alcotest.(check int) "one window evicted" 1 (Telemetry.evicted tl);
  match Telemetry.windows tl with
  | [ w1; w2 ] ->
      Alcotest.(check int) "window 1 index" 1 w1.Telemetry.w_index;
      Alcotest.(check int) "window 1 sends" 1 w1.Telemetry.sends;
      Alcotest.(check int) "window 2 start" 8 w2.Telemetry.w_start;
      Alcotest.(check int) "window 2 completions" 1 w2.Telemetry.completions
  | ws -> Alcotest.failf "expected 2 live windows, got %d" (List.length ws)

let test_peaks_and_jsonl () =
  let tl = Telemetry.create ~window_size:10 () in
  let tap : (unit, unit) Engine.tap = Telemetry.tap tl in
  tap.on_backlog ~round:3 ~node:0 ~backlog:2;
  tap.on_backlog ~round:4 ~node:0 ~backlog:7;
  tap.on_backlog ~round:5 ~node:0 ~backlog:1;
  ignore (tap.on_round_end ~round:5 ~in_flight:9);
  tap.on_drop ~round:5 ~src:0 ~dst:1;
  tap.on_down_drop ~round:6 ~src:0 ~dst:1;
  (match Telemetry.windows tl with
  | [ w ] ->
      Alcotest.(check int) "peak backlog" 7 w.Telemetry.max_backlog;
      Alcotest.(check int) "peak in-flight" 9 w.Telemetry.max_in_flight;
      Alcotest.(check int) "drops" 2 w.Telemetry.drops
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws));
  String.split_on_char '\n' (Telemetry.to_jsonl tl)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Json.of_string line with
         | Error e -> Alcotest.failf "unparseable line %S: %s" line e
         | Ok j -> (
             match Json.member "type" j with
             | Some (Json.Str "window") -> ()
             | _ -> Alcotest.failf "bad type tag in %S" line))

let test_sparkline () =
  Alcotest.(check string)
    "all-zero" "\xe2\x96\x81\xe2\x96\x81\xe2\x96\x81"
    (Telemetry.sparkline [| 0.; 0.; 0. |]);
  Alcotest.(check string)
    "scaled" "\xe2\x96\x82\xe2\x96\x84\xe2\x96\x88"
    (Telemetry.sparkline [| 1.; 2.; 4. |])

let test_reservoir_policies () =
  let r = Telemetry.Reservoir.create ~first:2 ~slowest:3 ~sample:4 ~seed:7L () in
  (* items are ints; delays ramp so the slowest set is the tail. *)
  for i = 0 to 19 do
    Telemetry.Reservoir.note r ~delay:(Some i) i
  done;
  Telemetry.Reservoir.note r ~delay:None 99;
  Alcotest.(check int) "seen" 21 (Telemetry.Reservoir.seen r);
  Alcotest.(check int) "completed" 20 (Telemetry.Reservoir.completed r);
  Alcotest.(check int) "stranded" 1 (Telemetry.Reservoir.stranded r);
  let ex = Telemetry.Reservoir.exemplars r in
  let tagged tag = List.filter_map
      (fun (t, v) -> if t = tag then Some v else None) ex
  in
  Alcotest.(check (list int)) "firsts in arrival order" [ 0; 1 ]
    (tagged "first");
  Alcotest.(check (list int)) "slowest, largest delay first" [ 19; 18; 17 ]
    (tagged "slowest");
  Alcotest.(check int) "sample is full" 4 (List.length (tagged "sample"));
  List.iter
    (fun v ->
      if not (v = 99 || (v >= 0 && v < 20)) then
        Alcotest.failf "sample item %d was never noted" v)
    (tagged "sample");
  (* exemplars is a snapshot, not a drain: asking twice agrees. *)
  Alcotest.(check bool)
    "re-callable" true
    (Telemetry.Reservoir.exemplars r = ex)

(* The stranded path never enters the slowest heap. *)
let test_reservoir_stranded_not_slowest () =
  let r = Telemetry.Reservoir.create ~first:0 ~slowest:2 ~sample:0 ~seed:1L () in
  Telemetry.Reservoir.note r ~delay:None 1;
  Telemetry.Reservoir.note r ~delay:(Some 5) 2;
  Telemetry.Reservoir.note r ~delay:None 3;
  let ex = Telemetry.Reservoir.exemplars r in
  Alcotest.(check (list (pair string int))) "only the completed item"
    [ ("slowest", 2) ]
    ex

let suite =
  [
    Helpers.qcheck prop_telemetry_bit_identical;
    Helpers.qcheck prop_telemetry_bit_identical_faulty;
    Alcotest.test_case "event engine passive" `Quick test_event_engine_passive;
    Alcotest.test_case "sink streams completions" `Quick
      test_sink_streams_completions;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "peaks and jsonl" `Quick test_peaks_and_jsonl;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "reservoir policies" `Quick test_reservoir_policies;
    Alcotest.test_case "reservoir stranded" `Quick
      test_reservoir_stranded_not_slowest;
  ]
