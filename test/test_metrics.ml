(* Tests for the per-node / per-edge Metrics recorder. The passivity
   property every passive tap shares is in test_equiv.ml; the two
   below pin the Metrics tap on its own. *)

module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Faults = Countq_simnet.Faults
module Metrics = Countq_simnet.Metrics
module Sweep = Countq_counting.Sweep
module Json = Countq_util.Json

(* A sweep instance over the given topology: tree, its graph and a
   ready-to-run protocol. *)
let sweep_instance g requests =
  let tree = Spanning.best_for_arrow g in
  let graph = Tree.to_graph tree in
  let protocol = Sweep.one_shot_protocol ~tree ~requests () in
  (graph, protocol)

(* The recorder must be passive: attaching its tap must not change a
   single field of the result, on any topology, fault-free. *)
let prop_metrics_off_bit_identical =
  QCheck2.Test.make ~name:"metrics attachment is bit-identical (fault-free)"
    ~count:100 ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      let graph, protocol = sweep_instance g requests in
      let run ?tap () =
        Engine.run ?tap ~graph ~config:Engine.default_config ~protocol ()
      in
      let plain = run () in
      let m = Metrics.create ~graph in
      plain = run ~tap:(Metrics.tap m) ())

(* Same through the fault layer: drops, duplicates, delay spikes and a
   crash all take the instrumented paths. *)
let prop_metrics_off_bit_identical_faulty =
  QCheck2.Test.make ~name:"metrics attachment is bit-identical (faulty)"
    ~count:100
    ~print:(fun (i, seed) ->
      Printf.sprintf "%s seed=%d" (Helpers.instance_print i) seed)
    QCheck2.Gen.(pair Helpers.nonempty_instance_gen (int_range 0 1000))
    (fun ((_, g, requests), seed) ->
      let graph, protocol = sweep_instance g requests in
      let plan =
        Faults.random ~label:"qcheck" ~seed:(Int64.of_int seed) ~drop:0.05
          ~duplicate:0.05 ~delay:0.1
          ~crashes:[ { Faults.node = 0; at_round = 4; recover_at = Some 6 } ]
          ()
      in
      let run ?tap () =
        Engine.run ~faults:(Faults.start plan) ?tap ~graph
          ~config:Engine.default_config ~protocol ()
      in
      let plain = run () in
      let m = Metrics.create ~graph in
      plain = run ~tap:(Metrics.tap m) ())

(* Both engines replay the same schedule fault-free, so their recorders
   must agree counter for counter — this also pins the engine's
   slot-passing fast path against the search-based reference path. *)
let prop_engine_reference_metrics_agree =
  QCheck2.Test.make ~name:"engine and reference recorders agree" ~count:100
    ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      let graph, protocol = sweep_instance g requests in
      let m_engine = Metrics.create ~graph in
      let m_ref = Metrics.create ~graph in
      ignore
        (Engine.run ~tap:(Metrics.tap m_engine) ~graph ~config:Engine.default_config
           ~protocol ());
      ignore
        (Reference.run ~tap:(Metrics.tap m_ref) ~graph ~config:Engine.default_config
           ~protocol ());
      Metrics.per_node m_engine = Metrics.per_node m_ref
      && Metrics.per_edge m_engine = Metrics.per_edge m_ref)

(* Fault-free, every transmission is delivered: sends = receives =
   the engine's own message count. *)
let test_conservation () =
  let graph, protocol = sweep_instance (Gen.path 32) (Helpers.all_nodes 32) in
  let m = Metrics.create ~graph in
  let res =
    Engine.run ~tap:(Metrics.tap m) ~graph ~config:Engine.default_config
      ~protocol ()
  in
  Alcotest.(check int) "sends = messages" res.messages (Metrics.total_sends m);
  Alcotest.(check int) "receives = messages" res.messages
    (Metrics.total_receives m)

(* Hand-driven recorder: heatmap cells and scale come out exactly as
   documented (path 0-1-2; one message 0 -> 1). *)
let test_heatmap_golden () =
  let graph = Gen.path 3 in
  let m = Metrics.create ~graph in
  let tap = Metrics.tap m in
  tap.on_transmit ~round:0 ~src:0 ~dst:1;
  tap.on_deliver ~round:1 ~src:0 ~dst:1 ();
  let expected =
    "node traffic heatmap (sends + receives; peak = 1; scale \" .:-=+*#%@\")\n\
    \     0  @@ \n"
  in
  Alcotest.(check string) "golden" expected (Metrics.render_heatmap m)

(* Every exported line is standalone JSON with a recognised type tag. *)
let test_jsonl_parses () =
  let graph, protocol = sweep_instance (Gen.star 8) (Helpers.all_nodes 8) in
  let m = Metrics.create ~graph in
  ignore
    (Engine.run ~tap:(Metrics.tap m) ~graph ~config:Engine.default_config
       ~protocol ());
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Metrics.to_jsonl m))
  in
  Alcotest.(check bool) "has lines" true (lines <> []);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e
      | Ok j -> (
          match Option.map (Json.member "type") (Some j) |> Option.join with
          | Some (Json.Str ("node" | "edge")) -> ()
          | _ -> Alcotest.failf "bad type tag in %S" line))
    lines

(* Non-edges are rejected rather than silently miscounted. *)
let test_non_edge_rejected () =
  let m = Metrics.create ~graph:(Gen.path 3) in
  Alcotest.check_raises "not an edge"
    (Invalid_argument "Metrics: not an edge of the graph") (fun () ->
      (Metrics.tap m).on_transmit ~round:0 ~src:0 ~dst:2)

let suite =
  [
    Helpers.qcheck prop_metrics_off_bit_identical;
    Helpers.qcheck prop_metrics_off_bit_identical_faulty;
    Helpers.qcheck prop_engine_reference_metrics_agree;
    Alcotest.test_case "conservation" `Quick test_conservation;
    Alcotest.test_case "heatmap golden" `Quick test_heatmap_golden;
    Alcotest.test_case "jsonl parses" `Quick test_jsonl_parses;
    Alcotest.test_case "non-edge rejected" `Quick test_non_edge_rejected;
  ]
