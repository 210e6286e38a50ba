(* Tests for observed influence-set replay. *)

module Gen = Countq_topology.Gen
module Spanning = Countq_topology.Spanning
module Trace = Countq_simnet.Trace
module Observed = Countq_bounds.Observed
module Arrow = Countq_arrow

(* A one-shot instance's event log, through a trace tap. *)
let traced inst =
  let tap, events = Trace.tap () in
  ignore (Countq_simnet.Oneshot.run ~tap inst);
  events ()

let test_empty_trace () =
  let g = Observed.of_trace ~n:4 [] in
  Alcotest.(check int) "no rounds" 0 g.rounds;
  Alcotest.(check (array int)) "initial" [| 1 |] g.max_influence

let test_single_receive () =
  let events = [ Trace.Received { round = 1; node = 0; src = 1 } ] in
  let g = Observed.of_trace ~n:2 events in
  Alcotest.(check (array int)) "grows to 2" [| 1; 2 |] g.max_influence

let test_chain_growth_linear () =
  (* A relay chain: node i learns of i+1 inputs after i hops. *)
  let n = 6 in
  let events =
    List.init (n - 1) (fun i ->
        Trace.Received { round = i + 1; node = i + 1; src = i })
  in
  let g = Observed.of_trace ~n events in
  Alcotest.(check (array int)) "linear growth" [| 1; 2; 3; 4; 5; 6 |]
    g.max_influence

let test_monotone () =
  (* A later quiet round must not drop the maximum. *)
  let events =
    [
      Trace.Received { round = 1; node = 0; src = 1 };
      Trace.Completed { round = 3; node = 0 };
    ]
  in
  let g = Observed.of_trace ~n:2 events in
  Alcotest.(check (array int)) "monotone" [| 1; 2; 2; 2 |] g.max_influence

let test_envelope_violated_by_impossible_trace () =
  (* 16 distinct sources into one node in round 1 exceeds tow(2) = 4. *)
  let events =
    List.init 16 (fun i -> Trace.Received { round = 1; node = 16; src = i })
  in
  let g = Observed.of_trace ~n:17 events in
  Alcotest.(check bool) "violation detected" false (Observed.within_envelope g)

let test_arrow_trace_within_envelope () =
  (* Base-model runs (capacity 1): the Lemma 3.4 envelope applies. *)
  List.iter
    (fun g0 ->
      let tree = Spanning.best_for_arrow g0 in
      let n = Countq_topology.Graph.n g0 in
      let events =
        traced
          (Arrow.Protocol.one_shot ~config:Countq_simnet.Engine.default_config
             ~tree ~requests:(Helpers.all_nodes n) ())
      in
      let g = Observed.of_trace ~n events in
      Alcotest.(check bool) "within tow(2t)" true (Observed.within_envelope g))
    [ Gen.complete 32; Gen.square_mesh 6; Gen.path 40 ]

let test_snapshot_semantics () =
  (* A send queued before a receive must NOT carry what the sender
     learned afterwards: 1 queues to 2, then 1 receives from 0; node 2
     must end up with {1,2} only. *)
  let events =
    [
      Trace.Queued_send { round = 1; node = 1; dst = 2 };
      Trace.Received { round = 1; node = 1; src = 0 };
      Trace.Received { round = 2; node = 2; src = 1 };
    ]
  in
  let g = Observed.of_trace ~n:3 events in
  Alcotest.(check (array int)) "no retroactive influence" [| 1; 2; 2 |]
    g.max_influence

let prop_observed_bounded_by_n =
  QCheck2.Test.make ~name:"observed influence never exceeds n" ~count:60
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g0, requests) ->
      let tree = Spanning.best_for_arrow g0 in
      let n = Countq_topology.Graph.n g0 in
      let events = traced (Arrow.Protocol.one_shot ~tree ~requests ()) in
      let g = Observed.of_trace ~n events in
      Array.for_all (fun size -> size >= 1 && size <= n) g.max_influence)

let suite =
  [
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "single receive" `Quick test_single_receive;
    Alcotest.test_case "chain growth" `Quick test_chain_growth_linear;
    Alcotest.test_case "monotone" `Quick test_monotone;
    Alcotest.test_case "impossible trace flagged" `Quick
      test_envelope_violated_by_impossible_trace;
    Alcotest.test_case "arrow within envelope" `Quick
      test_arrow_trace_within_envelope;
    Alcotest.test_case "snapshot semantics" `Quick test_snapshot_semantics;
    Helpers.qcheck prop_observed_bounded_by_n;
  ]
