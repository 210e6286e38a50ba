(* Tests for causal operation spans. *)

module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Faults = Countq_simnet.Faults
module Metrics = Countq_simnet.Metrics
module Span = Countq_simnet.Span
module Arrow = Countq_arrow.Protocol
module Json = Countq_util.Json

let observed_arrow ?plan g requests =
  let tree = Spanning.best_for_arrow g in
  let graph = Tree.to_graph tree in
  let m = Metrics.create ~graph in
  let res, spans, _ =
    Countq_simnet.Oneshot.observed ?plan ~metrics:m
      (Arrow.one_shot ~tree ~requests ())
  in
  (graph, Arrow.of_engine res, spans)

(* Causality invariants on arbitrary one-shot arrow runs: a span's
   timeline is inject <= queued < delivered <= ... <= completion, every
   hop crosses a real edge, and there is exactly one span per request. *)
let prop_span_invariants =
  QCheck2.Test.make ~name:"span timelines are causal" ~count:100
    ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      let graph, _, spans = observed_arrow g requests in
      List.map (fun (s : Span.t) -> s.op) spans = List.sort compare requests
      && List.for_all
           (fun (s : Span.t) ->
             let hop_ok (h : Span.hop) =
               Graph.has_edge graph h.h_src h.h_dst
               && h.queued_round >= s.inject_round
               && h.delivered_round > h.queued_round
               && Span.hop_wait h >= 0
             in
             let rec chronological = function
               | (a : Span.hop) :: (b : Span.hop) :: rest ->
                   a.delivered_round <= b.delivered_round
                   && chronological (b :: rest)
               | _ -> true
             in
             let completion_ok =
               match s.completion_round with
               | None -> false (* fault-free one-shot: everyone finishes *)
               | Some c ->
                   c >= s.inject_round
                   && List.for_all
                        (fun (h : Span.hop) -> h.delivered_round <= c)
                        s.hops
             in
             s.inject_round = 0
             && List.for_all hop_ok s.hops
             && chronological s.hops && completion_ok)
           spans)

(* The per-operation delays must re-assemble the engine's aggregate:
   one-shot injection at round 0 makes the sum of span delays equal the
   run's total concurrent delay. *)
let prop_span_sum_check =
  QCheck2.Test.make ~name:"span delays sum to the engine total" ~count:100
    ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      let _, res, spans = observed_arrow g requests in
      let sum =
        List.fold_left
          (fun acc s -> acc + Option.value ~default:0 (Span.delay s))
          0 spans
      in
      sum = res.Arrow.total_delay)

(* Dropping an op's only message strands exactly that span. *)
let test_incomplete_span_surfaces () =
  let _, res, spans =
    observed_arrow ~plan:(Faults.drop_nth 0) (Gen.star 8) (Helpers.all_nodes 8)
  in
  let incomplete =
    List.filter (fun (s : Span.t) -> s.completion_round = None) spans
  in
  Alcotest.(check int) "one op stranded" 1 (List.length incomplete);
  Alcotest.(check int) "spans still cover every request" 8 (List.length spans);
  Alcotest.(check int) "the rest completed" 7 (List.length res.Arrow.outcomes)

(* JSONL export: one parseable object per span, tagged and with the
   delay field exactly on completed spans. *)
let test_jsonl_shape () =
  let _, _, spans = observed_arrow (Gen.path 8) (Helpers.all_nodes 8) in
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Span.to_jsonl spans))
  in
  Alcotest.(check int) "one line per span" (List.length spans)
    (List.length lines);
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "line %d unparseable: %s" i e
      | Ok j ->
          let int_field name = Option.bind (Json.member name j) Json.to_int in
          Alcotest.(check (option string))
            "type" (Some "span")
            (match Json.member "type" j with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          let s = List.nth spans i in
          Alcotest.(check (option int)) "op" (Some s.Span.op) (int_field "op");
          Alcotest.(check (option int))
            "delay" (Span.delay s) (int_field "delay"))
    lines

let suite =
  [
    Helpers.qcheck prop_span_invariants;
    Helpers.qcheck prop_span_sum_check;
    Alcotest.test_case "incomplete span surfaces" `Quick
      test_incomplete_span_surfaces;
    Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
  ]
