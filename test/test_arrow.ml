(* Tests for the arrow protocol: safety (total order) on every
   topology/request set, delay semantics, notify mode, long-lived
   mode, and the Theorem 4.1 relation to the NN TSP. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Arrow = Countq_arrow
module Tsp = Countq_tsp

let tree_of g = Spanning.best_for_arrow g

let run ?notify ?tail g requests =
  Helpers.queued
    (Arrow.Protocol.one_shot ?notify ?tail ~tree:(tree_of g) ~requests ())

let check_valid msg (r : Arrow.Protocol.run_result) =
  match r.order with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg Arrow.Order.pp_error e)

let test_no_requests () =
  let r = run (Gen.path 5) [] in
  Alcotest.(check int) "no outcomes" 0 (List.length r.outcomes);
  Alcotest.(check int) "no delay" 0 r.total_delay

let test_single_request_at_tail () =
  let r = run (Gen.path 5) [ 0 ] in
  check_valid "tail requests" r;
  Alcotest.(check int) "delay 0" 0 r.total_delay;
  match r.outcomes with
  | [ o ] -> Alcotest.(check bool) "pred is Init" true (o.pred = Arrow.Types.Init)
  | _ -> Alcotest.fail "one outcome expected"

let test_single_remote_request () =
  (* A single requester at distance d from the tail finds the tail in d
     rounds. *)
  let g = Gen.path 8 in
  let r = run g [ 5 ] in
  check_valid "remote" r;
  Alcotest.(check int) "delay = distance" 5 r.total_delay

let test_sequential_semantics_two_requests () =
  let g = Gen.path 4 in
  (* tail at 0; requests at 1 and 3. Node 1's message reaches 0 in one
     round; node 3's chases toward the flipped arrows and finds node
     1. *)
  let r = run g [ 1; 3 ] in
  check_valid "two" r;
  match r.order with
  | Ok ops ->
      Alcotest.(check (list int)) "order is 1 then 3" [ 1; 3 ]
        (List.map (fun (o : Arrow.Types.op) -> o.origin) ops)
  | Error _ -> assert false

let test_all_request_on_path () =
  let n = 32 in
  let r = run (Gen.path n) (Helpers.all_nodes n) in
  check_valid "all on path" r;
  (* Everyone's arrow flips at time 0; each queue() message terminates
     at a neighbour in one round, except the tail's own op (0 delay). *)
  Alcotest.(check int) "total = n-1" (n - 1) r.total_delay

let test_notify_delays_dominate () =
  let g = Gen.square_mesh 5 in
  let requests = [ 3; 7; 11; 19; 24 ] in
  let plain = run g requests in
  let notified = run ~notify:true g requests in
  check_valid "plain" plain;
  check_valid "notified" notified;
  List.iter
    (fun (o : Arrow.Types.outcome) ->
      let plain_delay =
        (List.find
           (fun (p : Arrow.Types.outcome) -> p.op = o.op)
           plain.outcomes)
          .round
      in
      Alcotest.(check bool) "notify >= plain" true (o.round >= plain_delay);
      Alcotest.(check int) "notified at origin" o.op.origin o.found_at)
    notified.outcomes

let test_custom_tail () =
  let g = Gen.path 6 in
  let r =
    Helpers.queued
      (Arrow.Protocol.one_shot ~tree:(tree_of g) ~tail:5 ~requests:[ 0 ] ())
  in
  check_valid "custom tail" r;
  Alcotest.(check int) "distance to tail" 5 r.total_delay

let test_bad_requests_rejected () =
  let tree = tree_of (Gen.path 4) in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Arrow.one_shot: request out of range") (fun () ->
      ignore (Helpers.queued (Arrow.Protocol.one_shot ~tree ~requests:[ 7 ] ())));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Arrow.one_shot: duplicate request node") (fun () ->
      ignore (Helpers.queued (Arrow.Protocol.one_shot ~tree ~requests:[ 1; 1 ] ())))

let test_long_lived_chain () =
  let g = Gen.square_mesh 4 in
  let arrivals = [ (3, 0); (9, 2); (3, 5); (14, 5); (0, 11) ] in
  let r = Helpers.queued_long_lived ~tree:(tree_of g) arrivals in
  check_valid "long lived" r;
  Alcotest.(check int) "five ops" 5 (List.length r.outcomes);
  (* seq numbers distinguish repeat issuers *)
  let seqs =
    List.filter_map
      (fun (o : Arrow.Types.outcome) ->
        if o.op.origin = 3 then Some o.op.seq else None)
      r.outcomes
  in
  Alcotest.(check (list int)) "node 3 has seq 0 and 1" [ 0; 1 ]
    (List.sort compare seqs)

let test_long_lived_delay_measured_from_issue () =
  (* One op issued late on an idle network still has a small delay. *)
  let g = Gen.path 10 in
  let r =
    Helpers.queued_long_lived ~tree:(tree_of g) [ (9, 50) ]
  in
  check_valid "late op" r;
  Alcotest.(check int) "delay = distance, not 50 + distance" 9 r.total_delay

let test_long_lived_same_round_bursts () =
  (* Several arrivals at the same node in the same round (including
     round 0) must all be issued — regression for a schedule-jam bug. *)
  let g = Gen.path 6 in
  let arrivals = [ (2, 0); (2, 0); (4, 3); (4, 3); (4, 3); (1, 7) ] in
  let r = Helpers.queued_long_lived ~tree:(tree_of g) arrivals in
  check_valid "bursts" r;
  Alcotest.(check int) "all six ops issued" 6 (List.length r.outcomes)

let test_traced_run_matches_plain () =
  let g = Gen.square_mesh 4 in
  let tree = tree_of g in
  let requests = [ 1; 6; 11 ] in
  let plain = Helpers.queued (Arrow.Protocol.one_shot ~tree ~requests ()) in
  let tap, events = Countq_simnet.Trace.tap () in
  let res =
    Countq_simnet.Oneshot.run ~tap (Arrow.Protocol.one_shot ~tree ~requests ())
  in
  let events = events () in
  let traced = Arrow.Protocol.of_engine res in
  Alcotest.(check int) "same total" plain.total_delay traced.total_delay;
  Alcotest.(check int) "same messages" plain.messages traced.messages;
  Alcotest.(check bool) "events recorded" true (events <> []);
  let receives =
    List.length
      (List.filter
         (function Countq_simnet.Trace.Received _ -> true | _ -> false)
         events)
  in
  Alcotest.(check int) "one receive per message" plain.messages receives

let test_theorem41_bound_holds () =
  (* arrow total <= 2 * NN-TSP cost, across a spread of instances. *)
  let rng = Helpers.rng () in
  List.iter
    (fun g ->
      let tree = tree_of g in
      let n = Graph.n g in
      for _ = 1 to 5 do
        let k = 1 + Countq_util.Rng.below rng n in
        let requests = Countq_util.Rng.sample rng ~k ~n in
        let r = Helpers.queued (Arrow.Protocol.one_shot ~tree ~requests ()) in
        check_valid "tsp bound run" r;
        let tour = Tsp.Nn.on_tree tree ~start:(Tree.root tree) ~requests in
        Alcotest.(check bool)
          (Printf.sprintf "arrow (%d) <= 2 x TSP (%d)" r.total_delay tour.cost)
          true
          (r.total_delay <= 2 * tour.cost)
      done)
    [ Gen.path 40; Gen.square_mesh 6; Gen.complete 24; Gen.hypercube 5 ]

let prop_always_total_order =
  QCheck2.Test.make ~name:"arrow yields a valid total order on any instance"
    ~count:200 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r =
        Helpers.queued (Arrow.Protocol.one_shot ~tree:(tree_of g) ~requests ())
      in
      Result.is_ok r.order
      && List.length r.outcomes = List.length requests)

let prop_notify_also_total_order =
  QCheck2.Test.make ~name:"notify mode also yields a valid total order"
    ~count:100 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r =
        Helpers.queued
          (Arrow.Protocol.one_shot ~notify:true ~tree:(tree_of g) ~requests ())
      in
      Result.is_ok r.order)

let real_time_check g arrivals =
  (* Helper: run long-lived arrow and evaluate the real-time (FIFO)
     condition on the resulting order. *)
  let n = Graph.n g in
  let r = Helpers.queued_long_lived ~tree:(tree_of g) arrivals in
  match r.order with
  | Error _ -> None
  | Ok order ->
      let per_node = Array.make n [] in
      List.iter (fun (v, t) -> per_node.(v) <- t :: per_node.(v)) arrivals;
      Array.iteri (fun v ts -> per_node.(v) <- List.sort compare ts) per_node;
      let issue (op : Arrow.Types.op) = List.nth per_node.(op.origin) op.seq in
      let delay =
        let tbl = Hashtbl.create 32 in
        List.iter
          (fun (o : Arrow.Types.outcome) -> Hashtbl.replace tbl o.op o.round)
          r.outcomes;
        Hashtbl.find tbl
      in
      let complete op = issue op + delay op in
      Some (Arrow.Order.respects_real_time ~issue ~complete order)

let test_arrow_is_not_fifo () =
  (* Pinned counterexample: node 0 holds the initial tail; nodes 10 and
     11 request early (their messages crawl toward node 0), node 11's
     op even completes (finds its predecessor 10) at t=5 — then node 0
     issues at t=7 and still slots in FIRST (behind Init). Raymond-style
     path reversal is not FIFO; safety is unaffected. *)
  let g = Gen.square_mesh 4 in
  let arrivals = [ (10, 0); (11, 4); (0, 7) ] in
  match real_time_check g arrivals with
  | None -> Alcotest.fail "order must be valid"
  | Some respects ->
      Alcotest.(check bool) "real-time order violated" false respects

let test_sequentialised_arrivals_are_fifo () =
  (* With arrivals spaced beyond the network diameter, every message
     terminates before the next op is issued, and the order must match
     issue order exactly. *)
  let g = Gen.square_mesh 4 in
  let gap = 40 in
  let arrivals = List.mapi (fun i v -> (v, i * gap)) [ 10; 3; 0; 15; 7 ] in
  (match real_time_check g arrivals with
  | Some true -> ()
  | Some false -> Alcotest.fail "sequential arrivals must be FIFO"
  | None -> Alcotest.fail "order must be valid");
  let r = Helpers.queued_long_lived ~tree:(tree_of g) arrivals in
  match r.order with
  | Ok order ->
      Alcotest.(check (list int)) "issue order preserved" [ 10; 3; 0; 15; 7 ]
        (List.map (fun (o : Arrow.Types.op) -> o.origin) order)
  | Error _ -> Alcotest.fail "valid order expected"

let prop_base_model_sound =
  (* Section 2.1's simulation claim: the strict base model (1 msg per
     round) stays a valid execution and costs at most c times the
     expanded-step run. *)
  QCheck2.Test.make ~name:"base model valid and within c x expanded cost"
    ~count:100 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = tree_of g in
      let c = max 1 (Tree.max_degree tree) in
      let expanded =
        Helpers.queued (Arrow.Protocol.one_shot ~tree ~requests ())
      in
      let base =
        Helpers.queued (Arrow.Protocol.one_shot
          ~config:Countq_simnet.Engine.default_config ~tree ~requests ())
      in
      Result.is_ok base.order
      && base.total_delay <= c * expanded.total_delay)

let prop_first_in_order_is_closest =
  (* The head of the queue is a requester at minimum tree distance from
     the tail (ties possible, so only check distance equality). *)
  QCheck2.Test.make ~name:"queue head is nearest to the tail" ~count:100
    ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      let tree = tree_of g in
      let r = Helpers.queued (Arrow.Protocol.one_shot ~tree ~requests ()) in
      match r.order with
      | Ok (first :: _) ->
          let tail = Tree.root tree in
          let d v = Tree.dist tree tail v in
          let dmin =
            List.fold_left (fun acc v -> min acc (d v)) max_int requests
          in
          d first.origin = dmin
      | Ok [] -> requests = []
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "no requests" `Quick test_no_requests;
    Alcotest.test_case "single request at tail" `Quick test_single_request_at_tail;
    Alcotest.test_case "single remote request" `Quick test_single_remote_request;
    Alcotest.test_case "two sequentialised requests" `Quick
      test_sequential_semantics_two_requests;
    Alcotest.test_case "all request on path" `Quick test_all_request_on_path;
    Alcotest.test_case "notify delays dominate" `Quick test_notify_delays_dominate;
    Alcotest.test_case "custom tail" `Quick test_custom_tail;
    Alcotest.test_case "bad requests rejected" `Quick test_bad_requests_rejected;
    Alcotest.test_case "long-lived chain" `Quick test_long_lived_chain;
    Alcotest.test_case "long-lived delay from issue" `Quick
      test_long_lived_delay_measured_from_issue;
    Alcotest.test_case "long-lived same-round bursts" `Quick
      test_long_lived_same_round_bursts;
    Alcotest.test_case "traced run matches plain" `Quick test_traced_run_matches_plain;
    Alcotest.test_case "Theorem 4.1 bound" `Quick test_theorem41_bound_holds;
    Helpers.qcheck prop_always_total_order;
    Helpers.qcheck prop_notify_also_total_order;
    Alcotest.test_case "arrow is not FIFO (counterexample)" `Quick
      test_arrow_is_not_fifo;
    Alcotest.test_case "sequentialised arrivals are FIFO" `Quick
      test_sequentialised_arrivals_are_fifo;
    Helpers.qcheck prop_base_model_sound;
    Helpers.qcheck prop_first_in_order_is_closest;
  ]
