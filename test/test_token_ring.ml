(* Tests for the token-circulation queuing baseline. *)

module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module TR = Countq_queuing.Token_ring
module Arrow = Countq_arrow

let check_valid msg (r : Arrow.Protocol.run_result) =
  match r.order with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg Arrow.Order.pp_error e)

let path_tree n = Tree.of_graph (Gen.path n) ~root:0

let run ~tree ~requests =
  Arrow.Protocol.of_engine
    (Countq_simnet.Oneshot.run (TR.one_shot ~tree ~requests ()))

let test_empty () =
  let r = run ~tree:(path_tree 5) ~requests:[] in
  check_valid "empty" r;
  Alcotest.(check int) "no outcomes" 0 (List.length r.outcomes)

let test_order_is_visit_order () =
  let r = run ~tree:(path_tree 8) ~requests:[ 6; 2; 4 ] in
  check_valid "path" r;
  match r.order with
  | Ok order ->
      Alcotest.(check (list int)) "walk order" [ 2; 4; 6 ]
        (List.map (fun (o : Arrow.Types.op) -> o.origin) order)
  | Error _ -> assert false

let test_delay_is_first_visit_time () =
  let r = run ~tree:(path_tree 10) ~requests:[ 7 ] in
  check_valid "single" r;
  Alcotest.(check int) "token reaches 7 at round 7" 7 r.total_delay

let test_all_on_list_matches_arrow_total () =
  (* R = V on the list: both the token sweep and the arrow pay Theta(n)
     total; the sweep's total is the triangular number. *)
  let n = 32 in
  let r = run ~tree:(path_tree n) ~requests:(Helpers.all_nodes n) in
  check_valid "all" r;
  Alcotest.(check int) "triangular" (n * (n - 1) / 2) r.total_delay

let test_sparse_requester_pays_full_walk () =
  (* One far requester: the arrow pays one path, the ring still walks.
     On a perfect binary tree the Euler walk to the last leaf is much
     longer than the direct path. *)
  let g = Gen.perfect_tree ~arity:2 ~height:5 in
  let tree = Tree.of_graph g ~root:0 in
  let n = Tree.n tree in
  let target = n - 1 in
  let ring = run ~tree ~requests:[ target ] in
  let arrow = Arrow.Protocol.run_one_shot ~tree ~requests:[ target ] () in
  check_valid "ring" ring;
  Alcotest.(check bool)
    (Printf.sprintf "ring (%d) > arrow (%d)" ring.total_delay arrow.total_delay)
    true
    (ring.total_delay > 2 * arrow.total_delay)

let prop_always_valid =
  QCheck2.Test.make ~name:"token ring yields a valid total order" ~count:100
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = Spanning.bfs g ~root:0 in
      let r = run ~tree ~requests in
      Result.is_ok r.order && List.length r.outcomes = List.length requests)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "order is visit order" `Quick test_order_is_visit_order;
    Alcotest.test_case "delay is first-visit time" `Quick
      test_delay_is_first_visit_time;
    Alcotest.test_case "all on list: triangular" `Quick
      test_all_on_list_matches_arrow_total;
    Alcotest.test_case "sparse requester pays full walk" `Quick
      test_sparse_requester_pays_full_walk;
    Helpers.qcheck prop_always_valid;
  ]
