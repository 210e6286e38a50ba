(* Tests for the token-sweep counter. *)

module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Sweep = Countq_counting.Sweep
module Counts = Countq_counting.Counts
module Bounds = Countq_bounds

let check_valid msg (r : Counts.run_result) =
  match r.valid with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg Counts.pp_error e)

let path_tree n = Tree.of_graph (Gen.path n) ~root:0

let test_single_node () =
  let r =
    Helpers.counted (Sweep.one_shot ~tree:(path_tree 1) ~requests:[ 0 ] ())
  in
  check_valid "n=1" r;
  Alcotest.(check int) "zero delay" 0 r.total_delay

let test_list_all_is_triangular () =
  (* Node i gets the token at round i: total = n(n-1)/2, matching the
     Theorem 3.6 Omega(n^2) bound up to its constant. *)
  let n = 64 in
  let r =
    Helpers.counted
      (Sweep.one_shot ~tree:(path_tree n) ~requests:(Helpers.all_nodes n) ())
  in
  check_valid "list all" r;
  Alcotest.(check int) "triangular total" (n * (n - 1) / 2) r.total_delay;
  Alcotest.(check int) "makespan n-1" (n - 1) r.rounds

let test_list_tightness_vs_lower_bound () =
  (* Measured / Omega-bound stays a small constant: the diameter bound
     is tight on the list. *)
  let n = 256 in
  let r =
    Helpers.counted
      (Sweep.one_shot ~tree:(path_tree n) ~requests:(Helpers.all_nodes n) ())
  in
  let lb = Bounds.Lower.diameter_lb ~diameter:(n - 1) in
  let ratio = float_of_int r.total_delay /. float_of_int lb in
  Alcotest.(check bool)
    (Printf.sprintf "within constant of bound (%.2f)" ratio)
    true
    (ratio >= 1.0 && ratio < 4.5)

let test_ranks_follow_dfs_order () =
  let tree = Tree.of_graph (Gen.perfect_tree ~arity:2 ~height:3) ~root:0 in
  let n = Tree.n tree in
  let r =
    Helpers.counted (Sweep.one_shot ~tree ~requests:(Helpers.all_nodes n) ())
  in
  check_valid "pbt all" r;
  let order = Tree.dfs_order tree in
  let expected = Array.make n 0 in
  Array.iteri (fun i v -> expected.(v) <- i + 1) order;
  List.iter
    (fun (o : Counts.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "rank of %d" o.node)
        expected.(o.node) o.count)
    r.outcomes

let test_backtracking_charged () =
  (* On a star rooted at the centre the walk bounces back through the
     centre: leaf i (in child order) is first reached at round 2i+1. *)
  let tree = Tree.of_graph (Gen.star 4) ~root:0 in
  let r = Helpers.counted (Sweep.one_shot ~tree ~requests:[ 1; 2; 3 ] ()) in
  check_valid "star leaves" r;
  let round_of v =
    (List.find (fun (o : Counts.outcome) -> o.node = v) r.outcomes).round
  in
  Alcotest.(check int) "leaf 1" 1 (round_of 1);
  Alcotest.(check int) "leaf 2" 3 (round_of 2);
  Alcotest.(check int) "leaf 3" 5 (round_of 3)

let test_messages_bounded_by_tour () =
  let rng = Helpers.rng () in
  let g = Gen.random_tree rng 40 in
  let tree = Tree.of_graph g ~root:0 in
  let r = Helpers.counted (Sweep.one_shot ~tree ~requests:[ 39 ] ()) in
  check_valid "single far request" r;
  Alcotest.(check bool) "at most 2(n-1) messages" true (r.messages <= 2 * 39)

let test_empty_requests () =
  let r = Helpers.counted (Sweep.one_shot ~tree:(path_tree 8) ~requests:[] ()) in
  check_valid "empty" r;
  Alcotest.(check int) "no outcomes" 0 (List.length r.outcomes)

let prop_sweep_spec =
  QCheck2.Test.make ~name:"token sweep meets the counting spec" ~count:120
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = Spanning.bfs g ~root:0 in
      let r = Helpers.counted (Sweep.one_shot ~tree ~requests ()) in
      Result.is_ok r.valid)

let suite =
  [
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "list all: triangular total" `Quick
      test_list_all_is_triangular;
    Alcotest.test_case "tight vs diameter bound" `Quick
      test_list_tightness_vs_lower_bound;
    Alcotest.test_case "ranks follow DFS order" `Quick test_ranks_follow_dfs_order;
    Alcotest.test_case "backtracking charged" `Quick test_backtracking_charged;
    Alcotest.test_case "message bound" `Quick test_messages_bounded_by_tour;
    Alcotest.test_case "empty requests" `Quick test_empty_requests;
    Helpers.qcheck prop_sweep_spec;
  ]
