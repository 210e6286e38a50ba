(* Tests for the central and combining-tree counting protocols:
   specification compliance everywhere, and the delay shapes the paper
   predicts (serialisation at the root, DFS rank order, star
   quadratics). *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Central = Countq_counting.Central
module Combining = Countq_counting.Combining
module Diffracting = Countq_counting.Diffracting
module Counts = Countq_counting.Counts

let check_valid msg (r : Counts.run_result) =
  match r.valid with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg Counts.pp_error e)

(* ---- central counter ---- *)

let test_central_no_requests () =
  let r =
    Helpers.counted (Central.one_shot ~graph:(Gen.path 4) ~requests:[] ())
  in
  Alcotest.(check int) "no outcomes" 0 (List.length r.outcomes)

let test_central_root_requests_free () =
  let r =
    Helpers.counted (Central.one_shot ~graph:(Gen.path 4) ~requests:[ 0 ] ())
  in
  check_valid "root only" r;
  Alcotest.(check int) "zero delay" 0 r.total_delay

let test_central_counts_in_arrival_order () =
  (* On a star with round-robin arbitration, counts are assigned in
     arbitration order; the count set must be exactly 1..k anyway. *)
  let n = 8 in
  let r =
    Helpers.counted
      (Central.one_shot ~graph:(Gen.star n) ~requests:(Helpers.all_nodes n) ())
  in
  check_valid "star all" r;
  Alcotest.(check int) "k outcomes" n (List.length r.outcomes)

let test_central_star_quadratic () =
  (* Section 5: the star's total counting delay is Theta(n^2): requests
     serialise into the centre and replies serialise out. *)
  let total n =
    (Helpers.counted
       (Central.one_shot ~graph:(Gen.star n) ~requests:(Helpers.all_nodes n) ()))
      .total_delay
  in
  let t32 = total 32 and t64 = total 64 in
  let growth = float_of_int t64 /. float_of_int t32 in
  Alcotest.(check bool)
    (Printf.sprintf "quadratic growth (x%.2f)" growth)
    true
    (growth > 3.0 && growth < 5.0)

let test_central_path_delay_includes_distance () =
  (* A single request at the far end of a path pays 2 * distance. *)
  let n = 10 in
  let r =
    Helpers.counted (Central.one_shot ~graph:(Gen.path n) ~requests:[ n - 1 ] ())
  in
  check_valid "far request" r;
  Alcotest.(check int) "2(n-1)" (2 * (n - 1)) r.total_delay

let test_central_custom_root () =
  let n = 10 in
  let r =
    Helpers.counted
      (Central.one_shot ~root:(n - 1) ~graph:(Gen.path n) ~requests:[ n - 1 ] ())
  in
  check_valid "custom root" r;
  Alcotest.(check int) "local" 0 r.total_delay

let test_central_rejects_bad_requests () =
  Alcotest.check_raises "range"
    (Invalid_argument "Central.one_shot: request out of range") (fun () ->
      ignore (Helpers.counted
                (Central.one_shot ~graph:(Gen.path 3) ~requests:[ 5 ] ())));
  Alcotest.check_raises "dup"
    (Invalid_argument "Central.one_shot: duplicate request node") (fun () ->
      ignore (Helpers.counted
                (Central.one_shot ~graph:(Gen.path 3) ~requests:[ 1; 1 ] ())))

(* ---- combining tree ---- *)

let combining_on g requests =
  Helpers.counted (Combining.one_shot ~tree:(Spanning.bfs g ~root:0) ~requests ())

let test_combining_ranks_are_dfs_order () =
  (* On a rooted path 0-1-2-3 with everyone requesting, DFS order is
     0,1,2,3, so ranks must be 1,2,3,4 in node order. *)
  let g = Gen.path 4 in
  let r = combining_on g (Helpers.all_nodes 4) in
  check_valid "path all" r;
  List.iter
    (fun (o : Counts.outcome) ->
      Alcotest.(check int) "rank = node + 1" (o.node + 1) o.count)
    r.outcomes

let test_combining_subset () =
  let g = Gen.perfect_tree ~arity:2 ~height:3 in
  let r = combining_on g [ 14; 3; 7 ] in
  check_valid "subset" r;
  Alcotest.(check int) "three outcomes" 3 (List.length r.outcomes)

let test_combining_empty () =
  let r = combining_on (Gen.perfect_tree ~arity:2 ~height:2) [] in
  Alcotest.(check int) "silent" 0 (List.length r.outcomes);
  Alcotest.(check int) "no messages besides reports" r.messages r.messages;
  check_valid "empty" r

let test_combining_root_only () =
  let r = combining_on (Gen.path 5) [ 0 ] in
  check_valid "root only" r;
  (* The root still needs its child's (empty) report before it can
     assign rank 1 to itself: delay equals the upsweep time. *)
  match r.outcomes with
  | [ o ] -> Alcotest.(check int) "rank 1" 1 o.count
  | _ -> Alcotest.fail "one outcome"

let test_combining_deep_path_linear_delay () =
  (* On a path rooted at one end the upsweep travels n-1 hops, so even
     one request at the root has delay ~ n. *)
  let n = 20 in
  let r = combining_on (Gen.path n) [ 0 ] in
  check_valid "deep path" r;
  Alcotest.(check bool) "delay >= n-1" true (r.max_delay >= n - 1)

let test_combining_expansion_recorded () =
  let g = Gen.star 8 in
  let r = combining_on g (Helpers.all_nodes 8) in
  check_valid "star combining" r;
  Alcotest.(check int) "expansion = tree degree" 7 r.expansion

(* ---- diffracting tree ---- *)

let diffracting_on g requests =
  Helpers.counted (Diffracting.one_shot ~tree:(Spanning.bfs g ~root:0) ~requests ())

let test_diffracting_balanced_tree_all () =
  (* Every node of a perfect binary tree requests: the toggles spread
     the 15 tokens across all 8 leaves, and the count set is still
     exactly {1..15}. *)
  let g = Gen.perfect_tree ~arity:2 ~height:3 in
  let r = diffracting_on g (Helpers.all_nodes 15) in
  check_valid "perfect tree all" r;
  Alcotest.(check int) "15 outcomes" 15 (List.length r.outcomes)

let test_diffracting_empty () =
  let r = diffracting_on (Gen.perfect_tree ~arity:2 ~height:2) [] in
  check_valid "empty" r;
  Alcotest.(check int) "silent" 0 (List.length r.outcomes);
  Alcotest.(check int) "no messages" 0 r.messages

let test_diffracting_root_only () =
  (* The root's token descends and returns without touching the upsweep
     path: rank 1, and no waiting for empty sibling reports (contrast
     with the combining tree's root-only case). *)
  let r = diffracting_on (Gen.path 5) [ 0 ] in
  check_valid "root only" r;
  match r.outcomes with
  | [ o ] -> Alcotest.(check int) "rank 1" 1 o.count
  | _ -> Alcotest.fail "one outcome"

let test_diffracting_star_toggle_order () =
  (* On a star rooted at the centre, the root balancer is the only
     interior node: leaves are visited round-robin by the toggle, so
     with every node requesting, counts are exactly {1..n}. *)
  let n = 8 in
  let r = diffracting_on (Gen.star n) (Helpers.all_nodes n) in
  check_valid "star all" r;
  Alcotest.(check int) "n outcomes" n (List.length r.outcomes)

let test_diffracting_rejects_bad_requests () =
  Alcotest.check_raises "range"
    (Invalid_argument "Diffracting.one_shot: request out of range") (fun () ->
      ignore (diffracting_on (Gen.path 3) [ 5 ]));
  Alcotest.check_raises "dup"
    (Invalid_argument "Diffracting.one_shot: duplicate request node") (fun () ->
      ignore (diffracting_on (Gen.path 3) [ 1; 1 ]))

let prop_diffracting_spec =
  QCheck2.Test.make ~name:"diffracting tree meets the counting spec"
    ~count:120 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = diffracting_on g requests in
      Result.is_ok r.valid)

let prop_diffracting_async_spec =
  (* Toggle routing depends only on per-balancer arrival order, so the
     count set stays exact under arbitrary link delays. *)
  QCheck2.Test.make ~name:"diffracting tree is exact under async delays"
    ~count:80
    ~print:QCheck2.Print.(pair Helpers.instance_print int)
    QCheck2.Gen.(pair Helpers.instance_gen (int_range 0 1_000_000))
    (fun ((_, g, requests), seed) ->
      let tree = Spanning.bfs g ~root:0 in
      let delay =
        Countq_simnet.Async.Uniform { min = 1; max = 4; seed = Int64.of_int seed }
      in
      Result.is_ok
        (Counts.of_engine ~requests
           (Countq_simnet.Oneshot.async ~delay
              (Diffracting.one_shot ~tree ~requests ())))
          .valid)

(* ---- combining funnel ---- *)

module Funnel = Countq_counting.Funnel
module Implicit = Countq_topology.Implicit

let funnel_on g requests =
  Helpers.counted (Funnel.one_shot ~tree:(Spanning.bfs g ~root:0) ~requests ())

let test_funnel_path_all () =
  (* On a path rooted at 0, each node's batch is [own; child's block],
     so decombination hands out counts in node order. *)
  let r = funnel_on (Gen.path 4) (Helpers.all_nodes 4) in
  check_valid "path all" r;
  List.iter
    (fun (o : Counts.outcome) ->
      Alcotest.(check int) "rank = node + 1" (o.node + 1) o.count)
    r.outcomes

let test_funnel_empty () =
  let r = funnel_on (Gen.perfect_tree ~arity:2 ~height:2) [] in
  check_valid "empty" r;
  Alcotest.(check int) "silent" 0 (List.length r.outcomes);
  Alcotest.(check int) "no messages" 0 r.messages

let test_funnel_root_only () =
  (* The combining window is the on-path closure, not the tree: a sole
     requesting root waits for nobody (contrast with the combining
     tree, whose root must hear every child's empty report). *)
  let r = funnel_on (Gen.path 5) [ 0 ] in
  check_valid "root only" r;
  Alcotest.(check int) "free" 0 r.total_delay;
  match r.outcomes with
  | [ o ] -> Alcotest.(check int) "rank 1" 1 o.count
  | _ -> Alcotest.fail "one outcome"

let test_funnel_rejects_bad_requests () =
  Alcotest.check_raises "range"
    (Invalid_argument "Funnel.one_shot: request out of range") (fun () ->
      ignore (funnel_on (Gen.path 3) [ 5 ]));
  Alcotest.check_raises "dup"
    (Invalid_argument "Funnel.one_shot: duplicate request node") (fun () ->
      ignore (funnel_on (Gen.path 3) [ 1; 1 ]))

let test_funnel_adaptive_width () =
  Alcotest.(check int) "solo -> narrow" 2
    (Funnel.adaptive_width ~n:1000 ~concurrency:1);
  Alcotest.(check int) "sqrt regime" 11
    (Funnel.adaptive_width ~n:1000 ~concurrency:100);
  Alcotest.(check int) "ceiling" 64
    (Funnel.adaptive_width ~n:1_000_000 ~concurrency:1_000_000);
  Alcotest.(check int) "tiny tree clamp" 2
    (Funnel.adaptive_width ~n:3 ~concurrency:10_000)

let test_funnel_implicit_matches_materialised () =
  (* The index-arithmetic route and the materialised tree are the same
     tree, so the runs agree outcome for outcome. *)
  let topo = Implicit.tree ~arity:3 40 in
  let tree = Tree.of_graph (Implicit.materialise topo) ~root:0 in
  let requests = [ 0; 5; 13; 14; 22; 39 ] in
  let a = Helpers.counted (Funnel.one_shot ~tree ~requests ()) in
  let b = Funnel.run_implicit ~topo ~requests () in
  check_valid "materialised" a;
  check_valid "implicit" b;
  Alcotest.(check bool) "same outcomes" true (a.outcomes = b.outcomes);
  Alcotest.(check int) "same rounds" a.rounds b.rounds;
  Alcotest.(check int) "same messages" a.messages b.messages

let prop_funnel_spec =
  QCheck2.Test.make ~name:"combining funnel meets the counting spec"
    ~count:120 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = funnel_on g requests in
      Result.is_ok r.valid)

let prop_funnel_pins_central =
  (* The funnel and the central counter implement the same one-shot
     specification: the same requesters complete, and each hands out
     the count set {1..|R|} exactly (assignment order legitimately
     differs — batches vs arbitration). *)
  QCheck2.Test.make ~name:"funnel completes the same set as central"
    ~count:120 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let f = funnel_on g requests in
      let c = Helpers.counted (Central.one_shot ~graph:g ~requests ()) in
      let nodes (r : Counts.run_result) =
        List.sort compare (List.map (fun (o : Counts.outcome) -> o.node) r.outcomes)
      in
      Result.is_ok f.valid && Result.is_ok c.valid && nodes f = nodes c)

let prop_funnel_message_frugal =
  (* Two messages per closure edge: one combined Up, one Down. *)
  QCheck2.Test.make ~name:"funnel uses <= 2(n-1) messages" ~count:100
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = funnel_on g requests in
      r.messages <= 2 * (Graph.n g - 1))

let prop_funnel_async_spec =
  QCheck2.Test.make ~name:"funnel is exact under async delays" ~count:80
    ~print:QCheck2.Print.(pair Helpers.instance_print int)
    QCheck2.Gen.(pair Helpers.instance_gen (int_range 0 1_000_000))
    (fun ((_, g, requests), seed) ->
      let tree = Spanning.bfs g ~root:0 in
      let delay =
        Countq_simnet.Async.Uniform { min = 1; max = 4; seed = Int64.of_int seed }
      in
      Result.is_ok
        (Counts.of_engine ~requests
           (Countq_simnet.Oneshot.async ~delay (Funnel.one_shot ~tree ~requests ())))
          .valid)

let test_central_long_lived () =
  let g = Gen.square_mesh 4 in
  let arrivals = [ (3, 0); (3, 0); (9, 2); (14, 5); (3, 5) ] in
  let r = Central.run_long_lived ~graph:g ~arrivals () in
  Alcotest.(check int) "five ops" 5 (List.length r.outcomes);
  Alcotest.(check bool) "counts exact" true r.counts_exact;
  List.iter
    (fun (o : Counts.long_lived_outcome) ->
      Alcotest.(check bool) "delay non-negative" true (o.delay >= 0))
    r.outcomes

let prop_central_long_lived_counts_exact =
  QCheck2.Test.make ~name:"long-lived central counter ranks are {1..m}"
    ~count:40
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (side, seed) ->
      let g = Gen.square_mesh side in
      let n = side * side in
      let rng = Countq_util.Rng.create (Int64.of_int seed) in
      let m = Countq_util.Rng.below rng 25 in
      let arrivals =
        List.init m (fun _ ->
            (Countq_util.Rng.below rng n, Countq_util.Rng.below rng 15))
      in
      let r = Central.run_long_lived ~graph:g ~arrivals () in
      r.counts_exact && List.length r.outcomes = m)

let prop_central_spec =
  QCheck2.Test.make ~name:"central counter meets the counting spec" ~count:120
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = Helpers.counted (Central.one_shot ~graph:g ~requests ()) in
      Result.is_ok r.valid)

let prop_combining_spec =
  QCheck2.Test.make ~name:"combining tree meets the counting spec" ~count:120
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = combining_on g requests in
      Result.is_ok r.valid)

let prop_combining_message_frugal =
  (* The combining tree sends at most 2 messages per tree edge
     (one report up, at most one range down). *)
  QCheck2.Test.make ~name:"combining tree uses <= 2(n-1) messages" ~count:100
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = combining_on g requests in
      r.messages <= 2 * (Graph.n g - 1))

let suite =
  [
    Alcotest.test_case "central: no requests" `Quick test_central_no_requests;
    Alcotest.test_case "central: root request free" `Quick
      test_central_root_requests_free;
    Alcotest.test_case "central: arrival order" `Quick
      test_central_counts_in_arrival_order;
    Alcotest.test_case "central: star quadratic" `Quick test_central_star_quadratic;
    Alcotest.test_case "central: distance charged" `Quick
      test_central_path_delay_includes_distance;
    Alcotest.test_case "central: custom root" `Quick test_central_custom_root;
    Alcotest.test_case "central: bad requests" `Quick
      test_central_rejects_bad_requests;
    Alcotest.test_case "central: long-lived" `Quick test_central_long_lived;
    Alcotest.test_case "combining: DFS ranks" `Quick
      test_combining_ranks_are_dfs_order;
    Alcotest.test_case "combining: subset" `Quick test_combining_subset;
    Alcotest.test_case "combining: empty" `Quick test_combining_empty;
    Alcotest.test_case "combining: root only" `Quick test_combining_root_only;
    Alcotest.test_case "combining: deep path" `Quick
      test_combining_deep_path_linear_delay;
    Alcotest.test_case "combining: expansion" `Quick
      test_combining_expansion_recorded;
    Alcotest.test_case "diffracting: balanced tree" `Quick
      test_diffracting_balanced_tree_all;
    Alcotest.test_case "diffracting: empty" `Quick test_diffracting_empty;
    Alcotest.test_case "diffracting: root only" `Quick
      test_diffracting_root_only;
    Alcotest.test_case "diffracting: star toggles" `Quick
      test_diffracting_star_toggle_order;
    Alcotest.test_case "diffracting: bad requests" `Quick
      test_diffracting_rejects_bad_requests;
    Alcotest.test_case "funnel: path ranks" `Quick test_funnel_path_all;
    Alcotest.test_case "funnel: empty" `Quick test_funnel_empty;
    Alcotest.test_case "funnel: root only" `Quick test_funnel_root_only;
    Alcotest.test_case "funnel: bad requests" `Quick
      test_funnel_rejects_bad_requests;
    Alcotest.test_case "funnel: adaptive width" `Quick
      test_funnel_adaptive_width;
    Alcotest.test_case "funnel: implicit = materialised" `Quick
      test_funnel_implicit_matches_materialised;
    Helpers.qcheck prop_central_spec;
    Helpers.qcheck prop_central_long_lived_counts_exact;
    Helpers.qcheck prop_combining_spec;
    Helpers.qcheck prop_combining_message_frugal;
    Helpers.qcheck prop_diffracting_spec;
    Helpers.qcheck prop_diffracting_async_spec;
    Helpers.qcheck prop_funnel_spec;
    Helpers.qcheck prop_funnel_pins_central;
    Helpers.qcheck prop_funnel_message_frugal;
    Helpers.qcheck prop_funnel_async_spec;
  ]
