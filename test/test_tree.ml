(* Tests for Countq_topology.Tree: construction, LCA, distance,
   next-hop, subtree structure. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Bfs = Countq_topology.Bfs
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning

(*      0
       / \
      1   2
     / \    \
    3   4    5
        |
        6          *)
let sample () =
  Tree.of_parents ~root:0 [| 0; 0; 0; 1; 1; 2; 4 |]

let test_basic_structure () =
  let t = sample () in
  Alcotest.(check int) "n" 7 (Tree.n t);
  Alcotest.(check int) "root" 0 (Tree.root t);
  Alcotest.(check int) "parent 6" 4 (Tree.parent t 6);
  Alcotest.(check int) "parent root" 0 (Tree.parent t 0);
  Alcotest.(check (array int)) "children 1" [| 3; 4 |] (Tree.children t 1);
  Alcotest.(check int) "height" 3 (Tree.height t)

let test_depths () =
  let t = sample () in
  Alcotest.(check int) "depth root" 0 (Tree.depth t 0);
  Alcotest.(check int) "depth 5" 2 (Tree.depth t 5);
  Alcotest.(check int) "depth 6" 3 (Tree.depth t 6)

let test_degree () =
  let t = sample () in
  Alcotest.(check int) "root degree" 2 (Tree.degree t 0);
  Alcotest.(check int) "node 1 degree" 3 (Tree.degree t 1);
  Alcotest.(check int) "leaf degree" 1 (Tree.degree t 3);
  Alcotest.(check int) "max degree" 3 (Tree.max_degree t)

let test_lca () =
  let t = sample () in
  Alcotest.(check int) "lca 3 6" 1 (Tree.lca t 3 6);
  Alcotest.(check int) "lca 3 5" 0 (Tree.lca t 3 5);
  Alcotest.(check int) "lca 4 6" 4 (Tree.lca t 4 6);
  Alcotest.(check int) "lca self" 5 (Tree.lca t 5 5)

let test_dist () =
  let t = sample () in
  Alcotest.(check int) "dist 3 6" 3 (Tree.dist t 3 6);
  Alcotest.(check int) "dist 6 5" 5 (Tree.dist t 6 5);
  Alcotest.(check int) "dist self" 0 (Tree.dist t 2 2)

let test_leaves () =
  let t = sample () in
  Alcotest.(check (list int)) "leaves" [ 3; 5; 6 ] (Tree.leaves t);
  Alcotest.(check bool) "is_leaf" true (Tree.is_leaf t 3);
  Alcotest.(check bool) "internal" false (Tree.is_leaf t 4)

let test_subtree_size () =
  let t = sample () in
  Alcotest.(check int) "whole" 7 (Tree.subtree_size t 0);
  Alcotest.(check int) "node 1" 4 (Tree.subtree_size t 1);
  Alcotest.(check int) "leaf" 1 (Tree.subtree_size t 5)

let test_dfs_order () =
  let t = sample () in
  Alcotest.(check (array int)) "preorder" [| 0; 1; 3; 4; 6; 2; 5 |]
    (Tree.dfs_order t)

let test_path () =
  let t = sample () in
  Alcotest.(check (list int)) "3 to 6" [ 3; 1; 4; 6 ] (Tree.path t 3 6);
  Alcotest.(check (list int)) "6 to 5" [ 6; 4; 1; 0; 2; 5 ] (Tree.path t 6 5);
  Alcotest.(check (list int)) "self" [ 2 ] (Tree.path t 2 2)

let test_next_hop () =
  let t = sample () in
  Alcotest.(check int) "up" 1 (Tree.next_hop t 3 5);
  Alcotest.(check int) "down into subtree" 1 (Tree.next_hop t 0 6);
  Alcotest.(check int) "down deeper" 4 (Tree.next_hop t 1 6);
  Alcotest.(check int) "self" 4 (Tree.next_hop t 4 4)

let test_to_graph_roundtrip () =
  let t = sample () in
  let g = Tree.to_graph t in
  Alcotest.(check int) "m" 6 (Graph.m g);
  let t' = Tree.of_graph g ~root:0 in
  Alcotest.(check (array int)) "same preorder" (Tree.dfs_order t)
    (Tree.dfs_order t')

let test_of_parents_validation () =
  Alcotest.check_raises "bad root"
    (Invalid_argument "Tree.of_parents: parent.(root) must be root") (fun () ->
      ignore (Tree.of_parents ~root:0 [| 1; 1 |]));
  Alcotest.check_raises "cycle"
    (Invalid_argument "Tree.of_parents: cycle in parent array") (fun () ->
      ignore (Tree.of_parents ~root:0 [| 0; 2; 1 |]));
  Alcotest.check_raises "second root"
    (Invalid_argument "Tree.of_parents: multiple roots") (fun () ->
      ignore (Tree.of_parents ~root:0 [| 0; 1; 0 |]))

let test_of_graph_not_tree () =
  Alcotest.check_raises "cycle graph"
    (Invalid_argument "Tree.of_graph: not a tree (m <> n-1)") (fun () ->
      ignore (Tree.of_graph (Gen.cycle 4) ~root:0))

let test_deep_list_tree () =
  (* Guard against stack overflows on degenerate deep trees. *)
  let n = 50_000 in
  let parent = Array.init n (fun v -> max 0 (v - 1)) in
  let t = Tree.of_parents ~root:0 parent in
  Alcotest.(check int) "height" (n - 1) (Tree.height t);
  Alcotest.(check int) "deep dist" (n - 1) (Tree.dist t 0 (n - 1));
  Alcotest.(check int) "deep lca" 0 (Tree.lca t 0 (n - 1));
  (* The same list rooted at its far end, so every parent chain runs
     the whole list: depths come from one walk down from the root. *)
  let t = Tree.of_parents ~root:(n - 1) (Array.init n (fun v -> min (n - 1) (v + 1))) in
  Alcotest.(check int) "reversed height" (n - 1) (Tree.height t);
  Alcotest.(check int) "reversed depth" (n - 1) (Tree.depth t 0)

let prop_dist_matches_bfs =
  QCheck2.Test.make ~name:"tree dist = BFS distance on the tree graph"
    ~count:60
    QCheck2.Gen.(pair (int_range 2 60) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let g =
        Gen.random_tree (Countq_util.Rng.create (Int64.of_int seed)) n
      in
      let t = Tree.of_graph g ~root:0 in
      let ok = ref true in
      let d0 = Bfs.distances g 0 in
      let dm = Bfs.distances g (n / 2) in
      for v = 0 to n - 1 do
        if Tree.dist t 0 v <> d0.(v) then ok := false;
        if Tree.dist t (n / 2) v <> dm.(v) then ok := false
      done;
      !ok)

let prop_next_hop_progress =
  QCheck2.Test.make ~name:"next_hop strictly decreases tree distance"
    ~count:60
    QCheck2.Gen.(pair (int_range 2 50) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let g =
        Gen.random_tree (Countq_util.Rng.create (Int64.of_int seed)) n
      in
      let t = Tree.of_graph g ~root:0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if v <> dst then begin
            let h = Tree.next_hop t v dst in
            if Tree.dist t h dst <> Tree.dist t v dst - 1 then ok := false
          end
        done
      done;
      !ok)

let prop_spanning_trees_span =
  QCheck2.Test.make ~name:"BFS/DFS spanning trees span with true distances"
    ~count:60 ~print:Helpers.topology_print Helpers.topology_gen
    (fun (_, g) ->
      let n = Graph.n g in
      let tb = Spanning.bfs g ~root:0 in
      let td = Spanning.dfs g ~root:0 in
      Tree.n tb = n && Tree.n td = n
      && (* BFS tree preserves root distances. *)
      Array.for_all2 ( = )
        (Array.init n (fun v -> Tree.depth tb v))
        (Bfs.distances g 0))

(* The LCA formula next_hop used to compute, kept as the oracle: up to
   the parent unless dst lies below v, else dst's ancestor one level
   below v. *)
let lca_next_hop t v dst =
  if v = dst then v
  else if Tree.lca t v dst <> v then Tree.parent t v
  else
    let rec climb x =
      if Tree.depth t x = Tree.depth t v + 1 then x else climb (Tree.parent t x)
    in
    climb dst

let prop_next_hop_is_lca_formula =
  QCheck2.Test.make ~name:"next_hop = the LCA formula, every pair, three roots"
    ~count:150 ~print:Helpers.topology_print Helpers.tree_gen (fun (_, g) ->
      let n = Graph.n g in
      let all = Helpers.all_nodes n in
      List.for_all
        (fun root ->
          let t = Tree.of_graph g ~root in
          List.for_all
            (fun v ->
              List.for_all (fun dst -> Tree.next_hop t v dst = lca_next_hop t v dst) all)
            all)
        (List.sort_uniq compare [ 0; n / 2; n - 1 ]))

let suite =
  [
    Alcotest.test_case "basic structure" `Quick test_basic_structure;
    Alcotest.test_case "depths" `Quick test_depths;
    Alcotest.test_case "degree" `Quick test_degree;
    Alcotest.test_case "lca" `Quick test_lca;
    Alcotest.test_case "dist" `Quick test_dist;
    Alcotest.test_case "leaves" `Quick test_leaves;
    Alcotest.test_case "subtree size" `Quick test_subtree_size;
    Alcotest.test_case "dfs order" `Quick test_dfs_order;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "next hop" `Quick test_next_hop;
    Alcotest.test_case "to_graph roundtrip" `Quick test_to_graph_roundtrip;
    Alcotest.test_case "of_parents validation" `Quick test_of_parents_validation;
    Alcotest.test_case "of_graph not tree" `Quick test_of_graph_not_tree;
    Alcotest.test_case "deep list tree" `Quick test_deep_list_tree;
    Helpers.qcheck prop_dist_matches_bfs;
    Helpers.qcheck prop_next_hop_progress;
    Helpers.qcheck prop_spanning_trees_span;
    Helpers.qcheck prop_next_hop_is_lca_formula;
  ]
