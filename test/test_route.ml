(* Tests for Countq_simnet.Route: every scheme must step strictly
   toward the destination along real edges. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Bfs = Countq_topology.Bfs
module Tree = Countq_topology.Tree
module Implicit = Countq_topology.Implicit
module Route = Countq_simnet.Route
module Parallel = Countq_util.Parallel

let walk route g src dst =
  (* Follow next hops, checking edges, with a step budget. *)
  let rec go v steps acc =
    if v = dst then List.rev (v :: acc)
    else if steps > Graph.n g then Alcotest.fail "routing loop"
    else begin
      let h = Route.next_hop route v dst in
      if v <> h && not (Graph.has_edge g v h) then
        Alcotest.fail "hop not an edge";
      go h (steps + 1) (v :: acc)
    end
  in
  go src 0 []

let test_of_table_shortest () =
  let g = Gen.square_mesh 4 in
  let route = Route.of_table g in
  let n = Graph.n g in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let path = walk route g src dst in
      Alcotest.(check int) "shortest" (Bfs.distance g src dst)
        (List.length path - 1);
      (match Route.distance_hint route src dst with
      | Some d -> Alcotest.(check int) "hint" (Bfs.distance g src dst) d
      | None -> Alcotest.fail "table route should know distances")
    done
  done

let test_of_table_rejects_disconnected () =
  Alcotest.check_raises "disconnected at construction"
    (Invalid_argument "Route.of_table: disconnected graph") (fun () ->
      ignore (Route.of_table (Graph.create ~n:3 [ (0, 1) ])))

let test_implicit_unreachable () =
  (* The same rows serve Implicit.of_graph, which accepts a disconnected
     graph and reports an unreachable destination per query. *)
  let imp = Implicit.of_graph (Graph.create ~n:3 [ (0, 1) ]) in
  Alcotest.(check int) "reachable pair" 1 (Implicit.next_hop imp ~src:0 ~dst:1);
  for _ = 1 to 2 do
    Alcotest.check_raises "unreachable, built or cached row"
      (Invalid_argument "Implicit.next_hop: 2 unreachable from 0") (fun () ->
        ignore (Implicit.next_hop imp ~src:0 ~dst:2))
  done

(* Every route from the table is the BFS parent of the destination's
   tree: one edge, one hop closer, and the hint is the BFS distance.
   Implicit.of_graph reads the same rows. *)
let prop_table_is_bfs_parents =
  QCheck2.Test.make ~name:"table routes follow BFS parents" ~count:80
    ~print:Helpers.topology_print Helpers.topology_gen (fun (_, g) ->
      let route = Route.of_table g and imp = Implicit.of_graph g in
      let n = Graph.n g in
      List.for_all
        (fun dst ->
          let parent = Bfs.parents g dst and dist = Bfs.distances g dst in
          List.for_all
            (fun v ->
              let hop = Route.next_hop route v dst in
              hop = parent.(v)
              && Route.distance_hint route v dst = Some dist.(v)
              && (v = dst
                 || Graph.has_edge g v hop
                    && dist.(hop) = dist.(v) - 1
                    && Implicit.next_hop imp ~src:v ~dst = hop))
            (Helpers.all_nodes n))
        (Helpers.all_nodes n))

let test_of_tree_routes () =
  let g = Gen.perfect_tree ~arity:2 ~height:3 in
  let tree = Tree.of_graph g ~root:0 in
  let route = Route.of_tree tree in
  let n = Graph.n g in
  for src = 0 to n - 1 do
    let path = walk route g src (n - 1) in
    Alcotest.(check int) "tree path length"
      (Tree.dist tree src (n - 1))
      (List.length path - 1)
  done

let test_direct_complete () =
  let g = Gen.complete 8 in
  let route = Route.direct g in
  Alcotest.(check int) "one hop" 3 (Route.next_hop route 5 3);
  Alcotest.(check (option int)) "dist hint" (Some 1)
    (Route.distance_hint route 0 7);
  Alcotest.(check (option int)) "self dist" (Some 0)
    (Route.distance_hint route 4 4)

let test_direct_rejects_incomplete () =
  Alcotest.check_raises "path not complete"
    (Invalid_argument "Route.direct: graph is not complete") (fun () ->
      ignore (Route.direct (Gen.path 4)))

let test_auto_picks_direct () =
  let g = Gen.complete 10 in
  let route = Route.auto g in
  Alcotest.(check int) "direct next hop" 9 (Route.next_hop route 0 9)

let test_auto_picks_table () =
  (* Neither complete nor a tree: 0 reaches 4 the short way round. *)
  let g = Gen.cycle 10 in
  let route = Route.auto g in
  Alcotest.(check int) "multi-hop" 1 (Route.next_hop route 0 4)

(* On a tree there is one path between two nodes, so the tree route
   auto picks must give the table's every hop and hint. *)
let prop_auto_tree_is_table =
  QCheck2.Test.make ~name:"auto on a tree = table routes, every pair" ~count:150
    ~print:Helpers.topology_print Helpers.tree_gen (fun (_, g) ->
      let auto = Route.auto g and table = Route.of_table g in
      let all = Helpers.all_nodes (Graph.n g) in
      List.for_all
        (fun v ->
          List.for_all
            (fun dst ->
              Route.next_hop auto v dst = Route.next_hop table v dst
              && Route.distance_hint auto v dst = Route.distance_hint table v dst)
            all)
        all)

(* Routes are shared between domains: a fresh auto tree route, first
   used from two lanes at once, gives both the table's hops. *)
let test_auto_tree_first_use_two_lanes () =
  let g = Gen.caterpillar ~spine:40 ~legs:2 in
  let n = Graph.n g in
  let table = Route.of_table g in
  let hops route lane =
    Array.init n (fun i ->
        let v = (i + (lane * n / 2)) mod n in
        Array.init n (fun dst -> Route.next_hop route v dst))
  in
  let want = [ hops table 0; hops table 1 ] in
  let pool = Parallel.pool ~jobs:2 in
  for _ = 1 to 20 do
    let route = Route.auto g in
    if Parallel.pool_map pool (hops route) [ 0; 1 ] <> want then
      Alcotest.fail "a lane's hops differ from the table's"
  done

let test_of_fun () =
  (* Dimension-order routing on a 4x4 mesh: x first, then y. *)
  let s = 4 in
  let g = Gen.square_mesh s in
  let next v dst =
    if v = dst then v
    else begin
      let vx = v mod s and vy = v / s in
      let dx = dst mod s and dy = dst / s in
      if vx < dx then v + 1
      else if vx > dx then v - 1
      else if vy < dy then v + s
      else v - s
    end
  in
  let route = Route.of_fun next in
  for src = 0 to (s * s) - 1 do
    for dst = 0 to (s * s) - 1 do
      let path = walk route g src dst in
      Alcotest.(check int) "manhattan length" (Bfs.distance g src dst)
        (List.length path - 1)
    done
  done

let suite =
  [
    Alcotest.test_case "table routing is shortest" `Quick test_of_table_shortest;
    Alcotest.test_case "table rejects a disconnected graph" `Quick
      test_of_table_rejects_disconnected;
    Alcotest.test_case "implicit of_graph unreachable per query" `Quick
      test_implicit_unreachable;
    Helpers.qcheck prop_table_is_bfs_parents;
    Alcotest.test_case "tree routing" `Quick test_of_tree_routes;
    Alcotest.test_case "direct on complete" `Quick test_direct_complete;
    Alcotest.test_case "direct rejects incomplete" `Quick
      test_direct_rejects_incomplete;
    Alcotest.test_case "auto picks direct" `Quick test_auto_picks_direct;
    Alcotest.test_case "auto picks table" `Quick test_auto_picks_table;
    Alcotest.test_case "custom dimension-order routing" `Quick test_of_fun;
    Helpers.qcheck prop_auto_tree_is_table;
    Alcotest.test_case "auto tree route first used from two lanes" `Quick
      test_auto_tree_first_use_two_lanes;
  ]
