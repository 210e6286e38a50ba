(* Tests for Countq_topology.Bfs (distances, diameter, paths, parent
   trees) and the Hop_table routing rows built from them. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Bfs = Countq_topology.Bfs
module Hop_table = Countq_topology.Hop_table

let test_distances_path () =
  let g = Gen.path 6 in
  Alcotest.(check (array int)) "from 0" [| 0; 1; 2; 3; 4; 5 |] (Bfs.distances g 0);
  Alcotest.(check (array int)) "from 3" [| 3; 2; 1; 0; 1; 2 |] (Bfs.distances g 3)

let test_distances_disconnected () =
  let g = Graph.create ~n:4 [ (0, 1); (2, 3) ] in
  let d = Bfs.distances g 0 in
  Alcotest.(check int) "reachable" 1 d.(1);
  Alcotest.(check int) "unreachable" (-1) d.(2)

let test_distance_pair () =
  let g = Gen.square_mesh 4 in
  Alcotest.(check int) "corner to corner" 6 (Bfs.distance g 0 15)

let test_eccentricity () =
  let g = Gen.path 7 in
  Alcotest.(check int) "middle" 3 (Bfs.eccentricity g 3);
  Alcotest.(check int) "end" 6 (Bfs.eccentricity g 0)

let test_eccentricity_disconnected () =
  let g = Graph.create ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Bfs.eccentricity: disconnected graph") (fun () ->
      ignore (Bfs.eccentricity g 0))

let test_diameter_families () =
  Alcotest.(check int) "K7" 1 (Bfs.diameter (Gen.complete 7));
  Alcotest.(check int) "path 12" 11 (Bfs.diameter (Gen.path 12));
  Alcotest.(check int) "hypercube 5" 5 (Bfs.diameter (Gen.hypercube 5));
  Alcotest.(check int) "star 20" 2 (Bfs.diameter (Gen.star 20))

let test_diameter_estimate_on_trees_exact () =
  let rng = Helpers.rng () in
  for _ = 1 to 10 do
    let g = Gen.random_tree rng 60 in
    Alcotest.(check int) "double sweep exact on trees" (Bfs.diameter g)
      (Bfs.diameter_estimate g ~seed:1L ~rounds:1)
  done

let test_diameter_estimate_lower_bound () =
  let g = Gen.square_mesh 6 in
  let est = Bfs.diameter_estimate g ~seed:3L ~rounds:4 in
  Alcotest.(check bool) "estimate <= diameter" true (est <= Bfs.diameter g);
  Alcotest.(check bool) "estimate nontrivial" true (est >= 5)

let test_shortest_path () =
  let g = Gen.path 5 in
  Alcotest.(check (list int)) "path" [ 1; 2; 3 ] (Bfs.shortest_path g 1 3);
  Alcotest.(check (list int)) "self" [ 2 ] (Bfs.shortest_path g 2 2)

let test_shortest_path_length () =
  let g = Gen.square_mesh 5 in
  let p = Bfs.shortest_path g 0 24 in
  Alcotest.(check int) "length = dist + 1" (Bfs.distance g 0 24 + 1)
    (List.length p);
  (* consecutive vertices adjacent *)
  let rec adjacent = function
    | a :: (b :: _ as rest) -> Graph.has_edge g a b && adjacent rest
    | _ -> true
  in
  Alcotest.(check bool) "edges valid" true (adjacent p)

let test_shortest_path_unreachable () =
  let g = Graph.create ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "unreachable" Not_found (fun () ->
      ignore (Bfs.shortest_path g 0 3))

let test_parents () =
  let g = Gen.path 5 in
  let p = Bfs.parents g 2 in
  Alcotest.(check int) "root parent self" 2 p.(2);
  Alcotest.(check int) "left chain" 1 p.(0);
  Alcotest.(check int) "right chain" 3 p.(4)

let test_next_hop_table () =
  let g = Gen.square_mesh 3 in
  let t = Hop_table.create g in
  let n = Graph.n g in
  for v = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let hop = Hop_table.next t ~src:v ~dst in
      if v = dst then Alcotest.(check int) "self hop" v hop
      else begin
        Alcotest.(check bool) "hop adjacent" true (Graph.has_edge g v hop);
        Alcotest.(check int) "hop closer"
          (Bfs.distance g v dst - 1)
          (Bfs.distance g hop dst)
      end
    done
  done

let test_next_hop_table_disconnected () =
  (* The table accepts a disconnected graph: a vertex that cannot reach
     the destination is its own next hop, which Route.of_table and
     Implicit.next_hop turn into their errors. *)
  let g = Graph.create ~n:3 [ (0, 1) ] in
  let t = Hop_table.create g in
  Alcotest.(check int) "reachable" 0 (Hop_table.next t ~src:1 ~dst:0);
  Alcotest.(check int) "unreachable is a self hop" 2
    (Hop_table.next t ~src:2 ~dst:0);
  Alcotest.(check (array int)) "row is the BFS parent tree" (Bfs.parents g 2)
    (Hop_table.row t 2)

let prop_distance_symmetric =
  QCheck2.Test.make ~name:"BFS distance is symmetric" ~count:60
    ~print:Helpers.topology_print Helpers.topology_gen
    (fun (_, g) ->
      let n = Graph.n g in
      let u = 0 and v = n - 1 in
      Bfs.distance g u v = Bfs.distance g v u)

let prop_triangle_inequality =
  QCheck2.Test.make ~name:"BFS distance satisfies the triangle inequality"
    ~count:60 ~print:Helpers.topology_print Helpers.topology_gen
    (fun (_, g) ->
      let n = Graph.n g in
      let a = 0 and b = n / 2 and c = n - 1 in
      let d = Bfs.distance g in
      d a c <= d a b + d b c)

let suite =
  [
    Alcotest.test_case "distances on path" `Quick test_distances_path;
    Alcotest.test_case "distances disconnected" `Quick test_distances_disconnected;
    Alcotest.test_case "distance pair" `Quick test_distance_pair;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "eccentricity disconnected" `Quick
      test_eccentricity_disconnected;
    Alcotest.test_case "diameter families" `Quick test_diameter_families;
    Alcotest.test_case "diameter estimate exact on trees" `Quick
      test_diameter_estimate_on_trees_exact;
    Alcotest.test_case "diameter estimate lower bound" `Quick
      test_diameter_estimate_lower_bound;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "shortest path length" `Quick test_shortest_path_length;
    Alcotest.test_case "shortest path unreachable" `Quick
      test_shortest_path_unreachable;
    Alcotest.test_case "parents" `Quick test_parents;
    Alcotest.test_case "next-hop table" `Quick test_next_hop_table;
    Alcotest.test_case "next-hop table disconnected" `Quick
      test_next_hop_table_disconnected;
    Helpers.qcheck prop_distance_symmetric;
    Helpers.qcheck prop_triangle_inequality;
  ]
