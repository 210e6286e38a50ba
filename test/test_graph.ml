(* Tests for Countq_topology.Graph: construction, validation,
   adjacency queries, connectivity. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen

let triangle () = Graph.create ~n:3 [ (0, 1); (1, 2); (2, 0) ]

let test_basic_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g)

let test_duplicate_edges_merged () =
  let g = Graph.create ~n:2 [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "m" 1 (Graph.m g);
  Alcotest.(check (array int)) "adjacency" [| 1 |] (Graph.neighbors g 0)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Graph.Invalid_edge (1, 1)) (fun () ->
      ignore (Graph.create ~n:3 [ (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Graph.Invalid_edge (0, 5)) (fun () ->
      ignore (Graph.create ~n:3 [ (0, 5) ]))

let test_empty_graph_rejected () =
  Alcotest.check_raises "n=0" (Invalid_argument "Graph.create: n must be >= 1")
    (fun () -> ignore (Graph.create ~n:0 []))

let test_single_vertex () =
  let g = Graph.create ~n:1 [] in
  Alcotest.(check int) "n" 1 (Graph.n g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_neighbors_sorted () =
  let g = Graph.create ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_degree () =
  let g = triangle () in
  Alcotest.(check int) "deg" 2 (Graph.degree g 0);
  Alcotest.(check int) "max deg" 2 (Graph.max_degree g)

let test_has_edge () =
  let g = Graph.create ~n:6 [ (0, 3); (3, 5); (1, 2) ] in
  Alcotest.(check bool) "(0,3)" true (Graph.has_edge g 0 3);
  Alcotest.(check bool) "(3,0)" true (Graph.has_edge g 3 0);
  Alcotest.(check bool) "(0,5)" false (Graph.has_edge g 0 5);
  Alcotest.(check bool) "(4,4)" false (Graph.has_edge g 4 4)

let test_edges_listing () =
  let g = Graph.create ~n:4 [ (2, 1); (0, 3); (1, 0) ] in
  Alcotest.(check (list (pair int int)))
    "edges normalised and sorted"
    [ (0, 1); (0, 3); (1, 2) ]
    (Graph.edges g)

let test_connectivity () =
  let connected = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let split = Graph.create ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "path connected" true (Graph.is_connected connected);
  Alcotest.(check bool) "two pieces" false (Graph.is_connected split)

let test_equal () =
  let a = Graph.create ~n:3 [ (0, 1); (1, 2) ] in
  let b = Graph.create ~n:3 [ (1, 2); (0, 1) ] in
  let c = Graph.create ~n:3 [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "same" true (Graph.equal a b);
  Alcotest.(check bool) "different" false (Graph.equal a c)

let test_of_adjacency_roundtrip () =
  let g = Graph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let adj = Array.init 5 (fun v -> Array.copy (Graph.neighbors g v)) in
  let g' = Graph.of_adjacency adj in
  Alcotest.(check bool) "roundtrip" true (Graph.equal g g')

let test_of_adjacency_asymmetric_rejected () =
  (* 0 lists 1 but 1 does not list 0. *)
  Alcotest.check_raises "asymmetry" (Graph.Invalid_edge (0, 1)) (fun () ->
      ignore (Graph.of_adjacency [| [| 1 |]; [||] |]))

let test_fold_vertices () =
  let g = triangle () in
  Alcotest.(check int) "sum ids" 3 (Graph.fold_vertices g ~init:0 ~f:( + ))

let test_iter_neighbors () =
  let g = triangle () in
  let acc = ref [] in
  Graph.iter_neighbors g 0 (fun v -> acc := v :: !acc);
  Alcotest.(check (list int)) "neighbours of 0" [ 2; 1 ] !acc

let prop_create_consistent =
  QCheck2.Test.make ~name:"create: m = sum deg / 2, neighbours symmetric"
    ~count:100
    ~print:Helpers.topology_print Helpers.topology_gen
    (fun (_, g) ->
      let n = Graph.n g in
      let sum_deg = ref 0 in
      let symmetric = ref true in
      for v = 0 to n - 1 do
        sum_deg := !sum_deg + Graph.degree g v;
        Graph.iter_neighbors g v (fun u ->
            if not (Graph.has_edge g u v) then symmetric := false)
      done;
      !symmetric && !sum_deg = 2 * Graph.m g)

(* The sort-based row normalisation [create] used before its bucket
   pass, kept as the oracle. *)
let sorted_dedup (a : int array) =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to k - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

(* Each vertex's arcs in list order, both orientations, repeats kept. *)
let raw_rows ~n edges =
  let rows = Array.make n [] in
  List.iter
    (fun (u, v) ->
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    edges;
  Array.map Array.of_list rows

(* Random edge lists on 1-40 vertices, then a prefix of them again
   with every other pair flipped, so duplicates come in both
   orientations. *)
let edges_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 40 in
  let* pairs =
    list_size (int_range 0 120) (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  let edges = List.filter (fun (u, v) -> u <> v) pairs in
  let* k = int_bound (List.length edges) in
  let again =
    List.filteri (fun i _ -> i < k) edges
    |> List.mapi (fun i (u, v) -> if i mod 2 = 0 then (v, u) else (u, v))
  in
  return (n, edges @ again)

let prop_create_matches_sort =
  QCheck2.Test.make ~name:"create and of_adjacency = the sort-based rows"
    ~count:300
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d %s" n
        (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
    edges_gen
    (fun (n, edges) ->
      let g = Graph.create ~n edges and raw = raw_rows ~n edges in
      let want = Array.map sorted_dedup raw in
      Array.init n (Graph.neighbors g) = want
      && 2 * Graph.m g = Array.fold_left (fun acc r -> acc + Array.length r) 0 want
      && Graph.equal (Graph.of_adjacency raw) g)

let test_complete_matches_create () =
  for n = 1 to 64 do
    let pairs = List.concat (List.init n (fun u -> List.init u (fun v -> (u, v)))) in
    if not (Graph.equal (Gen.complete n) (Graph.create ~n pairs)) then
      Alcotest.failf "Gen.complete %d differs from create over all pairs" n
  done

let test_of_adjacency_rejects () =
  let bad name (u, v) adj =
    Alcotest.check_raises name (Graph.Invalid_edge (u, v)) (fun () ->
        ignore (Graph.of_adjacency adj))
  in
  bad "self loop" (0, 0) [| [| 1; 0 |]; [| 0 |] |];
  bad "past n" (0, 2) [| [| 2 |]; [||] |];
  bad "negative" (1, -1) [| [||]; [| -1 |] |];
  bad "one way, unsorted with repeats" (0, 2) [| [| 2; 1; 1 |]; [| 0 |]; [||] |];
  bad "listed only by the higher end" (1, 0) [| [||]; [| 0 |] |]

(* A quadratic-per-arc symmetry check would take seconds here. *)
let test_of_adjacency_k1024 () =
  let k = Gen.complete 1024 in
  let g = Graph.of_adjacency (Array.init 1024 (fun v -> Array.copy (Graph.neighbors k v))) in
  Alcotest.(check int) "m" 523_776 (Graph.m g);
  Alcotest.(check bool) "same graph" true (Graph.equal k g)

let suite =
  [
    Alcotest.test_case "basic counts" `Quick test_basic_counts;
    Alcotest.test_case "duplicate edges merged" `Quick test_duplicate_edges_merged;
    Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
    Alcotest.test_case "empty graph rejected" `Quick test_empty_graph_rejected;
    Alcotest.test_case "single vertex" `Quick test_single_vertex;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "degree" `Quick test_degree;
    Alcotest.test_case "has_edge" `Quick test_has_edge;
    Alcotest.test_case "edges listing" `Quick test_edges_listing;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "of_adjacency roundtrip" `Quick test_of_adjacency_roundtrip;
    Alcotest.test_case "of_adjacency asymmetric" `Quick
      test_of_adjacency_asymmetric_rejected;
    Alcotest.test_case "fold vertices" `Quick test_fold_vertices;
    Alcotest.test_case "iter neighbors" `Quick test_iter_neighbors;
    Helpers.qcheck prop_create_consistent;
    Helpers.qcheck prop_create_matches_sort;
    Alcotest.test_case "complete = create over all pairs" `Quick
      test_complete_matches_create;
    Alcotest.test_case "of_adjacency rejects bad rows" `Quick
      test_of_adjacency_rejects;
    Alcotest.test_case "of_adjacency rebuilds K_1024" `Quick test_of_adjacency_k1024;
  ]
