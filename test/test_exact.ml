(* Tests for the Held-Karp exact TSP path solver and the NN ratio. *)

module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Nn = Countq_tsp.Nn
module Exact = Countq_tsp.Exact
module Tbounds = Countq_tsp.Tbounds

let test_empty () =
  Alcotest.(check int) "empty costs 0" 0
    (Exact.min_path ~dist:(fun _ _ -> 1) ~start:0 ~requests:[])

let test_single () =
  let dist u v = abs (u - v) in
  Alcotest.(check int) "single = distance" 7
    (Exact.min_path ~dist ~start:3 ~requests:[ 10 ])

let test_line_is_one_sweep () =
  (* From an endpoint the optimum visits in order. *)
  let dist u v = abs (u - v) in
  Alcotest.(check int) "sweep" 9
    (Exact.min_path ~dist ~start:0 ~requests:[ 2; 9; 5; 7 ])

let test_line_from_middle () =
  (* start 5, requests 3 and 9: best is 2 + 6 = 8 (left first). *)
  let dist u v = abs (u - v) in
  Alcotest.(check int) "middle" 8
    (Exact.min_path ~dist ~start:5 ~requests:[ 3; 9 ])

let test_too_many_requests () =
  Alcotest.check_raises "23 requests"
    (Invalid_argument "Exact.min_path: too many requests (> 22)") (fun () ->
      ignore
        (Exact.min_path
           ~dist:(fun _ _ -> 1)
           ~start:0
           ~requests:(List.init 23 (fun i -> i))))

let test_tree_and_graph_agree () =
  let rng = Helpers.rng () in
  for _ = 1 to 5 do
    let g = Gen.random_tree rng 20 in
    let tree = Tree.of_graph g ~root:0 in
    let requests = Countq_util.Rng.sample rng ~k:8 ~n:20 in
    Alcotest.(check int) "same optimum"
      (Exact.min_path_on_tree tree ~start:0 ~requests)
      (Exact.min_path_on_graph g ~start:0 ~requests)
  done

let test_nn_never_beats_optimal () =
  let rng = Helpers.rng () in
  for _ = 1 to 20 do
    let n = 15 + Countq_util.Rng.below rng 15 in
    let g = Gen.random_tree rng n in
    let tree = Tree.of_graph g ~root:0 in
    let k = 3 + Countq_util.Rng.below rng 8 in
    let requests = Countq_util.Rng.sample rng ~k ~n in
    let nn = (Nn.on_tree tree ~start:0 ~requests).cost in
    let opt = Exact.min_path_on_tree tree ~start:0 ~requests in
    Alcotest.(check bool) "nn >= opt" true (nn >= opt)
  done

let test_nn_ratio_bounds () =
  let dist u v = abs (u - v) in
  let r = Exact.nn_ratio ~dist ~start:0 ~requests:[ 5; 2; 9 ] in
  Alcotest.(check bool) "ratio >= 1" true (r >= 1.0)

(* One instance of the property's generator: NN and optimal open-path
   costs from node 0 on a random [n]-node tree, and the request count. *)
let nn_vs_opt ~n ~seed =
  let rng = Countq_util.Rng.create (Int64.of_int seed) in
  let g = Gen.random_tree rng n in
  let tree = Tree.of_graph g ~root:0 in
  let k = min 10 (1 + Countq_util.Rng.below rng n) in
  let requests = Countq_util.Rng.sample rng ~k ~n in
  let nn = (Nn.on_tree tree ~start:0 ~requests).cost in
  (nn, Exact.min_path_on_tree tree ~start:0 ~requests, k)

(* An NN tour here is an open path from node 0, so the bound is the
   open-path form of Rosenkrantz-Stearns-Lewis (Tbounds.nn_path_ratio). *)
let prop_rosenkrantz_guarantee =
  QCheck2.Test.make
    ~name:"NN tours respect the Rosenkrantz log k guarantee on trees"
    ~count:60
    QCheck2.Gen.(pair (int_range 8 30) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let nn, opt, k = nn_vs_opt ~n ~seed in
      opt = 0
      || float_of_int nn /. float_of_int opt
         <= Tbounds.nn_path_ratio k +. 1e-9)

let test_tour_bound_fails_on_paths () =
  (* The counterexample that retired the tour factor for paths. *)
  let nn, opt, k = nn_vs_opt ~n:8 ~seed:2720 in
  Alcotest.(check (list int)) "k, NN, OPT" [ 4; 11; 7 ] [ k; nn; opt ];
  let r = float_of_int nn /. float_of_int opt in
  Alcotest.(check bool) "above the tour factor" true
    (r > Tbounds.rosenkrantz_ratio k);
  Alcotest.(check bool) "within the path factor" true
    (r <= Tbounds.nn_path_ratio k)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "single" `Quick test_single;
    Alcotest.test_case "line sweep" `Quick test_line_is_one_sweep;
    Alcotest.test_case "line from middle" `Quick test_line_from_middle;
    Alcotest.test_case "too many requests" `Quick test_too_many_requests;
    Alcotest.test_case "tree and graph agree" `Quick test_tree_and_graph_agree;
    Alcotest.test_case "nn >= optimal" `Quick test_nn_never_beats_optimal;
    Alcotest.test_case "nn ratio" `Quick test_nn_ratio_bounds;
    Helpers.qcheck prop_rosenkrantz_guarantee;
    Alcotest.test_case "tour factor fails on paths (n=8, seed 2720)" `Quick
      test_tour_bound_fails_on_paths;
  ]
