(* Tests for the distributed counting-network embedding. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Network = Countq_counting.Network
module Bitonic = Countq_counting.Bitonic
module Counts = Countq_counting.Counts

let check_valid msg (r : Counts.run_result) =
  match r.valid with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg Counts.pp_error e)

let test_default_width () =
  Alcotest.(check int) "n=1" 2 (Network.default_width 1);
  Alcotest.(check int) "n=2" 2 (Network.default_width 2);
  Alcotest.(check int) "n=5" 4 (Network.default_width 5);
  Alcotest.(check int) "n=64" 64 (Network.default_width 64);
  Alcotest.(check int) "n=1000 capped" 64 (Network.default_width 1000)

let test_all_request_complete_graph () =
  let n = 32 in
  let r =
    Helpers.counted
      (Network.one_shot ~graph:(Gen.complete n) ~requests:(Helpers.all_nodes n) ())
  in
  check_valid "K32 all" r

let test_widths_sweep () =
  let n = 24 in
  let g = Gen.complete n in
  List.iter
    (fun width ->
      let r =
        Helpers.counted
          (Network.one_shot ~width ~graph:g ~requests:(Helpers.all_nodes n) ())
      in
      check_valid (Printf.sprintf "width %d" width) r)
    [ 1; 2; 4; 8; 16 ]

let test_on_sparse_topologies () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let r =
        Helpers.counted
          (Network.one_shot ~graph:g ~requests:(Helpers.all_nodes n) ())
      in
      check_valid name r)
    [
      ("path-20", Gen.path 20);
      ("mesh-5x5", Gen.square_mesh 5);
      ("star-16", Gen.star 16);
      ("tree", Gen.perfect_tree ~arity:2 ~height:3);
    ]

let test_subset_requests () =
  let g = Gen.square_mesh 6 in
  let r =
    Helpers.counted (Network.one_shot ~graph:g ~requests:[ 1; 5; 17; 30; 35 ] ())
  in
  check_valid "subset" r;
  Alcotest.(check int) "five outcomes" 5 (List.length r.outcomes)

let test_wider_network_cuts_contention () =
  (* More wires = less serialisation at the output counters: with
     enough requesters, w=16 beats w=1 (a central counter in disguise)
     despite its deeper pipeline. *)
  let n = 64 in
  let g = Gen.complete n in
  let requests = Helpers.all_nodes n in
  let narrow =
    Helpers.counted (Network.one_shot ~width:1 ~graph:g ~requests ())
  in
  let wide = Helpers.counted (Network.one_shot ~width:16 ~graph:g ~requests ()) in
  check_valid "narrow" narrow;
  check_valid "wide" wide;
  Alcotest.(check bool)
    (Printf.sprintf "wide (%d) < narrow (%d) total delay" wide.total_delay
       narrow.total_delay)
    true
    (wide.total_delay < narrow.total_delay)

let test_custom_placement () =
  (* Hosting everything on node 0 must still count correctly (it just
     serialises). *)
  let n = 12 in
  let g = Gen.complete n in
  let placement =
    { Network.balancer_host = (fun _ -> 0); output_host = (fun _ -> 0) }
  in
  let r =
    Helpers.counted
      (Network.one_shot ~width:4 ~placement ~graph:g ~requests:(Helpers.all_nodes n) ())
  in
  check_valid "all on node 0" r

let test_rejects_bad_requests () =
  Alcotest.check_raises "range"
    (Invalid_argument "Network.one_shot: request out of range") (fun () ->
      ignore (Helpers.counted
                (Network.one_shot ~graph:(Gen.path 3) ~requests:[ 9 ] ())))

let test_long_lived_counts_exact () =
  let g = Gen.complete 16 in
  let rng = Helpers.rng () in
  let arrivals =
    List.init 40 (fun i ->
        (Countq_util.Rng.below rng 16, i / 2 + Countq_util.Rng.below rng 3))
  in
  let r = Network.run_long_lived ~width:8 ~graph:g ~arrivals () in
  Alcotest.(check int) "all ops counted" 40 (List.length r.outcomes);
  Alcotest.(check bool) "counts exactly 1..m" true r.counts_exact;
  List.iter
    (fun (o : Counts.long_lived_outcome) ->
      Alcotest.(check bool) "delay non-negative" true (o.delay >= 0))
    r.outcomes

let test_long_lived_repeat_issuer () =
  let g = Gen.square_mesh 4 in
  let arrivals = [ (3, 0); (3, 0); (3, 5); (9, 2) ] in
  let r = Network.run_long_lived ~width:4 ~graph:g ~arrivals () in
  Alcotest.(check int) "four ops" 4 (List.length r.outcomes);
  Alcotest.(check bool) "counts exact" true r.counts_exact;
  let seqs =
    List.sort compare
      (List.filter_map
         (fun (o : Counts.long_lived_outcome) ->
           if o.node = 3 then Some o.seq else None)
         r.outcomes)
  in
  Alcotest.(check (list int)) "seq numbers" [ 0; 1; 2 ] seqs

let test_round_robin_placement_properties () =
  let net = Bitonic.create ~width:8 in
  let n = 10 in
  let p = Network.round_robin_placement ~net ~n ~seed:3L in
  for id = 0 to Bitonic.size net - 1 do
    let h = p.balancer_host id in
    Alcotest.(check bool) "host in range" true (h >= 0 && h < n)
  done;
  (* Each output wire is hosted with the balancer that feeds it, so the
     final hop is local. *)
  Array.iter
    (fun (b : Bitonic.balancer) ->
      let check_out = function
        | Bitonic.To_output w ->
            Alcotest.(check int) "output co-hosted" (p.balancer_host b.id)
              (p.output_host w)
        | Bitonic.To_balancer _ -> ()
      in
      check_out b.succ_top;
      check_out b.succ_bot)
    (Bitonic.balancers net)

let prop_long_lived_counts_exact =
  QCheck2.Test.make ~name:"long-lived network counts are exactly {1..m}"
    ~count:40
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (side, seed) ->
      let g = Gen.square_mesh side in
      let n = side * side in
      let rng = Countq_util.Rng.create (Int64.of_int seed) in
      let m = Countq_util.Rng.below rng 30 in
      let arrivals =
        List.init m (fun _ ->
            (Countq_util.Rng.below rng n, Countq_util.Rng.below rng 20))
      in
      let r = Network.run_long_lived ~width:4 ~graph:g ~arrivals () in
      r.counts_exact && List.length r.outcomes = m)

let prop_network_spec =
  QCheck2.Test.make ~name:"counting network meets the counting spec"
    ~count:80 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = Helpers.counted (Network.one_shot ~graph:g ~requests ()) in
      Result.is_ok r.valid)

let prop_network_spec_small_widths =
  QCheck2.Test.make ~name:"counting network valid for every width" ~count:50
    ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, requests) ->
      List.for_all
        (fun width ->
          let r =
            Helpers.counted (Network.one_shot ~width ~graph:g ~requests ())
          in
          Result.is_ok r.valid)
        [ 1; 2; 8 ])

let suite =
  [
    Alcotest.test_case "default width" `Quick test_default_width;
    Alcotest.test_case "K32 all request" `Quick test_all_request_complete_graph;
    Alcotest.test_case "width sweep" `Quick test_widths_sweep;
    Alcotest.test_case "sparse topologies" `Quick test_on_sparse_topologies;
    Alcotest.test_case "subset requests" `Quick test_subset_requests;
    Alcotest.test_case "width cuts contention" `Quick
      test_wider_network_cuts_contention;
    Alcotest.test_case "custom placement" `Quick test_custom_placement;
    Alcotest.test_case "bad requests" `Quick test_rejects_bad_requests;
    Alcotest.test_case "round-robin placement" `Quick
      test_round_robin_placement_properties;
    Alcotest.test_case "long-lived counts exact" `Quick
      test_long_lived_counts_exact;
    Alcotest.test_case "long-lived repeat issuer" `Quick
      test_long_lived_repeat_issuer;
    Helpers.qcheck prop_long_lived_counts_exact;
    Helpers.qcheck prop_network_spec;
    Helpers.qcheck prop_network_spec_small_widths;
  ]
