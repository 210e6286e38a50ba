(* Tests for distributed fetch-and-add. *)

module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module FA = Countq_counting.Fetch_add
module Rng = Countq_util.Rng

let check_valid msg (r : FA.run_result) =
  match r.valid with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg FA.pp_error e)

let path_tree n = Tree.of_graph (Gen.path n) ~root:0

(* ---- validator ---- *)

let o node increment before = { FA.node; increment; before; round = 0 }

let test_validate_good () =
  (* order 2 (v=5), 0 (v=3), 1 (v=0): prefixes 0, 5, 8. *)
  let requests = [ (0, 3); (1, 0); (2, 5) ] in
  let outcomes = [ o 0 3 5; o 1 0 8; o 2 5 0 ] in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (FA.validate ~requests outcomes))

let test_validate_zero_increments_share_prefix () =
  let requests = [ (0, 0); (1, 0); (2, 4) ] in
  let outcomes = [ o 0 0 0; o 1 0 0; o 2 4 0 ] in
  Alcotest.(check bool) "zeros may tie" true
    (Result.is_ok (FA.validate ~requests outcomes))

let test_validate_detects_gap () =
  let requests = [ (0, 2); (1, 2) ] in
  let outcomes = [ o 0 2 0; o 1 2 3 ] in
  (match FA.validate ~requests outcomes with
  | Error FA.Inconsistent_prefixes -> ()
  | _ -> Alcotest.fail "expected Inconsistent_prefixes")

let test_validate_detects_two_positives_tied () =
  let requests = [ (0, 2); (1, 3) ] in
  let outcomes = [ o 0 2 0; o 1 3 0 ] in
  (match FA.validate ~requests outcomes with
  | Error FA.Inconsistent_prefixes -> ()
  | _ -> Alcotest.fail "expected Inconsistent_prefixes")

let test_validate_wrong_increment () =
  let requests = [ (0, 2) ] in
  (match FA.validate ~requests [ o 0 3 0 ] with
  | Error (FA.Wrong_increment 0) -> ()
  | _ -> Alcotest.fail "expected Wrong_increment")

let test_validate_missing () =
  let requests = [ (0, 2); (5, 1) ] in
  (match FA.validate ~requests [ o 0 2 0 ] with
  | Error (FA.Missing_node 5) -> ()
  | _ -> Alcotest.fail "expected Missing_node")

(* ---- protocols ---- *)

let random_requests rng ~k ~n =
  List.map (fun v -> (v, Rng.below rng 10)) (Rng.sample rng ~k ~n)

let test_central_line () =
  let g = Gen.path 8 in
  let r = FA.run_central ~graph:g ~requests:[ (3, 7); (5, 2) ] () in
  check_valid "central" r;
  Alcotest.(check int) "two outcomes" 2 (List.length r.outcomes)

let test_combining_matches_counting_when_unit () =
  (* With all increments 1, [before] must be rank - 1 in the same DFS
     order the counting combining tree assigns. *)
  let g = Gen.perfect_tree ~arity:2 ~height:3 in
  let tree = Tree.of_graph g ~root:0 in
  let n = Tree.n tree in
  let requests = List.map (fun v -> (v, 1)) (Helpers.all_nodes n) in
  let fa = FA.run_combining ~tree ~requests () in
  check_valid "unit combining" fa;
  let counting =
    Helpers.counted
      (Countq_counting.Combining.one_shot ~tree ~requests:(Helpers.all_nodes n) ())
  in
  List.iter
    (fun (c : Countq_counting.Counts.outcome) ->
      let f = List.find (fun (x : FA.outcome) -> x.node = c.node) fa.outcomes in
      Alcotest.(check int)
        (Printf.sprintf "node %d prefix = rank - 1" c.node)
        (c.count - 1) f.before)
    counting.outcomes

let test_sweep_running_sum () =
  let tree = path_tree 6 in
  let requests = [ (0, 4); (2, 1); (5, 3) ] in
  let r = FA.run_sweep ~tree ~requests () in
  check_valid "sweep" r;
  let before_of v =
    (List.find (fun (x : FA.outcome) -> x.node = v) r.outcomes).before
  in
  Alcotest.(check int) "node 0 first" 0 (before_of 0);
  Alcotest.(check int) "node 2 after 0" 4 (before_of 2);
  Alcotest.(check int) "node 5 after 0,2" 5 (before_of 5)

let test_zero_increments_everywhere () =
  let tree = path_tree 5 in
  let requests = List.map (fun v -> (v, 0)) (Helpers.all_nodes 5) in
  List.iter
    (fun r -> check_valid "all zeros" r)
    [
      FA.run_sweep ~tree ~requests ();
      FA.run_combining ~tree ~requests ();
      FA.run_central ~graph:(Gen.path 5) ~requests ();
    ]

let test_empty_requests () =
  let tree = path_tree 4 in
  let r = FA.run_combining ~tree ~requests:[] () in
  check_valid "empty" r;
  Alcotest.(check int) "silent" 0 (List.length r.outcomes)

let test_delay_shape_matches_counting () =
  (* Fetch&add costs what counting costs under the same structure: the
     extra payload is free in the message-count model. *)
  let n = 64 in
  let g = Gen.star n in
  let fa =
    FA.run_central ~graph:g
      ~requests:(List.map (fun v -> (v, 2)) (Helpers.all_nodes n))
      ()
  in
  let c =
    Helpers.counted
      (Countq_counting.Central.one_shot ~graph:g ~requests:(Helpers.all_nodes n) ())
  in
  Alcotest.(check int) "same total delay" c.total_delay fa.total_delay

let test_rejects_negative_increment () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Fetch_add.run_central: negative increment") (fun () ->
      ignore (FA.run_central ~graph:(Gen.path 3) ~requests:[ (1, -2) ] ()))

let prop_all_protocols_valid =
  QCheck2.Test.make ~name:"fetch&add meets its spec on any instance"
    ~count:100 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, nodes) ->
      let rng = Rng.create 31L in
      let requests = List.map (fun v -> (v, Rng.below rng 6)) nodes in
      let tree = Spanning.bfs g ~root:0 in
      List.for_all
        (fun (r : FA.run_result) -> Result.is_ok r.valid)
        [
          FA.run_central ~graph:g ~requests ();
          FA.run_combining ~tree ~requests ();
          FA.run_sweep ~tree ~requests ();
        ])

let prop_total_sum_conserved =
  QCheck2.Test.make ~name:"max prefix + its increment = total sum" ~count:80
    ~print:Helpers.instance_print Helpers.nonempty_instance_gen
    (fun (_, g, nodes) ->
      let rng = Rng.create 77L in
      let requests = List.map (fun v -> (v, 1 + Rng.below rng 5)) nodes in
      let total = List.fold_left (fun acc (_, i) -> acc + i) 0 requests in
      let tree = Spanning.bfs g ~root:0 in
      let r = FA.run_combining ~tree ~requests () in
      match
        List.sort (fun (a : FA.outcome) b -> compare b.before a.before) r.outcomes
      with
      | last :: _ -> last.before + last.increment = total
      | [] -> false)

(* Counting is fetch-and-add with unit increments: the central and
   sweep runs equal the counting runs on the same structure, message
   for message, and every node's prefix is its rank minus one. *)
let prop_unit_increments_are_counting =
  QCheck2.Test.make ~name:"fetch-and-add with unit increments is counting"
    ~count:200 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, nodes) ->
      let requests = List.map (fun v -> (v, 1)) nodes in
      let tree = Spanning.bfs g ~root:0 in
      let same (fa : FA.run_result) (c : Countq_counting.Counts.run_result) =
        fa.rounds = c.rounds && fa.messages = c.messages
        && List.sort compare
             (List.map
                (fun (o : FA.outcome) -> (o.node, o.before + 1, o.round))
                fa.outcomes)
           = List.sort compare
               (List.map
                  (fun (o : Countq_counting.Counts.outcome) ->
                    (o.node, o.count, o.round))
                  c.outcomes)
      in
      same
        (FA.run_central ~graph:g ~requests ())
        (Helpers.counted
           (Countq_counting.Central.one_shot ~graph:g ~requests:nodes ()))
      && same
           (FA.run_sweep ~tree ~requests ())
           (Helpers.counted
              (Countq_counting.Sweep.one_shot ~tree ~requests:nodes ())))

let suite =
  [
    Alcotest.test_case "validate: good" `Quick test_validate_good;
    Alcotest.test_case "validate: zero ties" `Quick
      test_validate_zero_increments_share_prefix;
    Alcotest.test_case "validate: gap" `Quick test_validate_detects_gap;
    Alcotest.test_case "validate: tied positives" `Quick
      test_validate_detects_two_positives_tied;
    Alcotest.test_case "validate: wrong increment" `Quick
      test_validate_wrong_increment;
    Alcotest.test_case "validate: missing" `Quick test_validate_missing;
    Alcotest.test_case "central on a line" `Quick test_central_line;
    Alcotest.test_case "combining = counting at unit increments" `Quick
      test_combining_matches_counting_when_unit;
    Alcotest.test_case "sweep running sum" `Quick test_sweep_running_sum;
    Alcotest.test_case "all-zero increments" `Quick test_zero_increments_everywhere;
    Alcotest.test_case "empty requests" `Quick test_empty_requests;
    Alcotest.test_case "delay shape matches counting" `Quick
      test_delay_shape_matches_counting;
    Alcotest.test_case "negative increment rejected" `Quick
      test_rejects_negative_increment;
    Helpers.qcheck prop_all_protocols_valid;
    Helpers.qcheck prop_total_sum_conserved;
    Helpers.qcheck prop_unit_increments_are_counting;
  ]
