(* Cross-module integration tests: chains of guarantees that span
   several libraries, engine edge cases, and determinism. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Async = Countq_simnet.Async
module Route = Countq_simnet.Route
module Arrow = Countq_arrow
module Counting = Countq_counting
module Tsp = Countq_tsp
module Rng = Countq_util.Rng

(* ---- the full Theorem 4.1 / Rosenkrantz chain on one instance ---- *)

let test_bound_chain () =
  (* arrow <= 2 NN-TSP <= 2 * guarantee * OPT, end to end. *)
  let rng = Helpers.rng () in
  for _ = 1 to 10 do
    let g = Gen.random_binary_tree rng 40 in
    let tree = Tree.of_graph g ~root:0 in
    let requests = Rng.sample rng ~k:10 ~n:40 in
    let arrow = Arrow.Protocol.run_one_shot ~tree ~requests () in
    let nn = Tsp.Nn.on_tree tree ~start:0 ~requests in
    let opt = Tsp.Exact.min_path_on_tree tree ~start:0 ~requests in
    let guarantee = Tsp.Tbounds.nn_path_ratio 10 in
    Alcotest.(check bool) "arrow <= 2 NN" true (arrow.total_delay <= 2 * nn.cost);
    Alcotest.(check bool) "NN <= guarantee * OPT" true
      (float_of_int nn.cost <= (guarantee *. float_of_int opt) +. 1e-9)
  done

(* ---- every counting protocol agrees on validity, not on order ---- *)

let test_counting_portfolio_cross_validation () =
  let g = Gen.square_mesh 5 in
  let requests = [ 2; 7; 11; 13; 21; 24 ] in
  let tree = Spanning.bfs g ~root:0 in
  let runs =
    [
      ("central", Counting.Central.run ~graph:g ~requests ());
      ("combining", Counting.Combining.run ~tree ~requests ());
      ("network", Counting.Network.run ~graph:g ~requests ());
      ("sweep", Counting.Sweep.run ~tree ~requests ());
    ]
  in
  List.iter
    (fun (name, (r : Counting.Counts.run_result)) ->
      Alcotest.(check bool) (name ^ " valid") true (Result.is_ok r.valid);
      Alcotest.(check int) (name ^ " six outcomes") 6 (List.length r.outcomes))
    runs

(* ---- engine edge cases ---- *)

let test_engine_invalid_capacity () =
  let protocol =
    {
      Engine.name = "noop";
      initial_state = (fun _ -> ());
      on_start = (fun ~node:_ s -> (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_tick = Engine.no_tick;
    }
  in
  let config = { Engine.default_config with receive_capacity = 0 } in
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Engine.run: capacities must be >= 1") (fun () ->
      ignore (Engine.run ~graph:(Gen.path 2) ~config ~protocol ()))

let test_engine_min_rounds_keeps_ticking () =
  (* With min_rounds = 5 and nothing in flight, ticks still fire for
     rounds 1..5. *)
  let seen = ref [] in
  let protocol =
    {
      Engine.name = "tick-count";
      initial_state = (fun _ -> ());
      on_start = (fun ~node:_ s -> (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_tick =
        Some
          (fun ~round ~node s ->
            if node = 0 then seen := round :: !seen;
            (s, []));
    }
  in
  let config = { Engine.default_config with min_rounds = 5 } in
  ignore (Engine.run ~graph:(Gen.path 2) ~config ~protocol ());
  Alcotest.(check (list int)) "rounds ticked" [ 1; 2; 3; 4; 5 ]
    (List.rev !seen)

let test_engine_deterministic () =
  let g = Gen.square_mesh 5 in
  let tree = Spanning.best_for_arrow g in
  let requests = Helpers.all_nodes 25 in
  let a = Arrow.Protocol.run_one_shot ~tree ~requests () in
  let b = Arrow.Protocol.run_one_shot ~tree ~requests () in
  Alcotest.(check int) "same total" a.total_delay b.total_delay;
  Alcotest.(check int) "same messages" a.messages b.messages;
  Alcotest.(check bool) "same order" true (a.order = b.order)

(* ---- async edge cases ---- *)

let test_async_bad_wakeup () =
  let protocol =
    {
      Engine.name = "noop";
      initial_state = (fun _ -> ());
      on_start = (fun ~node:_ s -> (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_tick = Engine.no_tick;
    }
  in
  Alcotest.check_raises "bad wakeup" (Invalid_argument "Async.run: bad wakeup")
    (fun () ->
      ignore
        (Async.run ~graph:(Gen.path 2) ~delay:(Async.Constant 1)
           ~wakeups:[ (-1, 0) ] ~protocol ()))

let test_async_bad_delay_model () =
  let protocol =
    {
      Engine.name = "noop";
      initial_state = (fun _ -> ());
      on_start = (fun ~node:_ s -> (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_tick = Engine.no_tick;
    }
  in
  Alcotest.check_raises "constant 0"
    (Invalid_argument "Async.run: constant delay must be >= 1") (fun () ->
      ignore (Async.run ~graph:(Gen.path 2) ~delay:(Async.Constant 0) ~protocol ()));
  Alcotest.check_raises "bad uniform"
    (Invalid_argument "Async.run: bad uniform delays") (fun () ->
      ignore
        (Async.run ~graph:(Gen.path 2)
           ~delay:(Async.Uniform { min = 3; max = 2; seed = 0L })
           ~protocol ()))

let test_async_event_limit () =
  (* Ping-pong forever: the event guard must fire. *)
  let protocol =
    {
      Engine.name = "pingpong";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src msg s -> (s, [ Engine.Send (src, msg) ]));
      on_tick = Engine.no_tick;
    }
  in
  match
    Async.run ~graph:(Gen.path 2) ~delay:(Async.Constant 1) ~max_events:100
      ~protocol ()
  with
  | _ -> Alcotest.fail "expected Round_limit_exceeded"
  | exception Engine.Round_limit_exceeded { limit; outstanding; _ } ->
      Alcotest.(check int) "limit reported" 100 limit;
      Alcotest.(check bool) "events still pending" true (outstanding > 0)

(* ---- routing facts feeding protocols ---- *)

let test_tree_route_distance_hint () =
  let tree = Tree.of_graph (Gen.perfect_tree ~arity:2 ~height:3) ~root:0 in
  let route = Route.of_tree tree in
  Alcotest.(check (option int)) "hint = tree dist" (Some (Tree.dist tree 7 14))
    (Route.distance_hint route 7 14)

let test_fun_route_has_no_hint () =
  let route = Route.of_fun (fun _ dst -> dst) in
  Alcotest.(check (option int)) "no hint" None (Route.distance_hint route 0 1)

(* ---- fetch&add totals conserve across implementations ---- *)

let test_fetch_add_sum_agrees_across_protocols () =
  let g = Gen.square_mesh 4 in
  let tree = Spanning.bfs g ~root:0 in
  let rng = Helpers.rng () in
  let requests =
    List.map (fun v -> (v, Rng.below rng 20)) [ 1; 3; 6; 9; 14 ]
  in
  let final (r : Counting.Fetch_add.run_result) =
    List.fold_left
      (fun acc (o : Counting.Fetch_add.outcome) ->
        max acc (o.before + o.increment))
      0 r.outcomes
  in
  let a = final (Counting.Fetch_add.run_central ~graph:g ~requests ()) in
  let b = final (Counting.Fetch_add.run_combining ~tree ~requests ()) in
  let c = final (Counting.Fetch_add.run_sweep ~tree ~requests ()) in
  Alcotest.(check int) "central = combining" a b;
  Alcotest.(check int) "combining = sweep" b c

(* ---- growth fit on a real protocol series ---- *)

let test_sweep_counting_fits_quadratic () =
  let series =
    List.map
      (fun n ->
        let tree = Tree.of_graph (Gen.path n) ~root:0 in
        let r = Counting.Sweep.run ~tree ~requests:(Helpers.all_nodes n) () in
        (n, r.total_delay))
      [ 32; 64; 128; 256 ]
  in
  let fit = Countq.Growth.fit_power_law series in
  Alcotest.(check bool)
    (Printf.sprintf "e=%.3f ~ 2" fit.exponent)
    true
    (abs_float (fit.exponent -. 2.0) < 0.05)

(* ---- scenario -> drivers pipeline ---- *)

let test_scenario_to_run_pipeline () =
  match Countq.Scenario.topology "torus:49" with
  | Error (`Msg m) -> Alcotest.fail m
  | Ok (name, g) -> (
      Alcotest.(check string) "realised" "torus-7x7" name;
      match Countq.Scenario.requests ~n:(Graph.n g) "density:0.5" with
      | Error (`Msg m) -> Alcotest.fail m
      | Ok requests ->
          let q = Countq.Run.queuing ~graph:g ~protocol:`Arrow ~requests () in
          let c = Countq.Run.best_counting ~graph:g ~requests () in
          Alcotest.(check bool) "both valid" true (q.valid && c.valid))

let suite =
  [
    Alcotest.test_case "Thm 4.1 + Rosenkrantz chain" `Quick test_bound_chain;
    Alcotest.test_case "counting portfolio cross-validation" `Quick
      test_counting_portfolio_cross_validation;
    Alcotest.test_case "engine invalid capacity" `Quick test_engine_invalid_capacity;
    Alcotest.test_case "engine min_rounds ticks" `Quick
      test_engine_min_rounds_keeps_ticking;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "async bad wakeup" `Quick test_async_bad_wakeup;
    Alcotest.test_case "async bad delay model" `Quick test_async_bad_delay_model;
    Alcotest.test_case "async event limit" `Quick test_async_event_limit;
    Alcotest.test_case "tree route hint" `Quick test_tree_route_distance_hint;
    Alcotest.test_case "fun route no hint" `Quick test_fun_route_has_no_hint;
    Alcotest.test_case "fetch&add sums agree" `Quick
      test_fetch_add_sum_agrees_across_protocols;
    Alcotest.test_case "sweep fits n^2" `Quick test_sweep_counting_fits_quadratic;
    Alcotest.test_case "scenario pipeline" `Quick test_scenario_to_run_pipeline;
  ]
