(* Cross-module integration tests: chains of guarantees that span
   several libraries, engine edge cases, and determinism. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Shard = Countq_simnet.Shard
module Reference = Countq_simnet.Reference
module Explore = Countq_simnet.Explore
module Implicit = Countq_topology.Implicit
module Async = Countq_simnet.Async
module Faults = Countq_simnet.Faults
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
      on_wake = Engine.no_wake;
    }
  in
  let config = { Engine.default_config with receive_capacity = 0 } in
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Engine.run: capacities must be >= 1") (fun () ->
      ignore (Engine.run ~graph:(Gen.path 2) ~config ~protocol ()))

let test_engine_wakes_keep_running () =
  (* Nothing is ever in flight, but node 0 asks to be woken in round 1
     and then in each next round up to 5: the run lasts exactly as long
     as wakes are pending. *)
  let seen = ref [] in
  let protocol =
    {
      Engine.name = "wake-count";
      initial_state = (fun _ -> ());
      on_start = (fun ~node s -> (s, if node = 0 then [ Engine.Wake 1 ] else []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake =
        (fun ~round ~node s ->
          seen := (round, node) :: !seen;
          (s, if round < 5 then [ Engine.Wake (round + 1) ] else []));
    }
  in
  let rounds = ref 0 in
  let tap =
    {
      Engine.no_tap with
      passive = false;
      on_round_end =
        (fun ~round ~in_flight:_ ->
          rounds := round;
          `Continue);
    }
  in
  ignore
    (Engine.run ~tap ~graph:(Gen.path 2) ~config:Engine.default_config ~protocol ());
  Alcotest.(check (list (pair int int))) "rounds woken"
    [ (1, 0); (2, 0); (3, 0); (4, 0); (5, 0) ]
    (List.rev !seen);
  Alcotest.(check int) "last round run" 5 !rounds

(* ---- a wake before the handler's own tick position is rejected ---- *)

(* Each kind of handler asks for a wake one round too early: node 0 at
   time 0; node 1 on receiving node 0's round-1 message; node 0 woken
   in round 2; an injection into node 0 in round 2. *)
let bad_wake kind =
  {
    Engine.name = "bad-wake";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s ->
        match (kind, node) with
        | `Start, 0 -> (s, [ Engine.Wake 0 ])
        | `Receive, 0 -> (s, [ Engine.Send (1, ()) ])
        | `Wake, 0 -> (s, [ Engine.Wake 2 ])
        | _ -> (s, []));
    on_receive = (fun ~round ~node:_ ~src:_ () s -> (s, [ Engine.Wake (round - 1) ]));
    on_wake = (fun ~round ~node:_ s -> (s, [ Engine.Wake round ]));
  }

let bad_wake_message = function
  | `Start -> "Wake 0 asked for in round 0: the earliest round it may name is 1"
  | `Receive -> "Wake 0 asked for in round 1: the earliest round it may name is 1"
  | `Wake | `Inject -> "Wake 2 asked for in round 2: the earliest round it may name is 3"

let bad_injection () =
  [| { Event.at = 2; node = 0; inject = (fun s -> (s, [ Engine.Wake 2 ])) } |]

let check_bad_wakes ~inject run () =
  let graph = Gen.path 2 in
  List.iter
    (fun kind ->
      Alcotest.check_raises (bad_wake_message kind)
        (Invalid_argument (bad_wake_message kind))
        (fun () ->
          match kind with
          | `Inject ->
              ignore (run ~graph ~protocol:(bad_wake `None) ~injections:(bad_injection ()))
          | (`Start | `Receive | `Wake) as kind ->
              ignore (run ~graph ~protocol:(bad_wake kind) ~injections:[||])))
    ((if inject then [ `Inject ] else []) @ [ `Start; `Receive; `Wake ])

let config = Engine.default_config
let topo graph = Implicit.of_graph graph

let bad_wake_fronts =
  [
    ( "Engine.run",
      check_bad_wakes ~inject:false (fun ~graph ~protocol ~injections:_ ->
          ignore (Engine.run ~graph ~config ~protocol ())) );
    ( "Event_engine.run",
      check_bad_wakes ~inject:true (fun ~graph ~protocol ~injections ->
          ignore (Event.run ~injections ~topo:(topo graph) ~config ~protocol ())) );
    ( "Event_engine.run ?starters",
      check_bad_wakes ~inject:true (fun ~graph ~protocol ~injections ->
          ignore
            (Event.run ~injections ~starters:[ 0; 1 ] ~topo:(topo graph) ~config
               ~protocol ())) );
    ( "Shard.run",
      check_bad_wakes ~inject:false (fun ~graph ~protocol ~injections:_ ->
          ignore (Shard.run ~shards:2 ~graph ~config ~protocol ())) );
    ( "Shard.run_implicit",
      check_bad_wakes ~inject:true (fun ~graph ~protocol ~injections ->
          ignore
            (Shard.run_implicit ~shards:2 ~injections ~topo:(topo graph) ~config
               ~protocol ())) );
    ( "Reference.run",
      check_bad_wakes ~inject:false (fun ~graph ~protocol ~injections:_ ->
          ignore (Reference.run ~graph ~config ~protocol ())) );
    ( "Async.run",
      check_bad_wakes ~inject:false (fun ~graph ~protocol ~injections:_ ->
          ignore (Async.run ~graph ~delay:(Async.Constant 1) ~protocol ())) );
  ]

(* ---- a wake due on a node crashed for good is dropped ---- *)

(* Node 1 asks to be woken in round 5 but dies for good in round 2: the
   wake never fires and the run ends instead of carrying it forward
   round after round up to the limit. *)
let check_dead_wake_dropped run () =
  let woken = ref [] in
  let protocol =
    {
      Engine.name = "dead-wake";
      initial_state = (fun _ -> ());
      on_start = (fun ~node s -> (s, if node = 1 then [ Engine.Wake 5 ] else []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake =
        (fun ~round ~node s ->
          woken := (round, node) :: !woken;
          (s, []));
    }
  in
  let faults =
    Faults.start
      (Faults.crash_only ~label:"gone"
         [ { Faults.node = 1; at_round = 2; recover_at = None } ])
  in
  run ~graph:(Gen.path 2) ~faults ~protocol;
  Alcotest.(check (list (pair int int))) "never woken" [] !woken

let dead_wake_fronts =
  let config = { Engine.default_config with max_rounds = 100 } in
  [
    ( "Engine.run",
      fun ~graph ~faults ~protocol -> ignore (Engine.run ~faults ~graph ~config ~protocol ()) );
    ( "Event_engine.run ?starters",
      fun ~graph ~faults ~protocol ->
        ignore
          (Event.run ~faults ~starters:[ 1 ] ~topo:(topo graph) ~config ~protocol ()) );
    ( "Shard.run",
      fun ~graph ~faults ~protocol ->
        ignore (Shard.run ~shards:2 ~faults ~graph ~config ~protocol ()) );
    ( "Shard.run_implicit",
      fun ~graph ~faults ~protocol ->
        ignore (Shard.run_implicit ~shards:2 ~faults ~topo:(topo graph) ~config ~protocol ())
    );
    ( "Reference.run",
      fun ~graph ~faults ~protocol ->
        ignore (Reference.run ~faults ~graph ~config ~protocol ()) );
    ( "Async.run",
      fun ~graph ~faults ~protocol ->
        ignore
          (Async.run ~max_events:100 ~faults ~graph ~delay:(Async.Constant 1) ~protocol ())
    );
  ]

let test_explore_rejects_wakes () =
  (* The model checker has no timer model: even a valid wake is refused
     rather than dropped. *)
  let protocol =
    {
      (bad_wake `None) with
      on_start = (fun ~node s -> (s, if node = 0 then [ Engine.Wake 5 ] else []));
    }
  in
  Alcotest.check_raises "any wake"
    (Invalid_argument "Explore.run: node 0 asked for a Wake (no timer model)")
    (fun () ->
      ignore (Explore.run ~graph:(Gen.path 2) ~protocol ~check:(fun _ -> Ok ()) ()))

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
  (* A wake asked for at time 0 names a time before the first one a
     wake can fire at. *)
  let protocol =
    {
      Engine.name = "noop";
      initial_state = (fun _ -> ());
      on_start = (fun ~node s -> (s, if node = 0 then [ Engine.Wake (-1) ] else []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake = Engine.no_wake;
    }
  in
  Alcotest.check_raises "bad wakeup"
    (Invalid_argument "Wake -1 asked for in round 0: the earliest round it may name is 1")
    (fun () ->
      ignore (Async.run ~graph:(Gen.path 2) ~delay:(Async.Constant 1) ~protocol ()))

let test_async_bad_delay_model () =
  let protocol =
    {
      Engine.name = "noop";
      initial_state = (fun _ -> ());
      on_start = (fun ~node:_ s -> (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake = Engine.no_wake;
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
      on_wake = Engine.no_wake;
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
    Alcotest.test_case "engine wakes keep the run going" `Quick
      test_engine_wakes_keep_running;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "async bad wakeup" `Quick test_async_bad_wakeup;
    Alcotest.test_case "async bad delay model" `Quick test_async_bad_delay_model;
    Alcotest.test_case "Explore rejects wakes" `Quick test_explore_rejects_wakes;
    Alcotest.test_case "async event limit" `Quick test_async_event_limit;
    Alcotest.test_case "tree route hint" `Quick test_tree_route_distance_hint;
    Alcotest.test_case "fun route no hint" `Quick test_fun_route_has_no_hint;
    Alcotest.test_case "fetch&add sums agree" `Quick
      test_fetch_add_sum_agrees_across_protocols;
    Alcotest.test_case "sweep fits n^2" `Quick test_sweep_counting_fits_quadratic;
    Alcotest.test_case "scenario pipeline" `Quick test_scenario_to_run_pipeline;
  ]
  @ List.map
      (fun (front, test) -> Alcotest.test_case ("bad wake rejected: " ^ front) `Quick test)
      bad_wake_fronts
  @ List.map
      (fun (front, run) ->
        Alcotest.test_case ("dead node's wake dropped: " ^ front) `Quick
          (check_dead_wake_dropped run))
      dead_wake_fronts
