(* Tests for the asynchronous engine and the asynchronous driver:
   safety must survive arbitrary delays; with Constant 1 the timing of
   contention-bound protocols matches the synchronous engine. *)

module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Async = Countq_simnet.Async
module Arrow = Countq_arrow
module Central = Countq_counting.Central
module Counts = Countq_counting.Counts
module Oneshot = Countq_simnet.Oneshot

(* The asynchronous driver on a one-shot instance, in each family's view. *)
let count_async ?delay ~requests inst =
  Counts.of_engine ~requests (Oneshot.async ?delay inst)

let queue_async ?delay inst = Arrow.Protocol.of_engine (Oneshot.async ?delay inst)

let central_async ?delay ~graph ~requests () =
  count_async ?delay ~requests (Central.one_shot ~graph ~requests ())

let arrow_async ?delay ~tree ~requests () =
  queue_async ?delay (Arrow.Protocol.one_shot ~tree ~requests ())

let test_constant1_single_hop () =
  let protocol =
    {
      Engine.name = "ping";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, [ Engine.Complete () ]));
      on_wake = Engine.no_wake;
    }
  in
  let res =
    Async.run ~graph:(Gen.path 2) ~delay:(Async.Constant 1) ~protocol ()
  in
  match res.completions with
  | [ c ] -> Alcotest.(check int) "received at time 1" 1 c.round
  | _ -> Alcotest.fail "one completion expected"

let test_constant_d_scales_distance () =
  (* A message relayed along a path with delay d arrives at hop h at
     time h*d + (h-1) (each relay also burns one processing unit when
     d >= 1 and forwarding happens at the receive time). *)
  let n = 5 in
  let protocol =
    {
      Engine.name = "relay";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
      on_receive =
        (fun ~round:_ ~node ~src:_ () s ->
          let fwd = if node + 1 < n then [ Engine.Send (node + 1, ()) ] else [] in
          (s, Engine.Complete node :: fwd));
      on_wake = Engine.no_wake;
    }
  in
  let res = Async.run ~graph:(Gen.path n) ~delay:(Async.Constant 3) ~protocol () in
  List.iter
    (fun (c : _ Engine.completion) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d at 3*h" c.value)
        (3 * c.value) c.round)
    res.completions

let test_fifo_links_under_random_delays () =
  (* Two messages on the same link must arrive in order even when the
     delay oracle says otherwise. *)
  let delays = [| 10; 1 |] in
  let count = ref 0 in
  let oracle ~src:_ ~dst:_ ~send_time:_ =
    let d = delays.(!count mod 2) in
    incr count;
    d
  in
  let protocol =
    {
      Engine.name = "fifo";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = 0 then (s, [ Engine.Send (1, "a"); Engine.Send (1, "b") ])
          else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let res =
    Async.run ~graph:(Gen.path 2) ~delay:(Async.Per_message oracle) ~protocol ()
  in
  let order = List.map (fun (c : _ Engine.completion) -> c.value) res.completions in
  Alcotest.(check (list string)) "FIFO preserved" [ "a"; "b" ] order

let test_node_serialisation () =
  (* k messages arriving at the same instant drain one per time unit. *)
  let n = 6 in
  let protocol =
    {
      Engine.name = "burst";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node > 0 then (s, [ Engine.Send (0, node) ]) else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let res = Async.run ~graph:(Gen.star n) ~delay:(Async.Constant 1) ~protocol () in
  let rounds =
    List.sort compare
      (List.map (fun (c : _ Engine.completion) -> c.round) res.completions)
  in
  Alcotest.(check (list int)) "serialised" [ 1; 2; 3; 4; 5 ] rounds

let test_wakeups_fire () =
  (* Node 0 asks for time 4 (twice: it fires once), node 1 for time 9;
     node 1's wake asks again for time 12. *)
  let protocol =
    {
      Engine.name = "wake";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          (s, if node = 0 then [ Engine.Wake 4; Engine.Wake 4 ] else [ Engine.Wake 9 ]));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake =
        (fun ~round ~node s ->
          let again = if round = 9 && node = 1 then [ Engine.Wake 12 ] else [] in
          (s, Engine.Complete round :: again));
    }
  in
  let res = Async.run ~graph:(Gen.path 2) ~delay:(Async.Constant 1) ~protocol () in
  let times = List.map (fun (c : _ Engine.completion) -> c.value) res.completions in
  Alcotest.(check (list int)) "wakeup times" [ 4; 9; 12 ] (List.sort compare times);
  Alcotest.(check int) "the run ends with the last wake" 12 res.finish_time

let test_central_counting_total_matches_sync () =
  (* On the star with R = V the total delay is contention-bound, so the
     async Constant-1 run must equal the synchronous run. *)
  let n = 24 in
  let g = Gen.star n in
  let requests = Helpers.all_nodes n in
  let sync = Helpers.counted (Central.one_shot ~graph:g ~requests ()) in
  let asy = central_async ~graph:g ~requests () in
  Alcotest.(check bool) "async valid" true (Result.is_ok asy.valid);
  Alcotest.(check int) "same total" sync.total_delay asy.total_delay

let test_central_counting_random_delays_valid () =
  let g = Gen.square_mesh 5 in
  let requests = Helpers.all_nodes 25 in
  let r =
    central_async
      ~delay:(Async.Uniform { min = 1; max = 7; seed = 5L })
      ~graph:g ~requests ()
  in
  Alcotest.(check bool) "valid under jitter" true (Result.is_ok r.valid);
  let base = central_async ~graph:g ~requests () in
  Alcotest.(check bool) "jitter costs more" true
    (r.total_delay >= base.total_delay)

let test_arrow_async_constant_valid () =
  let g = Gen.square_mesh 6 in
  let tree = Spanning.best_for_arrow g in
  let r = arrow_async ~tree ~requests:(Helpers.all_nodes 36) () in
  Alcotest.(check bool) "valid" true (Result.is_ok r.order);
  Alcotest.(check int) "all ops" 36 (List.length r.outcomes)

let prop_arrow_safe_under_random_delays =
  QCheck2.Test.make
    ~name:"arrow yields a valid total order under arbitrary link delays"
    ~count:100 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = Spanning.best_for_arrow g in
      let r =
        arrow_async
          ~delay:(Async.Uniform { min = 1; max = 9; seed = 77L })
          ~tree ~requests ()
      in
      Result.is_ok r.order && List.length r.outcomes = List.length requests)

let prop_arrow_safe_under_adversarial_delays =
  QCheck2.Test.make
    ~name:"arrow survives an adversarial delay oracle" ~count:60
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = Spanning.best_for_arrow g in
      (* Delay grows with the sender id and flips parity with time:
         nothing uniform about it. *)
      let oracle ~src ~dst ~send_time =
        1 + ((src + (3 * dst) + send_time) mod 13)
      in
      let r =
        arrow_async ~delay:(Async.Per_message oracle) ~tree ~requests ()
      in
      Result.is_ok r.order)

let prop_combining_safe_under_random_delays =
  QCheck2.Test.make
    ~name:"combining tree counts {1..k} under arbitrary delays" ~count:60
    ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = Spanning.bfs g ~root:0 in
      let r =
        count_async
          ~delay:(Async.Uniform { min = 1; max = 6; seed = 11L })
          ~requests
          (Countq_counting.Combining.one_shot ~tree ~requests ())
      in
      Result.is_ok r.valid)

let prop_sweep_ranks_timing_independent =
  (* The sweep's ranks are fixed by the walk order: async jitter must
     not change a single assignment relative to the synchronous run. *)
  QCheck2.Test.make ~name:"sweep ranks identical under any delay model"
    ~count:60 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let tree = Spanning.bfs g ~root:0 in
      let sync =
        Helpers.counted (Countq_counting.Sweep.one_shot ~tree ~requests ())
      in
      let asy =
        count_async
          ~delay:(Async.Uniform { min = 1; max = 9; seed = 21L })
          ~requests
          (Countq_counting.Sweep.one_shot ~tree ~requests ())
      in
      let ranks (r : Counts.run_result) =
        List.sort compare
          (List.map (fun (o : Counts.outcome) -> (o.node, o.count)) r.outcomes)
      in
      Result.is_ok asy.valid && ranks sync = ranks asy)

let prop_counting_safe_under_random_delays =
  QCheck2.Test.make
    ~name:"central counting hands out {1..k} under arbitrary delays"
    ~count:80 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r =
        central_async
          ~delay:(Async.Uniform { min = 1; max = 5; seed = 3L })
          ~graph:g ~requests ()
      in
      Result.is_ok r.valid)

let suite =
  [
    Alcotest.test_case "constant 1 single hop" `Quick test_constant1_single_hop;
    Alcotest.test_case "constant d scales distance" `Quick
      test_constant_d_scales_distance;
    Alcotest.test_case "FIFO links under random delays" `Quick
      test_fifo_links_under_random_delays;
    Alcotest.test_case "node serialisation" `Quick test_node_serialisation;
    Alcotest.test_case "wakeups" `Quick test_wakeups_fire;
    Alcotest.test_case "central total matches sync" `Quick
      test_central_counting_total_matches_sync;
    Alcotest.test_case "central valid under jitter" `Quick
      test_central_counting_random_delays_valid;
    Alcotest.test_case "arrow async constant" `Quick test_arrow_async_constant_valid;
    Helpers.qcheck prop_arrow_safe_under_random_delays;
    Helpers.qcheck prop_arrow_safe_under_adversarial_delays;
    Helpers.qcheck prop_counting_safe_under_random_delays;
    Helpers.qcheck prop_combining_safe_under_random_delays;
    Helpers.qcheck prop_sweep_ranks_timing_independent;
  ]
