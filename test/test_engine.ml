(* Tests for the synchronous engine: the Section 2.1 model rules. *)

module Engine = Countq_simnet.Engine
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen

(* A protocol in which node 0 sends [count] pings to node 1 on a
   2-vertex graph; node 1 completes once per ping. *)
let pinger count =
  {
    Engine.name = "pinger";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s ->
        if node = 0 then (s, List.init count (fun i -> Engine.Send (1, i)))
        else (s, []));
    on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
    on_wake = Engine.no_wake;
  }

let run_pinger ?(config = Engine.default_config) count =
  Engine.run ~graph:(Gen.path 2) ~config ~protocol:(pinger count) ()

let test_single_hop_delay () =
  let res = run_pinger 1 in
  Alcotest.(check int) "one completion" 1 (Engine.completion_count res);
  Alcotest.(check int) "delivered in round 1" 1 (Engine.total_delay res)

let test_send_capacity_serialises () =
  (* With capacity 1/1 the k messages drain one per round: delays are
     1, 2, ..., k. *)
  let k = 5 in
  let res = run_pinger k in
  Alcotest.(check int) "total = k(k+1)/2" (k * (k + 1) / 2)
    (Engine.total_delay res);
  Alcotest.(check int) "rounds = k" k res.rounds

let test_wider_send_capacity () =
  (* Sending 2 per round but receiving 1 per round still serialises at
     the receiver; receive capacity 2 with send capacity 2 halves it. *)
  let config =
    { Engine.default_config with send_capacity = 2; receive_capacity = 2 }
  in
  let res = run_pinger ~config 4 in
  Alcotest.(check int) "total = 1+1+2+2" 6 (Engine.total_delay res);
  Alcotest.(check int) "expansion recorded" 2 res.expansion

let test_fifo_per_link () =
  (* Messages on one link must be delivered in send order. *)
  let protocol =
    {
      Engine.name = "fifo";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = 0 then (s, [ Engine.Send (1, 10); Engine.Send (1, 20) ])
          else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let res =
    Engine.run ~graph:(Gen.path 2) ~config:Engine.default_config ~protocol ()
  in
  let values = List.map (fun (c : _ Engine.completion) -> c.value) res.completions in
  Alcotest.(check (list int)) "FIFO order" [ 10; 20 ] values

let test_send_to_non_neighbor_rejected () =
  let protocol =
    {
      Engine.name = "bad";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node = 0 then (s, [ Engine.Send (2, ()) ]) else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ _ s -> (s, []));
      on_wake = Engine.no_wake;
    }
  in
  Alcotest.check_raises "non-neighbour"
    (Engine.Not_a_neighbor { node = 0; dst = 2 })
    (fun () ->
      ignore
        (Engine.run ~graph:(Gen.path 3) ~config:Engine.default_config ~protocol ()))

let test_round_limit () =
  (* Two nodes ping-pong forever. *)
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
  let config = { Engine.default_config with max_rounds = 50 } in
  match Engine.run ~graph:(Gen.path 2) ~config ~protocol () with
  | _ -> Alcotest.fail "expected Round_limit_exceeded"
  | exception Engine.Round_limit_exceeded
        { limit; outstanding; queued; held; busiest } ->
      Alcotest.(check int) "limit reported" 50 limit;
      (* The ping-pong message must show up in the pending summary. *)
      Alcotest.(check int) "one message pending" 1 (outstanding + queued + held);
      (* ... and the busiest-node summary must point at its holder with
         the same total load. *)
      Alcotest.(check int) "busiest load totals the summary" 1
        (List.fold_left (fun acc (_, l) -> acc + l) 0 busiest)

let test_one_receive_per_round_contention () =
  (* Star centre: k leaves send simultaneously; centre can absorb only
     one per round, so the completion rounds are exactly 1..k. *)
  let n = 9 in
  let protocol =
    {
      Engine.name = "star-contention";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node > 0 then (s, [ Engine.Send (0, node) ]) else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let res =
    Engine.run ~graph:(Gen.star n) ~config:Engine.default_config ~protocol ()
  in
  let rounds =
    List.map (fun (c : _ Engine.completion) -> c.round) res.completions
  in
  Alcotest.(check (list int)) "serialised rounds"
    (List.init (n - 1) (fun i -> i + 1))
    (List.sort compare rounds);
  (* Each leaf has its own link, so per-link backlog stays 1 here; the
     contention shows up purely as serialised delivery rounds. *)
  Alcotest.(check int) "per-link backlog" 1 res.max_link_backlog

let test_backlog_on_one_link () =
  (* A fast sender into a capacity-1 receiver piles messages up on the
     single link: backlog must exceed 1. *)
  let protocol =
    {
      Engine.name = "backlog";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = 0 then (s, List.init 6 (fun i -> Engine.Send (1, i)))
          else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let config = { Engine.default_config with send_capacity = 3 } in
  let res = Engine.run ~graph:(Gen.path 2) ~config ~protocol () in
  Alcotest.(check bool) "backlog grows" true (res.max_link_backlog >= 2);
  Alcotest.(check int) "all delivered" 6 (Engine.completion_count res)

let test_round_robin_fairness () =
  (* Two flooding senders into one sink: round robin must interleave. *)
  let protocol =
    {
      Engine.name = "fairness";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = 1 || node = 2 then
            (s, List.init 3 (fun _ -> Engine.Send (0, node)))
          else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let res =
    Engine.run ~graph:(Gen.star 3) ~config:Engine.default_config ~protocol ()
  in
  let senders =
    List.map (fun (c : _ Engine.completion) -> c.value) res.completions
  in
  (* Strict alternation 1,2,1,2,1,2 under round robin. *)
  Alcotest.(check (list int)) "alternating" [ 1; 2; 1; 2; 1; 2 ] senders

let test_lowest_sender_first_starves () =
  let protocol =
    {
      Engine.name = "starve";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = 1 || node = 2 then
            (s, List.init 2 (fun _ -> Engine.Send (0, node)))
          else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let config = { Engine.default_config with arbiter = Engine.Lowest_sender_first } in
  let res = Engine.run ~graph:(Gen.star 3) ~config ~protocol () in
  let senders =
    List.map (fun (c : _ Engine.completion) -> c.value) res.completions
  in
  Alcotest.(check (list int)) "node 1 drains first" [ 1; 1; 2; 2 ] senders

let test_custom_arbiter () =
  (* Always prefer the largest sender id. *)
  let config =
    {
      Engine.default_config with
      arbiter =
        Engine.Custom
          (fun ~round:_ ~node:_ ~candidates ->
            List.fold_left max (List.hd candidates) candidates);
    }
  in
  let protocol =
    {
      Engine.name = "custom";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node > 0 then (s, [ Engine.Send (0, node) ]) else (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let res = Engine.run ~graph:(Gen.star 4) ~config ~protocol () in
  let senders =
    List.map (fun (c : _ Engine.completion) -> c.value) res.completions
  in
  Alcotest.(check (list int)) "descending ids" [ 3; 2; 1 ] senders

let test_on_tick_injection () =
  (* Node 0 asks at time 0 to be woken in round 3 and issues one
     message then; the neighbour receives it in round 4 (issue at t
     enters the network at t+1). *)
  let protocol =
    {
      Engine.name = "tick";
      initial_state = (fun _ -> ());
      on_start = (fun ~node s -> (s, if node = 0 then [ Engine.Wake 3 ] else []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake =
        (fun ~round ~node s ->
          if node = 0 && round = 3 then (s, [ Engine.Send (1, 99) ]) else (s, []));
    }
  in
  let res = Engine.run ~graph:(Gen.path 2) ~config:Engine.default_config ~protocol () in
  match res.completions with
  | [ c ] ->
      Alcotest.(check int) "value" 99 c.value;
      Alcotest.(check int) "received round 4" 4 c.round
  | _ -> Alcotest.fail "expected exactly one completion"

let test_quiescence_counts () =
  let res = run_pinger 3 in
  Alcotest.(check int) "messages" 3 res.messages;
  Alcotest.(check int) "completions" 3 (Engine.completion_count res);
  Alcotest.(check int) "max delay" 3 (Engine.max_delay res)

let test_propagation_speed () =
  (* Information travels exactly one hop per round: flooding a path of
     length d completes at round d (Theorem 3.6's latency semantics). *)
  let n = 12 in
  let protocol =
    {
      Engine.name = "wavefront";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
      on_receive =
        (fun ~round:_ ~node ~src:_ () s ->
          let fwd =
            if node + 1 < n then [ Engine.Send (node + 1, ()) ] else []
          in
          (s, Engine.Complete node :: fwd));
      on_wake = Engine.no_wake;
    }
  in
  let res =
    Engine.run ~graph:(Gen.path n) ~config:Engine.default_config ~protocol ()
  in
  List.iter
    (fun (c : _ Engine.completion) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d reached at its distance" c.value)
        c.value c.round)
    res.completions

let suite =
  [
    Alcotest.test_case "single hop delay" `Quick test_single_hop_delay;
    Alcotest.test_case "send capacity serialises" `Quick
      test_send_capacity_serialises;
    Alcotest.test_case "wider capacities" `Quick test_wider_send_capacity;
    Alcotest.test_case "FIFO per link" `Quick test_fifo_per_link;
    Alcotest.test_case "non-neighbour send rejected" `Quick
      test_send_to_non_neighbor_rejected;
    Alcotest.test_case "round limit" `Quick test_round_limit;
    Alcotest.test_case "one receive per round" `Quick
      test_one_receive_per_round_contention;
    Alcotest.test_case "backlog on one link" `Quick test_backlog_on_one_link;
    Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
    Alcotest.test_case "lowest-sender-first starves" `Quick
      test_lowest_sender_first_starves;
    Alcotest.test_case "custom arbiter" `Quick test_custom_arbiter;
    Alcotest.test_case "on_tick injection" `Quick test_on_tick_injection;
    Alcotest.test_case "quiescence counters" `Quick test_quiescence_counts;
    Alcotest.test_case "propagation speed" `Quick test_propagation_speed;
  ]
