(* Dynamic topologies: the identity schedule must be bit-identical to
   no schedule at all (both engines, with metrics, faults and observers
   attached); under arbitrary schedules the active engine must stay
   bit-identical to the reference engine; the Dynamic constructors must
   mean what their docs say; and the dynamic queuing protocols must
   survive adversaries that kill the static arrow. *)

module Engine = Countq_simnet.Engine
module Faults = Countq_simnet.Faults
module Metrics = Countq_simnet.Metrics
module Monitor = Countq_simnet.Monitor
module Dynamic = Countq_simnet.Dynamic
module Explore = Countq_simnet.Explore
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Arrow = Countq_arrow
module Dq = Countq_queuing.Dynamic_queue
module Reliable = Countq_simnet.Reliable
module Shard = Countq_simnet.Shard

(* Same avalanche mix as test_equiv: random protocols must be pure
   functions of their inputs so shrunk counterexamples replay. *)
let mix a b =
  let h = ref ((a * 0x9e3779b1) + (b * 0x85ebca6b)) in
  h := !h lxor (!h lsr 13);
  h := !h * 0xc2b2ae35;
  h := !h lxor (!h lsr 16);
  !h land max_int

type msg = { ttl : int; tag : int }

(* The flooding hash protocol of test_equiv, plus an optional tick
   component so the dynamic gating of the tick phase is exercised:
   ticking nodes inject bounded extra traffic during early rounds. *)
let hash_protocol ~tick ~seed ~graph =
  let pick_nbr v h =
    let a = Graph.neighbors graph v in
    if Array.length a = 0 then None else Some a.(h mod Array.length a)
  in
  {
    Engine.name = "qcheck-dynamic-hash";
    initial_state = (fun v -> mix seed v);
    on_start =
      (fun ~node s ->
        let h = mix seed node in
        let acts =
          if h mod 3 = 0 then
            match pick_nbr node h with
            | Some d ->
                [ Engine.Send (d, { ttl = 2 + (h mod 5); tag = h land 0xffff }) ]
            | None -> []
          else []
        in
        let acts =
          if h mod 7 = 0 then Engine.Complete (node, h land 0xff) :: acts
          else acts
        in
        (s, if tick then acts @ [ Engine.Wake 1 ] else acts));
    on_receive =
      (fun ~round ~node ~src m s ->
        let h = mix (mix s m.tag) (mix src round) in
        let acts = ref [] in
        (if m.ttl > 0 then
           let fan = match h mod 4 with 0 -> 0 | 1 | 2 -> 1 | _ -> 2 in
           for i = 1 to fan do
             match pick_nbr node (mix h i) with
             | Some d ->
                 acts :=
                   Engine.Send
                     (d, { ttl = m.ttl - 1; tag = mix m.tag i land 0xffff })
                   :: !acts
             | None -> ()
           done);
        if h mod 5 = 0 then acts := Engine.Complete (node, m.tag) :: !acts;
        (mix s (m.tag + 1), !acts));
    (* With [tick], every node wakes each round it is up, through round
       12; a wake due while the node is down fires when it is back. *)
    on_wake =
      (fun ~round ~node s ->
        let again = if round < 12 then [ Engine.Wake (round + 1) ] else [] in
        if mix s round mod 5 = 0 then
          match pick_nbr node (mix s (round + 1)) with
          | Some d ->
              ( mix s round,
                Engine.Send (d, { ttl = 1; tag = mix s round land 0xffff }) :: again )
          | None -> (s, again)
        else (s, again));
  }

let arbiter_of = function
  | 0 -> Engine.Round_robin
  | 1 -> Engine.Lowest_sender_first
  | _ ->
      Engine.Custom
        (fun ~round ~node ~candidates ->
          List.nth candidates (mix round node mod List.length candidates))

let plan_of = function
  | 0 -> Faults.none
  | 1 -> Faults.drop_nth 3
  | 2 -> Faults.dup_nth 5
  | 3 -> Faults.delay_nth ~by:4 2
  | 4 -> Faults.random ~label:"lossy" ~seed:42L ~drop:0.1 ()
  | 5 ->
      Faults.random ~label:"chaos" ~seed:7L ~drop:0.05 ~duplicate:0.1
        ~delay:0.2 ~delay_max:9 ()
  | _ ->
      Faults.crash_only ~label:"crash-restart"
        [ { node = 0; at_round = 2; recover_at = Some 6 } ]

let plan_label = function 0 -> "none" | p -> Faults.label (plan_of p)

(* Run one engine, capturing everything comparable: the result (or the
   round-limit payload), the tap stream, the fault tallies, the
   metrics export and the schedule's drop tallies. *)
let capture which ~observe ~with_metrics ~plan ~sched ~graph ~config ~protocol =
  let events = ref [] in
  let observer =
    if observe then
      Some
        {
          Engine.no_tap with
          passive = false;
          on_deliver =
            (fun ~round ~src ~dst _ -> events := `Deliver (round, src, dst) :: !events);
          on_complete =
            (fun ~round ~node ~value -> events := `Complete (round, node, value) :: !events);
          on_round_end =
            (fun ~round ~in_flight ->
              events := `Round_end (round, in_flight) :: !events;
              `Continue);
        }
    else None
  in
  let faults = Option.map Faults.start plan in
  let dynamic = Option.map Dynamic.start sched in
  let metrics = if with_metrics then Some (Metrics.create ~graph) else None in
  let tap = Helpers.both_taps observer (Option.map Metrics.tap metrics) in
  let outcome =
    match
      match which with
      | `Active ->
          Engine.run ?faults ?dynamic ?tap ~graph ~config ~protocol ()
      | `Reference ->
          Reference.run ?faults ?dynamic ?tap ~graph ~config ~protocol ()
    with
    | r -> Ok r
    | exception Engine.Round_limit_exceeded
          { limit; outstanding; queued; held; busiest } ->
        Error (limit, outstanding, queued, held, busiest)
  in
  ( outcome,
    List.rev !events,
    Option.map Faults.stats faults,
    Option.map Metrics.to_jsonl metrics,
    Option.map Dynamic.stats dynamic )

let scenario_gen =
  let open QCheck2.Gen in
  let* topo = Helpers.topology_gen in
  let* seed = int_range 0 100_000 in
  let* rc = int_range 1 3 in
  let* sc = int_range 1 3 in
  let* arb = int_range 0 2 in
  let* maxr = oneofl [ 4; 2_000 ] in
  let* plan = int_range 0 6 in
  let* tick = bool in
  let* observe = bool in
  return (topo, seed, (rc, sc, arb, maxr), plan, tick, observe)

let scenario_print ((name, g), seed, (rc, sc, arb, maxr), plan, tick, observe) =
  Printf.sprintf
    "%s (n=%d) seed=%d rcv=%d snd=%d arb=%d max=%d plan=%s tick=%b observe=%b"
    name (Graph.n g) seed rc sc arb maxr (plan_label plan) tick observe

let config_of (rc, sc, arb, maxr) =
  {
    Engine.receive_capacity = rc;
    send_capacity = sc;
    arbiter = arbiter_of arb;
    max_rounds = maxr;
  }

(* The identity pin: attaching the identity schedule must change
   nothing at all — result, events, fault tallies, metrics — and must
   record zero drops. One property per engine. *)
let identity_prop which ((_, graph), seed, cfg, plan, tick, observe) =
  let config = config_of cfg in
  let protocol = hash_protocol ~tick ~seed ~graph in
  let plan = if plan = 0 then None else Some (plan_of plan) in
  let o1, e1, f1, m1, _ =
    capture which ~observe ~with_metrics:true ~plan ~sched:None ~graph ~config
      ~protocol
  in
  let o2, e2, f2, m2, d2 =
    capture which ~observe ~with_metrics:true ~plan
      ~sched:(Some (Dynamic.identity graph)) ~graph ~config ~protocol
  in
  o1 = o2 && e1 = e2 && f1 = f2 && m1 = m2 && d2 = Some Dynamic.no_stats

let identity_active =
  QCheck2.Test.make ~count:120 ~name:"identity schedule = static (active engine)"
    ~print:scenario_print scenario_gen (identity_prop `Active)

let identity_reference =
  QCheck2.Test.make ~count:60
    ~name:"identity schedule = static (reference engine)" ~print:scenario_print
    scenario_gen (identity_prop `Reference)

(* Under arbitrary schedules both engines must still agree exactly. *)
let sched_of pick graph =
  match pick with
  | 0 -> Dynamic.link_flaps ~seed:11L ~rate:0.3 ~epoch:3 graph
  | 1 -> Dynamic.node_churn ~seed:5L ~rate:0.25 ~epoch:4 graph
  | 2 -> Dynamic.t_interval ~seed:7L ~t:4 graph
  | 3 -> Dynamic.periodic_rewire ~seed:9L ~period:5 graph
  | 4 -> Dynamic.partition ~at:4 ~island:[ 0 ] graph
  | _ ->
      let tree = Spanning.best_for_arrow graph in
      Dynamic.tree_attack ~period:5 ~tree:(Tree.to_graph tree) graph

let dyn_scenario_gen =
  let open QCheck2.Gen in
  let* scenario = scenario_gen in
  let* pick = int_range 0 5 in
  return (scenario, pick)

let dyn_scenario_print (((name, g), _, _, _, _, _) as s, pick) =
  Printf.sprintf "%s sched=%s" (scenario_print s)
    (Dynamic.label (sched_of pick g))
  [@@warning "-27"]

let equiv_dynamic_prop ((((_, graph), seed, cfg, plan, tick, observe), pick)) =
  let config = config_of cfg in
  let protocol = hash_protocol ~tick ~seed ~graph in
  let plan = if plan = 0 then None else Some (plan_of plan) in
  let sched = Some (sched_of pick graph) in
  let a =
    capture `Active ~observe ~with_metrics:true ~plan ~sched ~graph ~config
      ~protocol
  in
  let r =
    capture `Reference ~observe ~with_metrics:true ~plan ~sched ~graph ~config
      ~protocol
  in
  a = r

let equiv_dynamic =
  QCheck2.Test.make ~count:120 ~name:"active = reference (dynamic schedules)"
    ~print:dyn_scenario_print dyn_scenario_gen equiv_dynamic_prop

(* ------------------------------------------------------------------ *)
(* Constructor semantics.                                              *)

let all_rounds = List.init 16 (fun i -> i + 1)

let test_flaps_semantics () =
  let g = Gen.complete 6 in
  let s = Dynamic.link_flaps ~seed:3L ~rate:1.0 ~epoch:4 ~protect:[ 0 ] g in
  List.iter
    (fun round ->
      List.iter
        (fun (u, v) ->
          let up = Dynamic.link_up s ~round ~u ~v in
          if u = 0 || v = 0 then
            Alcotest.(check bool)
              (Printf.sprintf "protected edge %d-%d up in round %d" u v round)
              true up
          else
            Alcotest.(check bool)
              (Printf.sprintf "edge %d-%d down in round %d" u v round)
              false up)
        (Graph.edges g))
    all_rounds;
  (* Nodes stay up under a pure link-flap process. *)
  Alcotest.(check bool) "nodes up" true (Dynamic.node_up s ~round:5 ~node:3);
  (* rate 0 is the identity; and a rebuilt schedule answers identically
     even when queried in a different round order. *)
  let s0 = Dynamic.link_flaps ~seed:3L ~rate:0.0 ~epoch:4 g in
  List.iter
    (fun round ->
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool) "rate 0 all up" true
            (Dynamic.usable s0 ~round ~u ~v))
        (Graph.edges g))
    all_rounds;
  let sa = Dynamic.link_flaps ~seed:99L ~rate:0.4 ~epoch:3 g in
  let sb = Dynamic.link_flaps ~seed:99L ~rate:0.4 ~epoch:3 g in
  let probe s rounds =
    List.concat_map
      (fun round ->
        List.map (fun (u, v) -> Dynamic.link_up s ~round ~u ~v) (Graph.edges g))
      rounds
  in
  (* Warm sb's epoch memo in reverse round order: the answers must not
     depend on which round was queried first. *)
  ignore (probe sb (List.rev all_rounds));
  Alcotest.(check bool) "same seed, same process (any query order)" true
    (probe sa all_rounds = probe sb all_rounds)

let test_churn_semantics () =
  let g = Gen.star 5 in
  let s = Dynamic.node_churn ~seed:21L ~rate:1.0 ~epoch:4 ~protect:[ 2 ] g in
  List.iter
    (fun round ->
      Alcotest.(check bool) "protected node up" true
        (Dynamic.node_up s ~round ~node:2);
      Alcotest.(check bool) "churned node down" false
        (Dynamic.node_up s ~round ~node:1);
      (* A link to a down endpoint is not usable even though the link
         itself never flaps. *)
      Alcotest.(check bool) "link to down node unusable" false
        (Dynamic.usable s ~round ~u:0 ~v:1))
    all_rounds

let test_t_interval_spanning () =
  let g = Gen.square_mesh 3 in
  let n = Graph.n g in
  let s = Dynamic.t_interval ~seed:13L ~t:3 g in
  let up_edges round =
    List.filter (fun (u, v) -> Dynamic.link_up s ~round ~u ~v) (Graph.edges g)
  in
  List.iter
    (fun round ->
      Alcotest.(check int)
        (Printf.sprintf "spanning tree in round %d" round)
        (n - 1)
        (List.length (up_edges round));
      let r = Dynamic.reachable s ~round ~from:0 in
      Alcotest.(check bool)
        (Printf.sprintf "connected in round %d" round)
        true
        (Array.for_all Fun.id r))
    (List.init 18 (fun i -> i + 1));
  (* The surviving tree is constant within a window... *)
  Alcotest.(check bool) "stable within window" true
    (up_edges 1 = up_edges 3);
  (* ...and changes across windows (seeded, so this is deterministic). *)
  let windows = List.init 6 (fun w -> up_edges ((w * 3) + 1)) in
  Alcotest.(check bool) "trees change between windows" true
    (List.exists (fun w -> w <> List.hd windows) windows)

let test_rewire_connected () =
  let g = Gen.square_mesh 3 in
  let s = Dynamic.periodic_rewire ~seed:17L ~period:5 ~keep:0.3 g in
  List.iter
    (fun round ->
      let r = Dynamic.reachable s ~round ~from:4 in
      Alcotest.(check bool) "always connected" true (Array.for_all Fun.id r))
    (List.init 25 (fun i -> i + 1))

let test_partition_and_describe_cut () =
  let g = Gen.complete 4 in
  let s = Dynamic.partition ~at:3 ~island:[ 1 ] g in
  Alcotest.(check bool) "usable before the cut" true
    (Dynamic.usable s ~round:2 ~u:1 ~v:3);
  List.iter
    (fun (u, v) ->
      let crosses = (u = 1) <> (v = 1) in
      Alcotest.(check bool)
        (Printf.sprintf "edge %d-%d after the cut" u v)
        (not crosses)
        (Dynamic.link_up s ~round:3 ~u ~v))
    (Graph.edges g);
  Alcotest.(check bool) "nodes stay up" true (Dynamic.node_up s ~round:9 ~node:1);
  let r = Dynamic.reachable s ~round:5 ~from:1 in
  Alcotest.(check bool) "island isolated" true
    (r.(1) && (not r.(0)) && (not r.(2)) && not r.(3));
  let d = Dynamic.describe_cut s ~round:5 ~from:1 in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("names the cut: " ^ d) true (contains d "cut off");
  Alcotest.(check bool) ("names the node: " ^ d) true (contains d "node 1")

let test_tree_attack_rotates () =
  let g = Gen.complete 5 in
  let tree = Tree.to_graph (Spanning.best_for_arrow g) in
  let s = Dynamic.tree_attack ~period:4 ~tree g in
  let severed round =
    List.filter (fun (u, v) -> not (Dynamic.link_up s ~round ~u ~v)) (Graph.edges g)
  in
  (* Exactly one tree edge down per epoch; non-tree edges untouched. *)
  List.iter
    (fun round ->
      match severed round with
      | [ (u, v) ] ->
          Alcotest.(check bool) "severed edge is a tree edge" true
            (Graph.has_edge tree u v)
      | cut ->
          Alcotest.fail
            (Printf.sprintf "round %d severed %d edges" round (List.length cut)))
    (List.init 20 (fun i -> i + 1));
  (* The attack cycles through the tree: across 4 epochs of the 4-edge
     tree every edge gets hit. *)
  let hits =
    List.sort_uniq compare (List.concat_map (fun e -> severed ((e * 4) + 1)) [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "every tree edge attacked" (Graph.m tree) (List.length hits);
  (* On a graph richer than the tree the network stays connected. *)
  let r = Dynamic.reachable s ~round:1 ~from:0 in
  Alcotest.(check bool) "richer graph survives" true (Array.for_all Fun.id r)

let test_next_hop () =
  let g = Gen.path 5 in
  let s = Dynamic.identity g in
  Alcotest.(check (option int)) "path next hop" (Some 1)
    (Dynamic.next_hop s ~round:1 ~src:0 ~dst:4);
  Alcotest.(check (option int)) "self" None
    (Dynamic.next_hop s ~round:1 ~src:2 ~dst:2);
  let cut = Dynamic.partition ~at:1 ~island:[ 4 ] g in
  Alcotest.(check (option int)) "severed" None
    (Dynamic.next_hop cut ~round:1 ~src:0 ~dst:4);
  Alcotest.(check (option int)) "unaffected side still routes" (Some 1)
    (Dynamic.next_hop cut ~round:1 ~src:0 ~dst:3)

(* ------------------------------------------------------------------ *)
(* The dynamic queue.                                                  *)

let check_report msg requests (rep : Dq.report) =
  (match rep.result.order with
  | Ok _ -> ()
  | Error e ->
      Alcotest.fail (Format.asprintf "%s: %a" msg Arrow.Order.pp_error e));
  Alcotest.(check int)
    (msg ^ ": all operations complete")
    (List.length requests)
    (List.length rep.result.outcomes);
  Alcotest.(check bool)
    (msg ^ ": monitors pass - "
    ^ Format.asprintf "%a" Monitor.pp_report rep.monitors)
    true
    (Monitor.all_pass rep.monitors)

(* Small instances: the dynamic queue floods knowledge, so keep the
   qcheck topologies below the big zoo sizes. *)
let small_instance_gen =
  let open QCheck2.Gen in
  let* pick = int_range 0 3 in
  let name, g =
    match pick with
    | 0 -> ("complete-6", Gen.complete 6)
    | 1 -> ("path-8", Gen.path 8)
    | 2 -> ("star-7", Gen.star 7)
    | _ -> ("mesh-3x3", Gen.square_mesh 3)
  in
  let n = Graph.n g in
  let* mask = list_size (return n) bool in
  let requests = List.filteri (fun i _ -> List.nth mask i) (Helpers.all_nodes n) in
  let requests = if requests = [] then [ n - 1 ] else requests in
  let* leader = int_range 0 (n - 1) in
  return (name, g, leader, requests)

let prop_dq_identity =
  QCheck2.Test.make ~count:60
    ~name:"dynamic queue: identity schedule queues everything"
    ~print:(fun (name, _, leader, requests) ->
      Printf.sprintf "%s leader=%d R={%s}" name leader
        (String.concat "," (List.map string_of_int requests)))
    small_instance_gen
    (fun (_, g, leader, requests) ->
      let rep = Dq.run ~leader ~graph:g ~requests () in
      Monitor.all_pass rep.monitors
      && (match rep.result.order with Ok _ -> true | Error _ -> false)
      && List.length rep.result.outcomes = List.length requests
      && rep.topo = Dynamic.no_stats)

let test_dq_t_interval () =
  let g = Gen.complete 6 in
  let requests = Helpers.all_nodes 6 in
  let sched = Dynamic.t_interval ~seed:41L ~t:4 g in
  let rep = Dq.run ~sched ~graph:g ~requests () in
  check_report "t-interval" requests rep

let test_dq_rewire () =
  let g = Gen.square_mesh 3 in
  let requests = [ 0; 2; 4; 6; 8 ] in
  let sched = Dynamic.periodic_rewire ~seed:23L ~period:6 g in
  let rep = Dq.run ~sched ~graph:g ~requests () in
  check_report "periodic rewire" requests rep

(* The acceptance scenario: one flap process over a 3x3 mesh. The
   static arrow protocol lives on a spanning tree of the mesh and dies
   the first time a tree-edge transmission is dropped; the dynamic
   queue and the routed arrow survive the same schedule. *)
let flap_graph = Gen.square_mesh 3
let flap_sched () = Dynamic.link_flaps ~seed:77L ~rate:0.4 ~epoch:4 flap_graph
let flap_requests = Helpers.all_nodes 9

let test_static_arrow_dies_under_flaps () =
  let tree = Spanning.best_for_arrow flap_graph in
  let protocol =
    Arrow.Protocol.one_shot_protocol ~tree ~requests:flap_requests ()
  in
  let monitors = [ Monitor.completes ~expected:(List.length flap_requests) ] in
  let dynamic = Dynamic.start (flap_sched ()) in
  let result =
    Engine.run ~dynamic
      ~tap:(Monitor.tap monitors)
      ~graph:(Tree.to_graph tree)
      ~config:(Engine.config_with_capacity (max 1 (Tree.max_degree tree)))
      ~protocol ()
  in
  let report = Monitor.finalise monitors in
  Alcotest.(check bool) "the schedule dropped arrow messages" true
    ((Dynamic.stats dynamic).link_drops > 0);
  Alcotest.(check bool) "static arrow loses operations" true
    (List.length result.completions < List.length flap_requests);
  Alcotest.(check bool) "completion monitor flags the loss" false
    (Monitor.all_pass report)

let test_dq_survives_flaps () =
  let rep = Dq.run ~sched:(flap_sched ()) ~graph:flap_graph ~requests:flap_requests () in
  check_report "dynamic queue under flaps" flap_requests rep

(* The routed arrow as the churn table runs it, next to its
   identity-schedule baseline. *)
let routed_arrow ~sched ~graph ~requests =
  let s =
    Countq.Run.run_churn ~tree:(Spanning.best_for_arrow graph) ~graph
      ~protocol:`Arrow_routed ~sched ~requests ()
  in
  Alcotest.(check int) "all operations complete" (List.length requests)
    s.c_completed;
  Alcotest.(check bool) "one total order" true s.c_valid;
  Alcotest.(check bool)
    ("monitors pass - " ^ Format.asprintf "%a" Monitor.pp_report s.c_monitors)
    true
    (Monitor.all_pass s.c_monitors);
  Option.get s.c_retry

let test_routed_arrow_survives_flaps () =
  let retry =
    routed_arrow ~sched:(flap_sched ()) ~graph:flap_graph ~requests:flap_requests
  in
  Alcotest.(check int) "no abandoned envelopes" 0 retry.gave_up;
  Alcotest.(check bool) "the repair layer worked for a living" true
    (retry.relayed > 0 || retry.retransmits > 0)

let test_routed_arrow_identity () =
  let g = Gen.path 6 in
  let retry =
    routed_arrow ~sched:(Dynamic.identity g) ~graph:g ~requests:[ 1; 3; 5 ]
  in
  Alcotest.(check int) "nothing relayed on the identity schedule" 0
    retry.relayed;
  Alcotest.(check int) "no retransmissions without drops" 0 retry.retransmits;
  Alcotest.(check bool) "envelopes moved" true (retry.data_sent > 0)

(* The routed arrow's handlers query the schedule from every lane of a
   sharded run (a fresh schedule per run, so the lanes also race to
   fill its epoch memo): the result, Reliable's tally and the
   schedule's drop tally must not depend on the shard count. *)
let test_routed_arrow_sharded () =
  let pool = Countq_util.Parallel.pool ~jobs:3 in
  let graph = Gen.square_mesh 4 in
  let tree = Spanning.best_for_arrow graph in
  let requests = Helpers.all_nodes 16 in
  let run shards =
    let sched = Dynamic.link_flaps ~seed:77L ~rate:0.4 ~epoch:4 graph in
    let dynamic = Dynamic.start sched in
    let protocol, h =
      Reliable.wrap ~ack_timeout:4 ~max_retries:8
        ~next_hop:(Dynamic.next_hop sched)
        (Arrow.Protocol.one_shot_protocol ~tree ~requests ())
    in
    let res =
      Shard.run ~shards ~pool ~dynamic ~graph
        ~config:(Engine.config_with_capacity (Graph.max_degree graph))
        ~protocol ()
    in
    (res, Reliable.stats h, Dynamic.stats dynamic)
  in
  let ((res, retry, _) as one) = run 1 in
  Alcotest.(check int) "every operation completes" 16
    (List.length res.completions);
  Alcotest.(check bool) "the envelopes took detours" true (retry.relayed > 0);
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "shards=%d = shards=1" k) true
        (run k = one))
    [ 2; 3 ]

(* Satellite: when the adversary permanently walls off the token
   holder, the stall verdict must say so, naming the partition. *)
let test_stall_names_partition () =
  let g = Gen.complete 4 in
  let sched = Dynamic.partition ~at:1 ~island:[ 0 ] g in
  let rep =
    Dq.run ~leader:0 ~sched ~progress_budget:16 ~graph:g ~requests:[ 1; 2; 3 ] ()
  in
  Alcotest.(check int) "nothing completes" 0 (List.length rep.result.outcomes);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let stalled_detail =
    List.find_map
      (fun (o : Monitor.outcome) ->
        match o.status with
        | Monitor.Stalled { detail; _ } -> detail
        | _ -> None)
      rep.monitors
  in
  match stalled_detail with
  | None -> Alcotest.fail "expected a Stalled verdict with a diagnosis"
  | Some d ->
      Alcotest.(check bool) ("diagnosis names the cut: " ^ d) true
        (contains d "cut off");
      Alcotest.(check bool) ("diagnosis names the holder: " ^ d) true
        (contains d "node 0")

(* Model check: the single-extender safety argument holds on EVERY
   interleaving of the receive-driven core, not just sampled ones. *)
let dq_check requests completions =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, pred = c.value in
        { Arrow.Types.op; pred; found_at = c.node; round = c.round })
      completions
  in
  if List.length outcomes <> List.length requests then
    Error "wrong number of completions"
  else
    match Arrow.Order.chain outcomes with
    | Ok _ -> Ok ()
    | Error e -> Error (Format.asprintf "%a" Arrow.Order.pp_error e)

let test_dq_all_schedules () =
  List.iter
    (fun (g, requests) ->
      let protocol = Dq.one_shot_protocol ~graph:g ~requests () in
      match Explore.run ~graph:g ~protocol ~check:(dq_check requests) () with
      | Explore.Exhaustive stats ->
          Alcotest.(check bool) "terminals checked" true (stats.terminal >= 1)
      | Explore.Budget_exhausted _ ->
          Alcotest.fail "dynamic-queue check instance too large")
    [
      (Gen.path 3, [ 1; 2 ]);
      (Gen.star 4, [ 1; 2; 3 ]);
      (Gen.complete 3, [ 0; 1; 2 ]);
    ]

let suite =
  [
    Helpers.qcheck identity_active;
    Helpers.qcheck identity_reference;
    Helpers.qcheck equiv_dynamic;
    Alcotest.test_case "link flaps: rates, protection, determinism" `Quick
      test_flaps_semantics;
    Alcotest.test_case "node churn: protection and usability" `Quick
      test_churn_semantics;
    Alcotest.test_case "t-interval: spanning tree per window" `Quick
      test_t_interval_spanning;
    Alcotest.test_case "periodic rewire: always connected" `Quick
      test_rewire_connected;
    Alcotest.test_case "partition: cut edges and diagnosis" `Quick
      test_partition_and_describe_cut;
    Alcotest.test_case "tree attack: rotates through the tree" `Quick
      test_tree_attack_rotates;
    Alcotest.test_case "next hop: shortest usable path" `Quick test_next_hop;
    Helpers.qcheck prop_dq_identity;
    Alcotest.test_case "dynamic queue: T-interval adversary" `Quick
      test_dq_t_interval;
    Alcotest.test_case "dynamic queue: periodic rewiring" `Quick test_dq_rewire;
    Alcotest.test_case "static arrow dies under link flaps" `Quick
      test_static_arrow_dies_under_flaps;
    Alcotest.test_case "dynamic queue survives the same flaps" `Quick
      test_dq_survives_flaps;
    Alcotest.test_case "routed arrow survives the same flaps" `Quick
      test_routed_arrow_survives_flaps;
    Alcotest.test_case "routed arrow: same at every shard count" `Quick
      test_routed_arrow_sharded;
    Alcotest.test_case "routed arrow: identity schedule" `Quick
      test_routed_arrow_identity;
    Alcotest.test_case "stall verdict names the partition" `Quick
      test_stall_names_partition;
    Alcotest.test_case "dynamic queue: all schedules (model check)" `Quick
      test_dq_all_schedules;
  ]
