(* The implicit front's own legs (the kernel behind it is pinned
   against Reference in test_equiv): injections are pinned against an
   on_wake wrapper, declared starters against an on_start that returns
   [] off the request set, and halt_after against an observer-driven
   halt. Plus the implicit topology families themselves:
   materialisation agrees with the Gen twins, and next_hop is strictly
   distance-decreasing. *)

module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Faults = Countq_simnet.Faults
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Implicit = Countq_topology.Implicit
module Bfs = Countq_topology.Bfs

(* One run's result (or limit payload), tap stream and fault
   tallies. *)
let capture ~observe ~plan run =
  let events = ref [] in
  let tap = if observe then Some (Helpers.recording_tap events) else None in
  let faults = Option.map Faults.start plan in
  let outcome = Helpers.outcome (fun () -> run ?faults ?tap ()) in
  (outcome, List.rev !events, Option.map Faults.stats faults)

(* ------------------------------------------------------------------ *)
(* Injections vs an on_wake wrapper: a schedule of (round, node) events
   fed through ?injections must replay exactly like an Engine protocol
   that asks at time 0 to be woken at those instants and then fires the
   same closures.                                                      *)

let quiet_hash ~seed ~graph =
  { (Helpers.hash_protocol ~starts:[] ~seed ~graph ()) with name = "qcheck-injected" }

let injection_gen =
  let open QCheck2.Gen in
  let* topo = Helpers.topology_gen in
  let n = Graph.n (snd topo) in
  let* seed = int_range 0 100_000 in
  let* k = int_range 0 10 in
  let* evs = list_size (return k) (pair (int_range 1 12) (int_range 0 (n - 1))) in
  let evs = List.sort_uniq compare evs in
  let* rc = int_range 1 2 in
  let* arb = int_range 0 2 in
  let* plan = int_range 0 8 in
  let* observe = bool in
  return (topo, seed, evs, (rc, 1, arb, 2_000), plan, observe)

let injection_print ((name, g), seed, evs, _, plan, observe) =
  Printf.sprintf "%s (n=%d) seed=%d events=[%s] plan=%s observe=%b" name
    (Graph.n g) seed
    (String.concat ";"
       (List.map (fun (t, v) -> Printf.sprintf "%d@%d" v t) evs))
    (Helpers.plan_label plan) observe

(* Under a crash plan a wake due on a down node waits for it, and fires
   as a no-op, while the matching injection is dropped: the waking run
   may then end a few idle rounds later. Those trailing round ends are
   the only difference. *)
let drop_idle_tail (outcome, events, stats) =
  let rec drop = function `Round_end _ :: rest -> drop rest | l -> l in
  (outcome, List.rev (drop (List.rev events)), stats)

let injection_prop ((_, graph), seed, evs, cfg, plan, observe) =
  let config = Helpers.config_of cfg in
  let base = quiet_hash ~seed ~graph in
  let ticking =
    {
      base with
      on_start =
        (fun ~node s ->
          (s, List.filter_map (fun (t, v) -> if v = node then Some (Engine.Wake t) else None) evs));
      on_wake =
        (fun ~round ~node s ->
          if List.mem (round, node) evs then Helpers.fire ~seed ~graph ~round ~node s
          else (s, []));
    }
  in
  let injections =
    Array.of_list
      (List.map
         (fun (at, node) ->
           { Event.at; node; inject = (fun s -> Helpers.fire ~seed ~graph ~round:at ~node s) })
         evs)
  in
  let plan = if plan = 0 then None else Some (Helpers.plan_of plan) in
  let a =
    capture ~observe ~plan (fun ?faults ?tap () ->
        Engine.run ?faults ?tap ~graph ~config ~protocol:ticking ())
  in
  let b =
    capture ~observe ~plan (fun ?faults ?tap () ->
        Event.run ?faults ?tap ~injections ~topo:(Implicit.of_graph graph)
          ~config ~protocol:base ())
  in
  drop_idle_tail a = drop_idle_tail b

let equiv_injections =
  QCheck2.Test.make ~count:150 ~name:"injections = on_tick wrapper"
    ~print:injection_print injection_gen injection_prop

(* ------------------------------------------------------------------ *)
(* Declared starters vs an on_start gated to the request subset.       *)

let starters_gen =
  let open QCheck2.Gen in
  let* name, g, requests = Helpers.instance_gen in
  let* seed = int_range 0 100_000 in
  let* rc = int_range 1 3 in
  let* arb = int_range 0 2 in
  let* plan = int_range 0 8 in
  return ((name, g, requests), seed, (rc, 1, arb, 2_000), plan)

let starters_print ((name, g, requests), seed, _, plan) =
  Printf.sprintf "%s (n=%d) R={%s} seed=%d plan=%s" name (Graph.n g)
    (String.concat "," (List.map string_of_int requests))
    seed (Helpers.plan_label plan)

let starters_prop ((_, graph, requests), seed, cfg, plan) =
  let config = Helpers.config_of cfg in
  let protocol = Helpers.hash_protocol ~starts:requests ~seed ~graph () in
  let plan = if plan = 0 then None else Some (Helpers.plan_of plan) in
  let a =
    capture ~observe:false ~plan (fun ?faults ?tap:_ () ->
        Engine.run ?faults ~graph ~config ~protocol ())
  in
  let b =
    capture ~observe:false ~plan (fun ?faults ?tap:_ () ->
        Event.run ?faults ~starters:requests ~topo:(Implicit.of_graph graph)
          ~config ~protocol ())
  in
  a = b

let equiv_starters =
  QCheck2.Test.make ~count:150 ~name:"?starters = gated on_start"
    ~print:starters_print starters_gen starters_prop

(* ------------------------------------------------------------------ *)
(* Laziness itself: a single ping on a million-node implicit list must
   touch two nodes, and a wrongly omitted starter must fail loudly.    *)

let one_ping =
  {
    Engine.name = "one-ping";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
    on_receive =
      (fun ~round ~node ~src:_ () s -> (s, [ Engine.Complete (node, round) ]));
    on_wake = Engine.no_wake;
  }

let test_million_node_ping_touches_two () =
  let topo = Implicit.list 1_000_000 in
  let stats = Event.fresh_stats () in
  let res =
    Event.run ~stats ~starters:[ 0 ] ~topo ~config:Engine.default_config
      ~protocol:one_ping ()
  in
  Alcotest.(check int) "one delivery" 1 res.messages;
  Alcotest.(check bool) "completed at node 1, round 1" true
    (res.completions = [ { Engine.node = 1; round = 1; value = (1, 1) } ]);
  Alcotest.(check int) "only the endpoints materialised" 2 stats.touched;
  Alcotest.(check int) "one busy round executed" 1 stats.executed_rounds;
  Alcotest.(check int) "one message in flight at peak" 1 stats.peak_in_flight

let test_non_starter_with_actions_rejected () =
  (* Node 1 would have spoken at time 0 but is not declared: its lazy
     on_start (triggered by 0's ping) must raise, not drop actions. *)
  let chatty =
    {
      one_ping with
      on_start = (fun ~node s -> (s, [ Engine.Send ((node + 1) mod 3, ()) ]));
    }
  in
  Alcotest.check_raises "undeclared starter fails loudly"
    (Invalid_argument
       "Event_engine.run: node 1 is not in ?starters but its on_start \
        produced actions")
    (fun () ->
      ignore
        (Event.run ~starters:[ 0 ] ~topo:(Implicit.ring 3)
           ~config:Engine.default_config ~protocol:chatty ()))

(* ------------------------------------------------------------------ *)
(* halt_after vs an observer-driven halt.                              *)

let ping_pong =
  {
    Engine.name = "pingpong";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
    on_receive = (fun ~round:_ ~node:_ ~src msg s -> (s, [ Engine.Send (src, msg) ]));
    on_wake = Engine.no_wake;
  }

let test_halt_after_matches_observer_halt () =
  let graph = Gen.path 2 in
  let config = { Engine.default_config with max_rounds = 10_000 } in
  let halted_at h =
    let tap =
      {
        Engine.no_tap with
        passive = false;
        on_round_end =
          (fun ~round ~in_flight:_ -> if round >= h then `Halt else `Continue);
      }
    in
    Engine.run ~tap ~graph ~config ~protocol:ping_pong ()
  in
  let event_halted h =
    Event.run ~halt_after:h ~topo:(Implicit.of_graph graph) ~config
      ~protocol:ping_pong ()
  in
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "halt_after %d = observer halt" h)
        true
        (event_halted h = halted_at h))
    [ 1; 7; 30 ];
  (* On a run that drains before the horizon, halt_after is inert. *)
  let quiet = Event.run ~topo:(Implicit.list 5) ~config ~protocol:one_ping () in
  let capped =
    Event.run ~halt_after:500 ~topo:(Implicit.list 5) ~config ~protocol:one_ping ()
  in
  Alcotest.(check bool) "halt_after beyond quiescence is inert" true
    (quiet = capped)

let test_round_limit_payloads_identical () =
  (* Ping-pong with one long-delayed message at max_rounds = 25: both
     engines raise with the same payload, held messages included. *)
  let graph = Gen.path 2 in
  let config = { Engine.default_config with max_rounds = 25 } in
  let plan () = Faults.start (Faults.delay_nth ~by:1_000 4) in
  let payload run =
    match run () with
    | (_ : (int * int) Engine.result) ->
        Alcotest.fail "expected Round_limit_exceeded"
    | exception Engine.Round_limit_exceeded
          { limit; outstanding; queued; held; busiest } ->
        (limit, outstanding, queued, held, busiest)
  in
  let ping_pong_c =
    {
      ping_pong with
      on_receive =
        (fun ~round:_ ~node:_ ~src msg s -> (s, [ Engine.Send (src, msg) ]));
    }
  in
  ignore ping_pong_c;
  let a =
    payload (fun () ->
        Engine.run ~faults:(plan ()) ~graph ~config ~protocol:ping_pong ())
  in
  let b =
    payload (fun () ->
        Event.run ~faults:(plan ()) ~topo:(Implicit.of_graph graph) ~config
          ~protocol:ping_pong ())
  in
  Alcotest.(check bool) "payloads identical" true (a = b);
  let _, _, _, held, _ = a in
  Alcotest.(check int) "the delayed message is held" 1 held

(* ------------------------------------------------------------------ *)
(* Implicit families vs their Gen twins.                               *)

let families =
  [
    ("list-1", Implicit.list 1, Gen.path 1);
    ("list-2", Implicit.list 2, Gen.path 2);
    ("list-9", Implicit.list 9, Gen.path 9);
    ("ring-3", Implicit.ring 3, Gen.cycle 3);
    ("ring-4", Implicit.ring 4, Gen.cycle 4);
    ("ring-11", Implicit.ring 11, Gen.cycle 11);
    ("mesh-1", Implicit.mesh ~dims:[ 1 ], Gen.mesh ~dims:[ 1 ]);
    ("mesh-5", Implicit.mesh ~dims:[ 5 ], Gen.mesh ~dims:[ 5 ]);
    ("mesh-2x3", Implicit.mesh ~dims:[ 2; 3 ], Gen.mesh ~dims:[ 2; 3 ]);
    ("mesh-4x4", Implicit.mesh ~dims:[ 4; 4 ], Gen.mesh ~dims:[ 4; 4 ]);
    ("mesh-3x4x2", Implicit.mesh ~dims:[ 3; 4; 2 ], Gen.mesh ~dims:[ 3; 4; 2 ]);
    ("mesh-1x5", Implicit.mesh ~dims:[ 1; 5 ], Gen.mesh ~dims:[ 1; 5 ]);
    ("torus-3", Implicit.torus ~dims:[ 3 ], Gen.torus ~dims:[ 3 ]);
    ("torus-2x3", Implicit.torus ~dims:[ 2; 3 ], Gen.torus ~dims:[ 2; 3 ]);
    ("torus-3x3", Implicit.torus ~dims:[ 3; 3 ], Gen.torus ~dims:[ 3; 3 ]);
    ("torus-5x4", Implicit.torus ~dims:[ 5; 4 ], Gen.torus ~dims:[ 5; 4 ]);
    ( "torus-3x4x5",
      Implicit.torus ~dims:[ 3; 4; 5 ],
      Gen.torus ~dims:[ 3; 4; 5 ] );
    ("tree-1-7", Implicit.tree ~arity:1 7, Gen.balanced_tree_on ~arity:1 7);
    ("tree-2-1", Implicit.tree ~arity:2 1, Gen.balanced_tree_on ~arity:2 1);
    ("tree-2-12", Implicit.tree ~arity:2 12, Gen.balanced_tree_on ~arity:2 12);
    ("tree-3-20", Implicit.tree ~arity:3 20, Gen.balanced_tree_on ~arity:3 20);
    ("tree-4-9", Implicit.tree ~arity:4 9, Gen.balanced_tree_on ~arity:4 9);
  ]

let test_families_match_gen () =
  List.iter
    (fun (name, imp, twin) ->
      Alcotest.(check bool)
        (name ^ ": materialises to the Gen twin")
        true
        (Graph.equal (Implicit.materialise imp) twin))
    families

let test_neighbors_degree_agree () =
  List.iter
    (fun (name, imp, twin) ->
      let n = Implicit.n imp in
      Alcotest.(check int) (name ^ ": n") (Graph.n twin) n;
      Alcotest.(check int)
        (name ^ ": max_degree")
        (Graph.max_degree twin) (Implicit.max_degree imp);
      for v = 0 to n - 1 do
        let a = Implicit.neighbors imp v in
        Alcotest.(check (array int))
          (Printf.sprintf "%s: neighbors %d" name v)
          (Graph.neighbors twin v) a;
        Alcotest.(check int)
          (Printf.sprintf "%s: degree %d" name v)
          (Array.length a) (Implicit.degree imp v);
        Array.iteri
          (fun k u ->
            Alcotest.(check int)
              (Printf.sprintf "%s: neighbor %d %d" name v k)
              u
              (Implicit.neighbor imp v k))
          a
      done)
    families

let test_next_hop_decreases_distance () =
  List.iter
    (fun (name, imp, twin) ->
      let n = Implicit.n imp in
      for dst = 0 to n - 1 do
        let dist = Bfs.distances twin dst in
        for src = 0 to n - 1 do
          if src <> dst then begin
            let h = Implicit.next_hop imp ~src ~dst in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d->%d hop %d is a neighbour" name src dst h)
              true
              (Array.exists (( = ) h) (Implicit.neighbors imp src));
            Alcotest.(check int)
              (Printf.sprintf "%s: %d->%d strictly closer" name src dst)
              (dist.(src) - 1)
              dist.(h)
          end
        done
      done)
    families

(* Random grids of 1-3 dimensions, sides 1-6, with and without wrap:
   the implicit neighbourhoods are exactly the Gen twin's adjacency. *)
let random_grids_match_gen =
  QCheck2.Test.make ~count:200 ~name:"random grids: neighbors = Gen twin"
    ~print:(fun (wrap, dims) ->
      Printf.sprintf "%s %s"
        (if wrap then "torus" else "mesh")
        (String.concat "x" (List.map string_of_int dims)))
    QCheck2.Gen.(pair bool (list_size (int_range 1 3) (int_range 1 6)))
    (fun (wrap, dims) ->
      let imp = if wrap then Implicit.torus ~dims else Implicit.mesh ~dims in
      let twin = if wrap then Gen.torus ~dims else Gen.mesh ~dims in
      Implicit.n imp = Graph.n twin
      && List.for_all
           (fun v ->
             let a = Implicit.neighbors imp v in
             a = Graph.neighbors twin v && Array.length a = Implicit.degree imp v)
           (List.init (Graph.n twin) Fun.id))

let of_graph_next_hop =
  QCheck2.Test.make ~count:100 ~name:"of_graph next_hop strictly closer"
    ~print:Helpers.topology_print Helpers.topology_gen
    (fun (_, g) ->
      let imp = Implicit.of_graph g in
      let n = Graph.n g in
      n < 2
      ||
      let ok = ref true in
      for dst = 0 to min (n - 1) 9 do
        let dist = Bfs.distances g dst in
        for src = 0 to n - 1 do
          if src <> dst then begin
            let h = Implicit.next_hop imp ~src ~dst in
            if dist.(h) <> dist.(src) - 1 then ok := false
          end
        done
      done;
      !ok)

let test_closed_form_routing_at_scale () =
  (* Spot-checks where materialisation would be absurd. *)
  let l = Implicit.list 10_000_000 in
  Alcotest.(check int) "list forward" 5_000_001
    (Implicit.next_hop l ~src:5_000_000 ~dst:9_999_999);
  Alcotest.(check int) "list backward" 4_999_999
    (Implicit.next_hop l ~src:5_000_000 ~dst:17);
  let r = Implicit.ring 1_000_001 in
  Alcotest.(check int) "ring wraps the short way" 0
    (Implicit.next_hop r ~src:1_000_000 ~dst:3);
  let t = Implicit.tree ~arity:2 (1 lsl 22) in
  Alcotest.(check int) "tree climbs to the parent" (((1 lsl 20) - 1) / 2)
    (Implicit.next_hop t ~src:((1 lsl 20) - 1) ~dst:0);
  Alcotest.(check int) "tree descends to the child" 1
    (Implicit.next_hop t ~src:0 ~dst:(1 lsl 21));
  Alcotest.(check int) "tree descends to the other child" 2
    (Implicit.next_hop t ~src:0 ~dst:6)

let test_parse () =
  let ok spec label n =
    match Implicit.parse spec with
    | Ok t ->
        Alcotest.(check string) (spec ^ ": label") label (Implicit.label t);
        Alcotest.(check int) (spec ^ ": n") n (Implicit.n t)
    | Error (`Msg m) -> Alcotest.fail (spec ^ " rejected: " ^ m)
  in
  ok "list:1000000" "list-1000000" 1_000_000;
  ok "path:7" "list-7" 7;
  ok "ring:100" "ring-100" 100;
  ok "cycle:2" "ring-3" 3;
  ok "mesh:9" "mesh-3x3" 9;
  ok "mesh:4x5" "mesh-4x5" 20;
  ok "torus:2" "torus-3x3" 9;
  ok "torus:10x10" "torus-10x10" 100;
  ok "tree:15" "tree-2-15" 15;
  ok "binary-tree" "tree-2-1024" 1024;
  ok "tree:3:1093" "tree-3-1093" 1093;
  ok "tree:64:1000" "tree-64-1000" 1000;
  (match Implicit.parse "tree:64x1000" with
  | Ok _ -> Alcotest.fail "tree:64x1000 should be rejected"
  | Error (`Msg m) ->
      Alcotest.(check bool)
        ("the error names tree:ARITY:N: " ^ m)
        true
        (Helpers.contains m "ARITY:N"));
  List.iter
    (fun bad ->
      match Implicit.parse bad with
      | Ok _ -> Alcotest.fail (bad ^ " should be rejected")
      | Error _ -> ())
    [
      "torus:2x3"; "mesh:0"; "list:axb"; "klein-bottle:4"; "mesh:";
      "mesh:3:9"; "tree:0:7"; "tree:3:1093:2";
      (* Sizes past the 2^30-node ceiling must be an Error up front,
         not an allocation failure later — including dimension
         products that overflow the int. *)
      "list:1073741825"; "torus:100000x100000x100000";
      "mesh:3037000500x3037000500"; "tree:2:1073741825";
    ]

let suite =
  [
    Helpers.qcheck equiv_injections;
    Helpers.qcheck equiv_starters;
    Alcotest.test_case "million-node ping touches two nodes" `Quick
      test_million_node_ping_touches_two;
    Alcotest.test_case "undeclared starter with actions rejected" `Quick
      test_non_starter_with_actions_rejected;
    Alcotest.test_case "halt_after = observer halt" `Quick
      test_halt_after_matches_observer_halt;
    Alcotest.test_case "round-limit payloads identical" `Quick
      test_round_limit_payloads_identical;
    Alcotest.test_case "implicit families materialise to Gen twins" `Quick
      test_families_match_gen;
    Alcotest.test_case "neighbors/degree/neighbor agree" `Quick
      test_neighbors_degree_agree;
    Alcotest.test_case "next_hop strictly decreases distance" `Quick
      test_next_hop_decreases_distance;
    Helpers.qcheck random_grids_match_gen;
    Helpers.qcheck of_graph_next_hop;
    Alcotest.test_case "closed-form routing at scale" `Quick
      test_closed_form_routing_at_scale;
    Alcotest.test_case "parse" `Quick test_parse;
  ]
