(* The sharded fronts' own legs (the kernel behind every front, at
   shards 1-3 with every Reference-accepted hook, is pinned against
   Reference in test_equiv): telemetry windows against the eager
   single-shard run, the event path with injections, starters,
   halt_after, stats and a streaming sink against Event_engine.run,
   the combining funnel across all three fronts, and partition edge
   cases — more shards than nodes, singleton and empty shards, and
   hand-built placements. *)

module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Shard = Countq_simnet.Shard
module Faults = Countq_simnet.Faults
module Dynamic = Countq_simnet.Dynamic
module Metrics = Countq_simnet.Metrics
module Telemetry = Countq_simnet.Telemetry
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Implicit = Countq_topology.Implicit
module Partition = Countq_topology.Partition
module Parallel = Countq_util.Parallel
module Load = Countq.Load

(* Two helper lanes, shared by every test: on a single-core box the
   shard counts below still exercise real worker domains (the pin is
   about bit-identicality, not speed). *)
let pool = Parallel.pool ~jobs:3

let hash_protocol = Helpers.hash_protocol
let plan_of = Helpers.plan_of
let dyn_of = Helpers.dyn_of
let config_of = Helpers.config_of

(* ------------------------------------------------------------------ *)
(* Telemetry windows: a sharded run's replayed tap events must fill
   the same windows as the single-shard run, under faults and churn.  *)

let capture_tel which ~dyn ~plan ~graph ~config ~protocol =
  let faults = Option.map Faults.start plan in
  let dynamic = Option.map Dynamic.start (dyn_of graph dyn) in
  let tl = Telemetry.create ~windows:8 ~window_size:4 () in
  let outcome =
    Helpers.outcome (fun () ->
        match which with
        | `Engine ->
            Engine.run ?faults ?dynamic ~tap:(Telemetry.tap tl) ~graph ~config
              ~protocol ()
        | `Shard k ->
            Shard.run ~shards:k ~pool ?faults ?dynamic ~tap:(Telemetry.tap tl)
              ~graph ~config ~protocol ())
  in
  (outcome, Telemetry.windows tl, Telemetry.evicted tl)

let telemetry_gen =
  let open QCheck2.Gen in
  let* topo = Helpers.topology_gen in
  let* seed = int_range 0 100_000 in
  let* rc = int_range 1 3 in
  let* sc = int_range 1 3 in
  let* arb = int_range 0 2 in
  let* maxr = oneofl [ 4; 2_000 ] in
  let* plan = int_range 0 8 in
  let* dyn = int_range 0 3 in
  let* shards = oneofl [ 2; 3; 5 ] in
  let* wakes = bool in
  return (topo, seed, (rc, sc, arb, maxr), plan, dyn, (shards, wakes))

let telemetry_print ((name, g), seed, cfg, plan, dyn, (k, wakes)) =
  Printf.sprintf "%s (n=%d) seed=%d %s plan=%s dyn=%s shards=%d wakes=%b" name
    (Graph.n g) seed (Helpers.config_label cfg) (Helpers.plan_label plan)
    (Helpers.dyn_label dyn) k wakes

let telemetry_prop ((_, graph), seed, cfg, plan, dyn, (shards, wakes)) =
  let config = config_of cfg in
  let protocol = hash_protocol ~wakes ~seed ~graph () in
  let plan = if plan = 0 then None else Some (plan_of plan) in
  capture_tel `Engine ~dyn ~plan ~graph ~config ~protocol
  = capture_tel (`Shard shards) ~dyn ~plan ~graph ~config ~protocol

let equiv_telemetry =
  QCheck2.Test.make ~count:120 ~name:"sharded = engine (telemetry windows)"
    ~print:telemetry_print telemetry_gen telemetry_prop

(* ------------------------------------------------------------------ *)
(* The event path: injections, starters, halt_after, stats and a
   streaming sink over implicit topologies.                            *)

let capture_event which ~plan ~dyn ~evs ~starts ~halt ~graph ~config ~protocol =
  let faults = Option.map Faults.start plan in
  let dynamic = Option.map Dynamic.start (dyn_of graph dyn) in
  let stats = Event.fresh_stats () in
  let sunk = ref [] in
  let sink c = sunk := c :: !sunk in
  let injections =
    Array.of_list
      (List.map
         (fun (at, node, inject) -> { Event.at; node; inject })
         evs)
  in
  let topo = Implicit.of_graph graph in
  let outcome =
    match
      match which with
      | `Event ->
          Event.run ?faults ?dynamic ~sink ~injections ?halt_after:halt ~stats
            ?starters:starts ~topo ~config ~protocol ()
      | `Shard k ->
          Shard.run_implicit ~shards:k ~pool ?faults ?dynamic ~sink ~injections
            ?halt_after:halt ~stats ?starters:starts ~topo ~config ~protocol ()
    with
    | r -> Ok r
    | exception Engine.Round_limit_exceeded
          { limit; outstanding; queued; held; busiest } ->
        Error (limit, outstanding, queued, held, busiest)
  in
  ( outcome,
    List.rev !sunk,
    (stats.Event.touched, stats.Event.peak_in_flight, stats.Event.executed_rounds),
    Option.map Faults.stats faults )

let event_gen =
  let open QCheck2.Gen in
  let* name, g, requests = Helpers.instance_gen in
  let n = Graph.n g in
  let* seed = int_range 0 100_000 in
  let* k = int_range 0 8 in
  let* evs = list_size (return k) (pair (int_range 1 12) (int_range 0 (n - 1))) in
  let evs = List.sort_uniq compare evs in
  let* rc = int_range 1 2 in
  let* arb = int_range 0 2 in
  let* plan = int_range 0 8 in
  let* dyn = int_range 0 3 in
  let* halt = oneofl [ None; Some 6 ] in
  let* shards = oneofl [ 2; 4; 7 ] in
  return ((name, g, requests), seed, evs, (rc, 1, arb, 2_000), plan, dyn, halt, shards)

let event_print ((name, g, requests), seed, evs, _, plan, dyn, halt, k) =
  Printf.sprintf
    "%s (n=%d) R={%s} seed=%d events=[%s] plan=%s dyn=%s halt=%s shards=%d"
    name (Graph.n g)
    (String.concat "," (List.map string_of_int requests))
    seed
    (String.concat ";"
       (List.map (fun (t, v) -> Printf.sprintf "%d@%d" v t) evs))
    (Helpers.plan_label plan) (Helpers.dyn_label dyn)
    (match halt with None -> "-" | Some h -> string_of_int h)
    k

let event_prop ((_, graph, requests), seed, evs, cfg, plan, dyn, halt, shards) =
  let config = config_of cfg in
  let protocol = hash_protocol ~starts:requests ~seed ~graph () in
  let evs =
    List.map
      (fun (at, node) -> (at, node, fun s -> Helpers.fire ~seed ~graph ~round:at ~node s))
      evs
  in
  let plan = if plan = 0 then None else Some (plan_of plan) in
  let starts = Some requests in
  let a =
    capture_event `Event ~plan ~dyn ~evs ~starts ~halt ~graph ~config ~protocol
  in
  let b =
    capture_event (`Shard shards) ~plan ~dyn ~evs ~starts ~halt ~graph ~config
      ~protocol
  in
  a = b

let equiv_event =
  QCheck2.Test.make ~count:120
    ~name:"sharded = event engine (injections, starters, halt, stats, sink)"
    ~print:event_print event_gen event_prop

(* ------------------------------------------------------------------ *)
(* The combining funnel is the one protocol built to straddle all
   three engines at once (materialised tree on Engine.run, index
   arithmetic on Event.run and Shard.run_implicit), so its pin runs
   the SAME request set through all three — with metrics and fault
   plans attached — and demands one answer.                            *)

module Funnel = Countq_counting.Funnel
module Tree = Countq_topology.Tree

let funnel_gen =
  let open QCheck2.Gen in
  let* arity = int_range 2 5 in
  let* n = int_range 2 60 in
  let* k = int_range 0 10 in
  let* reqs = list_size (return k) (int_range 0 (n - 1)) in
  let* rc = int_range 1 3 in
  let* plan = int_range 0 8 in
  let* with_metrics = bool in
  let* shards = oneofl [ 2; 3; 5; 8 ] in
  return (arity, n, List.sort_uniq compare reqs, rc, plan, with_metrics, shards)

let funnel_print (arity, n, requests, rc, plan, wm, k) =
  Printf.sprintf
    "tree:%d n=%d R={%s} rcv=%d plan=%s metrics=%b shards=%d" arity n
    (String.concat "," (List.map string_of_int requests))
    rc
    (Faults.label (plan_of plan))
    wm k

let funnel_prop (arity, n, requests, rc, plan, with_metrics, shards) =
  let topo = Implicit.tree ~arity n in
  let graph = Implicit.materialise topo in
  let tree = Tree.of_graph graph ~root:0 in
  let config = { Engine.default_config with receive_capacity = rc } in
  let plan = if plan = 0 then None else Some (plan_of plan) in
  let capture run =
    let faults = Option.map Faults.start plan in
    let metrics = if with_metrics then Some (Metrics.create ~graph) else None in
    let outcome =
      match run ?faults ?tap:(Option.map Metrics.tap metrics) () with
      | r -> Ok r
      | exception Engine.Round_limit_exceeded
            { limit; outstanding; queued; held; busiest } ->
          Error (limit, outstanding, queued, held, busiest)
    in
    ( outcome,
      Option.map Faults.stats faults,
      Option.map (fun m -> (Metrics.per_node m, Metrics.per_edge m)) metrics )
  in
  let a =
    capture (fun ?faults ?tap () ->
        Engine.run ?faults ?tap ~graph ~config
          ~protocol:(Funnel.one_shot_protocol ~tree ~requests ())
          ())
  in
  let b =
    capture (fun ?faults ?tap () ->
        Event.run ?faults ?tap ~starters:requests ~topo ~config
          ~protocol:(Funnel.implicit_protocol ~topo ~requests ())
          ())
  in
  let c =
    capture (fun ?faults ?tap () ->
        Shard.run_implicit ~shards ~pool ?faults ?tap ~starters:requests
          ~topo ~config
          ~protocol:(Funnel.implicit_protocol ~topo ~requests ())
          ())
  in
  a = b && b = c

let equiv_funnel =
  QCheck2.Test.make ~count:120
    ~name:"funnel pinned across engine / event / sharded (metrics, faults)"
    ~print:funnel_print funnel_gen funnel_prop

(* ------------------------------------------------------------------ *)
(* The tap replay at the barrier: `Halt stops a sharded run.          *)

let test_observer_halt_sharded () =
  (* `Halt from on_round_end actually stops a sharded funnel run, at
     the same round as the event engine. *)
  let topo = Implicit.tree ~arity:2 31 in
  let requests = [ 3; 9; 17; 30 ] in
  let run halt_at which =
    let evs = ref [] in
    let tap =
      {
        Engine.no_tap with
        passive = false;
        on_round_end =
          (fun ~round ~in_flight ->
            evs := (round, in_flight) :: !evs;
            match halt_at with
            | Some h when round >= h -> `Halt
            | _ -> `Continue);
      }
    in
    let protocol = Funnel.implicit_protocol ~topo ~requests () in
    let res =
      match which with
      | `Event ->
          Event.run ~tap ~starters:requests ~topo
            ~config:Engine.default_config ~protocol ()
      | `Shard k ->
          Shard.run_implicit ~shards:k ~pool ~tap ~starters:requests
            ~topo ~config:Engine.default_config ~protocol ()
    in
    (res, List.rev !evs)
  in
  let full_e, full_obs_e = run None `Event in
  let full_s, full_obs_s = run None (`Shard 3) in
  Alcotest.(check bool) "full funnel run pinned" true (full_e = full_s);
  Alcotest.(check bool) "full observer stream pinned" true
    (full_obs_e = full_obs_s);
  let halted_e, obs_e = run (Some 2) `Event in
  let halted_s, obs_s = run (Some 2) (`Shard 3) in
  Alcotest.(check bool) "halted run pinned" true (halted_e = halted_s);
  Alcotest.(check bool) "halted observer stream pinned" true (obs_e = obs_s);
  Alcotest.(check int) "halt at round 2 stops the run" 2 halted_s.rounds;
  Alcotest.(check bool) "halt cut the run short" true
    (halted_s.rounds < full_s.rounds)

(* ------------------------------------------------------------------ *)
(* Partition edge cases.                                               *)

let test_contiguous_more_shards_than_nodes () =
  let p = Partition.contiguous ~n:5 ~shards:9 in
  Partition.validate p;
  Alcotest.(check (list int))
    "five singletons then empties"
    [ 1; 1; 1; 1; 1; 0; 0; 0; 0 ]
    (Array.to_list (Partition.shard_sizes p));
  (* Sharded run with more shards than nodes is still pinned. *)
  let graph = Gen.path 5 in
  let protocol = hash_protocol ~seed:17 ~graph () in
  let seq = Engine.run ~graph ~config:Engine.default_config ~protocol () in
  let sh =
    Shard.run ~shards:9 ~pool ~graph ~config:Engine.default_config ~protocol ()
  in
  Alcotest.(check bool) "9 shards on 5 nodes pinned" true (seq = sh)

(* The contiguous owner is worked out per call; it must be the range
   table it replaced, on every small (n, shards). *)
let test_contiguous_owner_formula () =
  for n = 0 to 300 do
    for shards = 1 to 9 do
      let base = n / shards and extra = n mod shards in
      let split = extra * (base + 1) in
      let table =
        Array.init n (fun v ->
            if v < split then v / (base + 1) else extra + ((v - split) / base))
      in
      let p = Partition.contiguous ~n ~shards in
      let owner = Partition.owner p in
      Partition.validate p;
      if Partition.size p <> n || Array.init n owner <> table then
        Alcotest.failf "n=%d shards=%d: owner differs from the range table" n shards
    done
  done

let test_singleton_graph () =
  let graph = Gen.complete 1 in
  let protocol = hash_protocol ~seed:3 ~graph () in
  let seq = Engine.run ~graph ~config:Engine.default_config ~protocol () in
  let sh =
    Shard.run ~shards:4 ~pool ~graph ~config:Engine.default_config ~protocol ()
  in
  Alcotest.(check bool) "n=1 pinned for shards=4" true (seq = sh)

let test_greedy_partition_valid () =
  List.iter
    (fun (label, graph) ->
      List.iter
        (fun k ->
          let p = Partition.greedy ~graph ~shards:k in
          Partition.validate p;
          let total =
            Array.fold_left ( + ) 0 (Partition.shard_sizes p)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s k=%d covers all nodes" label k)
            (Graph.n graph) total)
        [ 1; 2; 3; 8 ])
    [
      ("path-13", Gen.path 13);
      ("star-9", Gen.star 9);
      ("mesh-4x4", Gen.square_mesh 4);
      ("complete-6", Gen.complete 6);
    ]

let test_greedy_cut_smaller_than_scatter () =
  (* On a path, contiguous ranges are optimal; greedy BFS growth must
     find a cut no worse than an interleaved placement. *)
  let graph = Gen.path 32 in
  let nbr v = Graph.neighbors graph v in
  let greedy = Partition.greedy ~graph ~shards:4 in
  let scatter =
    Partition.Table { shards = 4; owner = Array.init 32 (fun v -> v mod 4) }
  in
  Partition.validate scatter;
  let gc = Partition.cut_edges greedy ~neighbors:nbr in
  let sc = Partition.cut_edges scatter ~neighbors:nbr in
  Alcotest.(check bool)
    (Printf.sprintf "greedy cut %d <= scatter cut %d" gc sc)
    true (gc <= sc);
  Alcotest.(check int) "path-32 into 4 ranges cuts 3 edges" 3 gc

let test_custom_partition_pinned () =
  (* Bit-identicality holds for ANY valid placement, including the
     worst interleaved one — only performance depends on the cut. *)
  let graph = Gen.cycle 12 in
  let owner = Array.init 12 (fun v -> v mod 3) in
  let scatter = Partition.Table { shards = 3; owner } in
  Partition.validate scatter;
  let protocol = hash_protocol ~seed:23 ~graph () in
  let plan () = Faults.start (plan_of 6) in
  let config = { Engine.default_config with receive_capacity = 2 } in
  let seq = Engine.run ~faults:(plan ()) ~graph ~config ~protocol () in
  let sh =
    Shard.run ~partition:scatter ~pool ~faults:(plan ()) ~graph ~config
      ~protocol ()
  in
  Alcotest.(check bool) "interleaved partition pinned under chaos plan" true
    (seq = sh)

let test_empty_shards_under_churn () =
  (* A sparse dynamic graph whose nodes churn out: shards can spend
     whole epochs with every member down (effectively empty) and the
     run must still be pinned. *)
  let graph = Gen.path 6 in
  let dynamic () =
    Dynamic.start (Dynamic.node_churn ~seed:2L ~rate:0.6 ~epoch:2 graph)
  in
  let protocol = hash_protocol ~seed:31 ~graph () in
  let config = Engine.default_config in
  let seq = Engine.run ~dynamic:(dynamic ()) ~graph ~config ~protocol () in
  let sh =
    Shard.run ~shards:6 ~pool ~dynamic:(dynamic ()) ~graph ~config ~protocol ()
  in
  Alcotest.(check bool) "six singleton shards under churn pinned" true (seq = sh)

let test_cross_shard_ordering_under_faults () =
  (* Deterministic fault plans consume one global decision stream; a
     2-shard cut across a dense flood must replay it exactly. *)
  let graph = Gen.complete 8 in
  let protocol = hash_protocol ~seed:77 ~graph () in
  let config = { Engine.default_config with send_capacity = 2 } in
  List.iter
    (fun plan_id ->
      let plan () = Faults.start (plan_of plan_id) in
      let m_seq = Metrics.create ~graph in
      let m_sh = Metrics.create ~graph in
      let seq =
        Engine.run ~faults:(plan ()) ~tap:(Metrics.tap m_seq) ~graph ~config
          ~protocol ()
      in
      let sh =
        Shard.run ~shards:2 ~pool ~faults:(plan ()) ~tap:(Metrics.tap m_sh)
          ~graph ~config ~protocol ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "plan %d: results pinned" plan_id)
        true (seq = sh);
      Alcotest.(check bool)
        (Printf.sprintf "plan %d: metrics pinned" plan_id)
        true
        (Metrics.per_node m_seq = Metrics.per_node m_sh
        && Metrics.per_edge m_seq = Metrics.per_edge m_sh))
    [ 1; 2; 3; 6 ]

let test_round_limit_payloads_identical () =
  let graph = Gen.path 2 in
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
  let config = { Engine.default_config with max_rounds = 25 } in
  let payload run =
    match run () with
    | (_ : unit Engine.result) -> Alcotest.fail "expected Round_limit_exceeded"
    | exception Engine.Round_limit_exceeded
          { limit; outstanding; queued; held; busiest } ->
        (limit, outstanding, queued, held, busiest)
  in
  let a = payload (fun () -> Engine.run ~graph ~config ~protocol ()) in
  let b =
    payload (fun () -> Shard.run ~shards:2 ~pool ~graph ~config ~protocol ())
  in
  Alcotest.(check bool) "payloads identical" true (a = b)

let test_sharded_lazy_event_run () =
  (* The event path stays cheap in work (if not in O(n) setup): one
     ping across a 50k-node list, sharded, with exact stats. *)
  let topo = Implicit.list 50_000 in
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
  in
  let stats = Event.fresh_stats () in
  let res =
    Shard.run_implicit ~shards:4 ~pool ~stats ~starters:[ 0 ] ~topo
      ~config:Engine.default_config ~protocol:one_ping ()
  in
  Alcotest.(check int) "one delivery" 1 res.messages;
  Alcotest.(check bool) "completed at node 1, round 1" true
    (res.completions = [ { Engine.node = 1; round = 1; value = (1, 1) } ]);
  Alcotest.(check int) "two nodes touched" 2 stats.touched;
  Alcotest.(check int) "one executed round" 1 stats.executed_rounds;
  Alcotest.(check int) "peak one in flight" 1 stats.peak_in_flight

let test_tick_protocol_pinned () =
  (* Graph path supports waking protocols: each shard wakes its own
     nodes. Every node wakes in rounds 1-3 and sends to its successor. *)
  let graph = Gen.cycle 9 in
  let protocol =
    {
      Engine.name = "tick-flood";
      initial_state = (fun v -> v);
      on_start = (fun ~node:_ s -> (s, [ Engine.Wake 1 ]));
      on_receive =
        (fun ~round ~node ~src:_ m s ->
          (s + m, if round > 6 then [ Engine.Complete (node, s + m) ] else []));
      on_wake =
        (fun ~round ~node s ->
          let send = Engine.Send ((node + 1) mod 9, Helpers.mix round node) in
          (s, if round < 3 then [ send; Engine.Wake (round + 1) ] else [ send ]));
    }
  in
  let config = Engine.default_config in
  let seq = Engine.run ~graph ~config ~protocol () in
  let sh = Shard.run ~shards:3 ~pool ~graph ~config ~protocol () in
  Alcotest.(check bool) "ticking protocol pinned" true (seq = sh)

(* Lazily started sharded runs compute a node's initial state at its
   first touch, on its owning lane; only one filler state (node 0's) is
   computed up front. A relay: every 7th node starts a token that walks
   three hops right, each hop bumping the receiver's state in place —
   so a slot still sharing the filler would leak one node's hits into
   another's. *)
type relay = { mutable hits : int }

let relay_protocol ~n calls =
  {
    Engine.name = "relay";
    initial_state =
      (fun v ->
        Atomic.incr calls;
        { hits = v land 3 });
    on_start =
      (fun ~node s ->
        if node mod 7 = 0 && node + 1 < n then (s, [ Engine.Send (node + 1, 3) ])
        else (s, []));
    on_receive =
      (fun ~round:_ ~node ~src:_ ttl s ->
        s.hits <- s.hits + ttl;
        if ttl > 1 && node + 1 < n then (s, [ Engine.Send (node + 1, ttl - 1) ])
        else (s, [ Engine.Complete (node, s.hits) ]));
    on_wake = Engine.no_wake;
  }

let test_lazy_initial_states () =
  let n = 2_000 in
  let topo = Implicit.list n in
  let starters = List.filter (fun v -> v mod 7 = 0) (List.init n Fun.id) in
  let run shards =
    let calls = Atomic.make 0 in
    let stats = Event.fresh_stats () in
    let res =
      Shard.run_implicit ~shards ~pool ~stats ~starters ~topo
        ~config:Engine.default_config ~protocol:(relay_protocol ~n calls) ()
    in
    (res, stats.touched, Atomic.get calls)
  in
  let seq, touched, seq_calls = run 1 in
  Alcotest.(check int) "shards 1: one call per touched node" touched seq_calls;
  Alcotest.(check bool) "fewer touched than n" true (touched < n);
  List.iter
    (fun shards ->
      let res, t, calls = run shards in
      Alcotest.(check int) (Printf.sprintf "shards %d: touched" shards) touched t;
      Alcotest.(check int)
        (Printf.sprintf "shards %d: touched + the filler" shards)
        (touched + 1) calls;
      Alcotest.(check bool)
        (Printf.sprintf "shards %d: same result as shards 1" shards)
        true (res = seq))
    [ 2; 3 ]

let test_lazy_ticking_no_starters () =
  (* No starters: injections alone touch every node, so the filler must
     exist before the first one. Float states, so the store is a flat
     float array. The reference does the same work from wakes. *)
  let graph = Gen.cycle 9 in
  let send ~round ~node s =
    (s, [ Engine.Send ((node + 1) mod 9, Helpers.mix round node land 0xff) ])
  in
  let protocol =
    {
      Engine.name = "tick-float";
      initial_state = (fun v -> float_of_int v *. 0.5);
      on_start = (fun ~node:_ s -> (s, []));
      on_receive =
        (fun ~round ~node ~src:_ m s ->
          let s = s +. float_of_int m in
          (s, if round > 6 then [ Engine.Complete (node, s) ] else []));
      on_wake = Engine.no_wake;
    }
  in
  let waking =
    {
      protocol with
      on_start = (fun ~node:_ s -> (s, [ Engine.Wake 1 ]));
      on_wake =
        (fun ~round ~node s ->
          let s, acts = send ~round ~node s in
          (s, if round < 3 then acts @ [ Engine.Wake (round + 1) ] else acts));
    }
  in
  let injections =
    Array.init 27 (fun i ->
        let round = 1 + (i / 9) and node = i mod 9 in
        { Event.at = round; node; inject = send ~round ~node })
  in
  let config = Engine.default_config in
  let reference = Countq_simnet.Reference.run ~graph ~config ~protocol:waking () in
  let sh =
    Shard.run_implicit ~shards:2 ~pool ~starters:[] ~injections
      ~topo:(Implicit.of_graph graph) ~config ~protocol ()
  in
  Alcotest.(check bool) "lazy ticking run = reference" true (reference = sh)

let test_no_pool_degrades_sequentially () =
  (* Without a pool on a starved machine the sharded data path runs on
     the calling domain alone — still pinned. *)
  let graph = Gen.star 7 in
  let protocol = hash_protocol ~seed:41 ~graph () in
  let seq = Engine.run ~graph ~config:Engine.default_config ~protocol () in
  let sh = Shard.run ~shards:3 ~graph ~config:Engine.default_config ~protocol () in
  Alcotest.(check bool) "pool-less sharded run pinned" true (seq = sh)

(* A pre-assigned run reuses the store the last one on its domain
   handed back. After an arrow one-shot on list:10^5 at shards 2, the
   funnel on tree:64:10^5 (the same node and link counts) allocates
   directly in the major heap about 2.5n words (its n-word state array
   among them); fresh arrays and an owner table would add over 8n. *)
let test_back_to_back_heap () =
  let n = 100_000 in
  let requests = List.init (n / 16) (fun i -> i * 16) in
  let q =
    Load.one_shot ~shards:2 ~pool ~topo:(Implicit.list n) ~workload:Load.Queuing
      ~requests ()
  in
  Alcotest.(check int) "arrow completes" (n / 16) q.Load.os_completed;
  let topo = Implicit.tree ~arity:64 n in
  let protocol = Funnel.implicit_protocol ~topo ~requests () in
  let direct () =
    let s = Gc.quick_stat () in
    s.major_words -. s.promoted_words
  in
  let before = direct () in
  let r =
    Shard.run_implicit ~shards:2 ~pool ~starters:requests ~topo
      ~config:Engine.default_config ~protocol ()
  in
  let words = direct () -. before in
  Alcotest.(check int) "funnel completes" (n / 16) (List.length r.completions);
  (* Measured: 2.41n-2.49n words here, 10.8n without the reuse. *)
  if words > 3.5 *. float_of_int n then
    Alcotest.failf "funnel allocated %.0f major words directly, over 3.5n" words

(* A hand-built table whose owners leave 0 .. shards-1 is refused at
   entry, before any lane indexes a shard with it. *)
let test_bad_table_rejected () =
  let graph = Gen.path 6 in
  let protocol = hash_protocol ~seed:5 ~graph () in
  List.iter
    (fun owner ->
      Alcotest.check_raises "owner outside the shards"
        (Invalid_argument
           "Shard.run: partition needs a shard and every owner in 0 .. shards-1")
        (fun () ->
          ignore
            (Shard.run ~partition:(Partition.Table { shards = 2; owner }) ~pool
               ~graph ~config:Engine.default_config ~protocol ())))
    [
      [| 0; 0; 0; 1; 1; -1 |]; [| 0; 0; 0; 1; 1; 2 |]; [| 1; 1; 1; 1; 1; -1 |];
    ]

let test_auto_shards_positive () =
  Alcotest.(check bool) "auto_shards >= 1" true (Shard.auto_shards () >= 1)

let suite =
  [
    Helpers.qcheck equiv_telemetry;
    Helpers.qcheck equiv_event;
    Helpers.qcheck equiv_funnel;
    Alcotest.test_case "observer `Halt stops a sharded funnel run" `Quick
      test_observer_halt_sharded;
    Alcotest.test_case "partition: more shards than nodes" `Quick
      test_contiguous_more_shards_than_nodes;
    Alcotest.test_case "partition: singleton graph" `Quick test_singleton_graph;
    Alcotest.test_case "partition: greedy covers and validates" `Quick
      test_greedy_partition_valid;
    Alcotest.test_case "partition: greedy cut beats scatter on a path" `Quick
      test_greedy_cut_smaller_than_scatter;
    Alcotest.test_case "custom interleaved partition pinned" `Quick
      test_custom_partition_pinned;
    Alcotest.test_case "empty shards under churn pinned" `Quick
      test_empty_shards_under_churn;
    Alcotest.test_case "cross-shard ordering under fault plans" `Quick
      test_cross_shard_ordering_under_faults;
    Alcotest.test_case "round-limit payloads identical" `Quick
      test_round_limit_payloads_identical;
    Alcotest.test_case "sharded event run: 50k-list ping, exact stats" `Quick
      test_sharded_lazy_event_run;
    Alcotest.test_case "tick-driven protocol pinned" `Quick
      test_tick_protocol_pinned;
    Alcotest.test_case "lazy initial states: touched + 1 calls" `Quick
      test_lazy_initial_states;
    Alcotest.test_case "lazy ticking run, no starters = reference" `Quick
      test_lazy_ticking_no_starters;
    Alcotest.test_case "pool-less sharded run pinned" `Quick
      test_no_pool_degrades_sequentially;
    Alcotest.test_case "auto_shards sane" `Quick test_auto_shards_positive;
    Alcotest.test_case "partition: contiguous owner = the range table" `Quick
      test_contiguous_owner_formula;
    Alcotest.test_case "back-to-back runs reuse the store" `Quick
      test_back_to_back_heap;
    Alcotest.test_case "partition: bad hand-built owners rejected at entry" `Quick
      test_bad_table_rejected;
  ]
