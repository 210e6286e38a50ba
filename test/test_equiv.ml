(* Every engine entry point against the retained reference engine.
   Engine.run, Event_engine.run, Shard.run and Shard.run_implicit are
   thin fronts over one round kernel; the property below drives that
   kernel through each front — eager start on a materialised graph or
   an implicit twin, or declared ?starters (slots assigned on first
   touch at one shard) — at shards 1, 2 and 3, with every hook
   Reference.run accepts (metrics, observer with an optional `Halt,
   faults, dynamic schedules), and demands bit-identical results: same
   completions, rounds, messages, max_link_backlog, same
   Round_limit_exceeded payloads, observer streams, fault and churn
   tallies and metrics content — once with a one-shot protocol and once
   with handlers that ask for random wakes. Plus pins for waking
   protocols on the implicit front and under sharding, observers under
   sharding, and regression tests that idle-round fast-forwarding never
   skips an observable callback. *)

module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Shard = Countq_simnet.Shard
module Reference = Countq_simnet.Reference
module Faults = Countq_simnet.Faults
module Dynamic = Countq_simnet.Dynamic
module Metrics = Countq_simnet.Metrics
module Telemetry = Countq_simnet.Telemetry
module Reliable = Countq_simnet.Reliable
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Implicit = Countq_topology.Implicit
module Parallel = Countq_util.Parallel

(* Two helper lanes: on a single-core box the shard counts below still
   exercise real worker domains. *)
let pool = Parallel.pool ~jobs:3

(* How the run starts and which front it goes through. *)
type front = Graph_eager | Implicit_eager | Starters

let front_label = function
  | Graph_eager -> "graph"
  | Implicit_eager -> "implicit"
  | Starters -> "starters"

(* The hook menu: one hook alone, none, or a random mix of all. *)
type hooks = {
  plan : int;  (* 0 = no fault plan *)
  dyn : int;  (* 0 = no schedule *)
  with_metrics : bool;
}

let hooks_gen =
  let open QCheck2.Gen in
  let none = { plan = 0; dyn = 0; with_metrics = false } in
  let* pick = int_range 0 4 in
  match pick with
  | 0 -> return none
  | 1 -> return { none with with_metrics = true }
  | 2 ->
      let* plan = int_range 1 8 in
      return { none with plan }
  | 3 ->
      let* dyn = int_range 1 3 in
      return { none with dyn }
  | _ ->
      let* plan = int_range 0 8 in
      let* dyn = int_range 0 3 in
      let* with_metrics = bool in
      return { plan; dyn; with_metrics }

(* For the waking protocol: mostly the crash-restart plan (node 0 down
   in rounds 2-5) and node churn, so wakes fall due on down nodes that
   later come back, and a permanent crash (node 1 from round 3), whose
   due wakes are dropped. *)
let wake_hooks_gen =
  let open QCheck2.Gen in
  let* plan = oneofl [ 0; 6; 7; 7; 9 ] in
  let* dyn = oneofl [ 0; 2; 2; 3 ] in
  let* with_metrics = bool in
  return { plan; dyn; with_metrics }

let scenario_gen hooks_gen =
  let open QCheck2.Gen in
  let* inst = Helpers.instance_gen in
  let* seed = int_range 0 100_000 in
  let* rc = int_range 1 3 in
  let* sc = int_range 1 3 in
  let* arb = int_range 0 2 in
  let* maxr = oneofl [ 4; 2_000 ] in
  let* front = oneofl [ Graph_eager; Implicit_eager; Starters ] in
  let* shards = int_range 1 3 in
  let* hooks = hooks_gen in
  let* halt_at = oneofl [ None; Some 3 ] in
  return (inst, seed, (rc, sc, arb, maxr), front, shards, hooks, halt_at)

let scenario_print ((name, g, requests), seed, cfg, front, shards, h, halt_at) =
  Printf.sprintf
    "%s (n=%d) R={%s} seed=%d %s front=%s shards=%d plan=%s dyn=%s \
     metrics=%b halt=%s"
    name (Graph.n g)
    (String.concat "," (List.map string_of_int requests))
    seed (Helpers.config_label cfg) (front_label front) shards
    (Helpers.plan_label h.plan) (Helpers.dyn_label h.dyn) h.with_metrics
    (match halt_at with None -> "-" | Some r -> string_of_int r)

(* One run through [run] with fresh hooks, capturing everything
   observable. [run] receives the optional hooks already started. *)
let capture ~observe ~halt_at ~hooks ~graph run =
  let events = ref [] in
  let observer =
    if observe then Some (Helpers.recording_tap ?halt_at events) else None
  in
  let faults =
    if hooks.plan = 0 then None else Some (Faults.start (Helpers.plan_of hooks.plan))
  in
  let dynamic = Option.map Dynamic.start (Helpers.dyn_of graph hooks.dyn) in
  let metrics = if hooks.with_metrics then Some (Metrics.create ~graph) else None in
  let tap = Helpers.both_taps observer (Option.map Metrics.tap metrics) in
  let outcome = Helpers.outcome (fun () -> run ?faults ?dynamic ?tap ()) in
  ( outcome,
    List.rev !events,
    Option.map Faults.stats faults,
    Option.map Dynamic.stats dynamic,
    Option.map (fun m -> (Metrics.per_node m, Metrics.per_edge m)) metrics )

let kernel_prop ~observe ~wakes
    ((_, graph, requests), seed, cfg, front, shards, hooks, halt_at) =
  let config = Helpers.config_of cfg in
  let starts = match front with Starters -> Some requests | _ -> None in
  let protocol = Helpers.hash_protocol ?starts ~wakes ~seed ~graph () in
  let topo = Implicit.of_graph graph in
  let kernel ?faults ?dynamic ?tap () =
    match (front, shards) with
    | Graph_eager, 1 -> Engine.run ?faults ?dynamic ?tap ~graph ~config ~protocol ()
    | Graph_eager, k ->
        Shard.run ~shards:k ~pool ?faults ?dynamic ?tap ~graph ~config ~protocol ()
    | Implicit_eager, 1 -> Event.run ?faults ?dynamic ?tap ~topo ~config ~protocol ()
    | Starters, 1 ->
        Event.run ?faults ?dynamic ?tap ~starters:requests ~topo ~config ~protocol ()
    | _, k ->
        Shard.run_implicit ~shards:k ~pool ?faults ?dynamic ?tap ?starters:starts
          ~topo ~config ~protocol ()
  in
  let reference ?faults ?dynamic ?tap () =
    Reference.run ?faults ?dynamic ?tap ~graph ~config ~protocol ()
  in
  capture ~observe ~halt_at ~hooks ~graph kernel
  = capture ~observe ~halt_at ~hooks ~graph reference

let equiv_default =
  QCheck2.Test.make ~count:300 ~name:"active = reference (default hooks)"
    ~print:scenario_print (scenario_gen hooks_gen)
    (kernel_prop ~observe:false ~wakes:false)

let equiv_observed =
  QCheck2.Test.make ~count:300 ~name:"active = reference (observed, traced)"
    ~print:scenario_print (scenario_gen hooks_gen)
    (kernel_prop ~observe:true ~wakes:false)

(* Random wakes — same-round ones from receives, duplicates, far-future
   ones and wakes due on crashed or churned-out nodes — through every
   front at shards 1-3, observed or not, with and without faults and
   schedules. *)
let equiv_wakes =
  QCheck2.Test.make ~count:300 ~name:"active = reference (random wakes)"
    ~print:(fun (observe, sc) ->
      Printf.sprintf "observe=%b %s" observe (scenario_print sc))
    QCheck2.Gen.(pair bool (scenario_gen wake_hooks_gen))
    (fun (observe, scenario) -> kernel_prop ~observe ~wakes:true scenario)

(* ------------------------------------------------------------------ *)
(* Wakes, Reliable's timers and observers across fronts and shard
   counts, each pinned to Reference.run.                               *)

(* Every node wakes in rounds 1-3 and sends to its successor. *)
let tick_flood =
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

let test_tick_protocol_pinned () =
  (* A waking protocol through the implicit front, and sharded. *)
  let graph = Gen.cycle 9 in
  let topo = Implicit.of_graph graph in
  let config = Engine.default_config in
  let faults () = Faults.start (Helpers.plan_of 6) in
  let reference = Reference.run ~graph ~config ~protocol:tick_flood () in
  let reference_faulty =
    Reference.run ~faults:(faults ()) ~graph ~config ~protocol:tick_flood ()
  in
  Alcotest.(check bool) "Event_engine.run" true
    (Event.run ~topo ~config ~protocol:tick_flood () = reference);
  Alcotest.(check bool) "Event_engine.run with ?starters" true
    (Event.run ~starters:(List.init 9 Fun.id) ~topo ~config ~protocol:tick_flood ()
    = reference);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "Shard.run_implicit at %d shards" k)
        true
        (Shard.run_implicit ~shards:k ~pool ~topo ~config ~protocol:tick_flood ()
        = reference);
      Alcotest.(check bool)
        (Printf.sprintf "Shard.run_implicit at %d shards, chaos plan" k)
        true
        (Shard.run_implicit ~shards:k ~pool ~faults:(faults ()) ~topo ~config
           ~protocol:tick_flood ()
        = reference_faulty))
    [ 2; 3 ]

let test_reliable_wakes_sharded () =
  (* A Reliable-wrapped central counter heals a drop plan only if its
     retransmit timers fire: wakes, the same at every shard count. *)
  let graph = Gen.square_mesh 4 in
  let requests = [ 1; 6; 9; 14; 15 ] in
  let plan = Faults.random ~label:"lossy" ~seed:42L ~drop:0.2 () in
  let run engine =
    let inner =
      Countq_counting.Central.one_shot_protocol ~root:5 ~graph ~requests ()
    in
    let protocol, h = Reliable.wrap inner in
    let fr = Faults.start plan in
    let res = engine ~faults:fr ~protocol in
    (res, Faults.stats fr, Reliable.stats h)
  in
  let config = Engine.default_config in
  let ((res, injected, retry) as reference) =
    run (fun ~faults ~protocol -> Reference.run ~faults ~graph ~config ~protocol ())
  in
  let sharded =
    run (fun ~faults ~protocol ->
        Shard.run ~shards:2 ~pool ~faults ~graph ~config ~protocol ())
  in
  Alcotest.(check bool) "bit-identical to Reference" true (sharded = reference);
  Alcotest.(check bool) "the plan dropped messages" true (injected.Faults.dropped > 0);
  Alcotest.(check bool) "retransmits healed them" true (retry.Reliable.retransmits > 0);
  Alcotest.(check (list int)) "counts are exactly 1..k" [ 1; 2; 3; 4; 5 ]
    (List.sort compare
       (List.map (fun (c : _ Engine.completion) -> snd c.value) res.completions))

let test_observer_on_sharded_graph () =
  (* ?observer on Shard.run: the callback stream (and a `Halt) replays
     at the barrier exactly as Reference emits it. *)
  let graph = Gen.square_mesh 5 in
  let protocol = Helpers.hash_protocol ~seed:99 ~graph () in
  let config = { Engine.default_config with receive_capacity = 2 } in
  List.iter
    (fun halt_at ->
      let stream run =
        let events = ref [] in
        let tap = Helpers.recording_tap ?halt_at events in
        let res = run ~tap in
        (res, List.rev !events)
      in
      let reference =
        stream (fun ~tap -> Reference.run ~tap ~graph ~config ~protocol ())
      in
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d halt=%s" k
               (match halt_at with None -> "-" | Some h -> string_of_int h))
            true
            (stream (fun ~tap ->
                 Shard.run ~shards:k ~pool ~tap ~graph ~config ~protocol ())
            = reference))
        [ 2; 3 ])
    [ None; Some 4 ]

(* ------------------------------------------------------------------ *)
(* Fast-forward regressions: skipping idle rounds must never skip an
   observable callback, and must not change any result field.          *)

(* A protocol that does nothing after its single start completion,
   except that node 0 asks to be woken in round [wake_at] (if > 0). *)
let quiet_protocol ~wake_at =
  {
    Engine.name = "quiet";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s ->
        if node <> 0 then (s, [])
        else
          (s, Engine.Complete 0 :: (if wake_at > 0 then [ Engine.Wake wake_at ] else [])));
    on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
    on_wake = Engine.no_wake;
  }

let test_observer_sees_every_idle_round () =
  (* A custom observer disables fast-forward: all idle rounds up to a
     wake in round 37 must invoke on_round_end, in order, in both
     engines. *)
  let config = Engine.default_config in
  let protocol = quiet_protocol ~wake_at:37 in
  let graph = Gen.path 4 in
  let seen engine_run =
    let rounds = ref [] in
    let tap =
      {
        Engine.no_tap with
        passive = false;
        on_round_end =
          (fun ~round ~in_flight:_ ->
            rounds := round :: !rounds;
            `Continue);
      }
    in
    ignore (engine_run ~tap);
    List.rev !rounds
  in
  let active = seen (fun ~tap -> Engine.run ~tap ~graph ~config ~protocol ()) in
  let reference = seen (fun ~tap -> Reference.run ~tap ~graph ~config ~protocol ()) in
  Alcotest.(check (list int)) "all 37 rounds observed" (List.init 37 (fun i -> i + 1)) active;
  Alcotest.(check (list int)) "matches reference" reference active

let test_wake_chain_every_round () =
  (* A node that re-arms its wake for the next round keeps the run
     going round by round: woken 12 times, in rounds 1-12, the same
     in every engine, with nothing to skip. *)
  let woken which =
    let rounds = ref [] in
    let protocol =
      {
        (quiet_protocol ~wake_at:1) with
        on_wake =
          (fun ~round ~node:_ s ->
            rounds := round :: !rounds;
            (s, if round < 12 then [ Engine.Wake (round + 1) ] else []));
      }
    in
    let graph = Gen.path 3 in
    let config = Engine.default_config in
    let stats = Event.fresh_stats () in
    let res =
      match which with
      | `Active ->
          Event.run ~stats ~topo:(Implicit.of_graph graph) ~config ~protocol ()
      | `Reference -> Reference.run ~graph ~config ~protocol ()
    in
    (List.rev !rounds, stats.executed_rounds, res)
  in
  let wa, executed, ra = woken `Active in
  let wr, _, rr = woken `Reference in
  Alcotest.(check (list int)) "woken in rounds 1-12" (List.init 12 (fun i -> i + 1)) wa;
  Alcotest.(check (list int)) "the reference wakes alike" wr wa;
  Alcotest.(check bool) "results match" true (ra = rr);
  Alcotest.(check int) "every woken round executed" 12 executed

let test_far_wake_fast_forward_result () =
  (* With default hooks the idle stretch before a far-future wake is
     skipped in O(1): every result field must match both the run with
     no wake and the reference engine on a nearer wake it can afford
     to spin to. *)
  let graph = Gen.star 5 in
  let run wake_at =
    Engine.run ~graph ~config:Engine.default_config ~protocol:(quiet_protocol ~wake_at) ()
  in
  let fast = run 5_000_000 in
  Alcotest.(check bool) "same result as no wake" true (fast = run 0);
  let stats = Event.fresh_stats () in
  ignore
    (Event.run ~stats ~topo:(Implicit.of_graph graph) ~config:Engine.default_config
       ~protocol:(quiet_protocol ~wake_at:5_000_000) ());
  Alcotest.(check int) "one round executed" 1 stats.executed_rounds;
  let reference =
    Reference.run ~graph ~config:Engine.default_config
      ~protocol:(quiet_protocol ~wake_at:10_000) ()
  in
  Alcotest.(check bool) "same result as reference" true (fast = reference)

let test_delay_fault_fast_forward () =
  (* One message delayed by 300k rounds: the active engine jumps to the
     due round instead of spinning; the result must be bit-identical to
     the reference engine grinding through every idle round. *)
  let graph = Gen.path 2 in
  let protocol =
    {
      Engine.name = "one-ping";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> if node = 0 then (s, [ Engine.Send (1, ()) ]) else (s, []));
      on_receive = (fun ~round ~node ~src:_ () s -> (s, [ Engine.Complete (node, round) ]));
      on_wake = Engine.no_wake;
    }
  in
  let plan = Faults.delay_nth ~by:300_000 0 in
  let config = Engine.default_config in
  let active =
    Engine.run ~faults:(Faults.start plan) ~graph ~config ~protocol ()
  in
  let reference =
    Reference.run ~faults:(Faults.start plan) ~graph ~config ~protocol ()
  in
  Alcotest.(check bool) "results identical" true (active = reference);
  Alcotest.(check int) "delivered after the spike" 300_001 active.rounds;
  Alcotest.(check int) "exactly one delivery" 1 active.messages

let test_round_limit_payloads_identical () =
  (* Ping-pong forever at max_rounds=25: both engines must raise with
     the same payload, including the busiest-node summary. *)
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
    match run ~graph ~config ~protocol () with
    | (_ : unit Engine.result) -> Alcotest.fail "expected Round_limit_exceeded"
    | exception Engine.Round_limit_exceeded
          { limit; outstanding; queued; held; busiest } ->
        (limit, outstanding, queued, held, busiest)
  in
  let a = payload (fun ~graph ~config ~protocol () -> Engine.run ~graph ~config ~protocol ()) in
  let r = payload (fun ~graph ~config ~protocol () -> Reference.run ~graph ~config ~protocol ()) in
  Alcotest.(check bool) "payloads identical" true (a = r)

(* ------------------------------------------------------------------ *)
(* Deep queues that drain and refill: on a star, wave [w] wakes two
   leaves (one if there is only one), each of which bursts [bursts.(w)]
   messages at the hub in one round, so one link's backlog is the whole
   burst. The hub completes on every receipt and wakes the next wave
   once the current wave's last messages are in, so its queues drain,
   stay empty for two rounds, and refill. Every front must match
   Reference.run, with and without a plan that duplicates (more cells
   than sends) and delays (the coordinator pushes into a lane's queues
   when it releases held messages). *)

type burst_msg = Go of int | Burst of { wave : int; idx : int; last : bool }

let burst_protocol ~leaves ~bursts =
  let waves = Array.length bursts in
  let woken w =
    let a = 1 + (w mod leaves) and b = 1 + ((w + 1) mod leaves) in
    if a = b then [ a ] else [ min a b; max a b ]
  in
  let burst w =
    List.init bursts.(w) (fun idx ->
        Engine.Send (0, Burst { wave = w; idx; last = idx = bursts.(w) - 1 }))
  in
  let wake w = List.map (fun v -> Engine.Send (v, Go w)) (woken w) in
  (* Hub: (current wave, last messages seen in it). Leaf: (last wave
     burst, 0), so a duplicated Go bursts once. *)
  let protocol =
    {
      Engine.name = "bursts";
      initial_state = (fun v -> if v = 0 then (0, 0) else (-1, 0));
      on_start =
        (fun ~node s -> if List.mem node (woken 0) then ((0, 0), burst 0) else (s, []));
      on_receive =
        (fun ~round:_ ~node:_ ~src m ((cur, seen) as s) ->
          match m with
          | Go w -> if w > cur then ((w, 0), burst w) else (s, [])
          | Burst { wave; idx; last } ->
              let got = [ Engine.Complete (src, wave, idx) ] in
              if not (last && wave = cur) then (s, got)
              else if seen + 1 < List.length (woken cur) || cur + 1 >= waves then
                ((cur, seen + 1), got)
              else ((cur + 1, 0), got @ wake (cur + 1)));
      on_wake = Engine.no_wake;
    }
  in
  (protocol, woken 0)

let burst_gen =
  let open QCheck2.Gen in
  let* leaves = int_range 1 5 in
  let* big = int_range 1000 1300 in
  let* rest = list_size (int_range 1 2) (int_range 1 300) in
  let* rc = int_range 1 3 in
  let* arb = int_range 0 1 in
  let* seed = int_range 0 10_000 in
  return (leaves, Array.of_list (big :: rest), rc, arb, seed)

let burst_print (leaves, bursts, rc, arb, seed) =
  Printf.sprintf "star leaves=%d bursts=[%s] rc=%d arb=%d seed=%d" leaves
    (String.concat ";" (Array.to_list (Array.map string_of_int bursts)))
    rc arb seed

let burst_queues_match_reference =
  QCheck2.Test.make ~count:10 ~name:"deep bursty queues = reference (star)"
    ~print:burst_print burst_gen (fun (leaves, bursts, rc, arb, seed) ->
      let graph = Gen.star (leaves + 1) in
      let topo = Implicit.of_graph graph in
      let protocol, starters = burst_protocol ~leaves ~bursts in
      let config =
        {
          Engine.default_config with
          receive_capacity = rc;
          send_capacity = 2_000;
          arbiter = Helpers.arbiter_of arb;
        }
      in
      let plan =
        Faults.random ~label:"dup-delay" ~seed:(Int64.of_int seed) ~duplicate:0.05
          ~delay:0.05 ~delay_max:7 ()
      in
      List.for_all
        (fun faulty ->
          let run engine =
            let faults = if faulty then Some (Faults.start plan) else None in
            let res = engine ?faults () in
            (res, Option.map Faults.stats faults)
          in
          let ((res, _) as reference) =
            run (fun ?faults () -> Reference.run ?faults ~graph ~config ~protocol ())
          in
          let fronts =
            run (fun ?faults () -> Event.run ?faults ~starters ~topo ~config ~protocol ())
            :: List.map
                 (fun k ->
                   run (fun ?faults () ->
                       Shard.run_implicit ~shards:k ~pool ?faults ~starters ~topo
                         ~config ~protocol ()))
                 [ 1; 2; 3 ]
          in
          (faulty
          || res.max_link_backlog = Array.fold_left max 0 bursts
             && List.length res.completions
                = min leaves 2 * Array.fold_left ( + ) 0 bursts)
          && List.for_all (( = ) reference) fronts)
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* The kernel stores a handler's returned state only when it is not
   physically the state the handler was given. Two state shapes probe
   that rule: a float (so the kernel's state array is a flat float
   array) that handlers often return unchanged, and a mutable record
   that handlers mostly update in place and sometimes replace. Every
   site that stores a state is driven — time 0, first touch
   (?starters), receive, wake and injection — and every front must
   equal Reference.run. *)

(* A node state: [digest] reads it, [update s h] returns either [s]
   itself or a new state, depending on [h]. *)
type 's state_ops = { init : int -> 's; digest : 's -> int; update : 's -> int -> 's }

let float_ops seed =
  {
    init = (fun v -> float_of_int (Helpers.mix seed v land 0xfff));
    digest = (fun s -> int_of_float (s *. 2.));
    update = (fun s h -> if h mod 3 = 0 then s else s +. float_of_int (h land 15) +. 0.5);
  }

type cell = { mutable acc : int; mutable hits : int }

let cell_ops seed =
  {
    init = (fun v -> { acc = Helpers.mix seed v land 0xffff; hits = 0 });
    digest = (fun c -> Helpers.mix c.acc c.hits);
    update =
      (fun c h ->
        if h mod 4 = 0 then { acc = h land 0xffff; hits = c.hits }
        else begin
          c.acc <- Helpers.mix c.acc h land 0xffff;
          c.hits <- c.hits + 1;
          c
        end);
  }

(* Starters wake in rounds 1..3 only, so [tick_injections] replays
   them. *)
let state_tick ops ~graph ~round ~node s =
  let h = Helpers.mix (ops.digest s) (Helpers.mix node round) in
  if round > 3 || h mod 2 = 0 then (s, [])
  else
    ( ops.update s h,
      match Helpers.pick_nbr graph node h with
      | Some d -> [ Engine.Send (d, { Helpers.ttl = 2; tag = h land 0xffff }) ]
      | None -> [] )

let state_protocol ops ~starts ~wakes ~graph =
  let first_wake = if wakes then [ Engine.Wake 1 ] else [] in
  {
    Engine.name = "qcheck-state";
    initial_state = ops.init;
    on_start =
      (fun ~node s ->
        let h = Helpers.mix (ops.digest s) node in
        if not (List.mem node starts) then (ops.update s h, [])
        else
          ( ops.update s h,
            first_wake
            @
            match Helpers.pick_nbr graph node h with
            | Some d -> [ Engine.Send (d, { Helpers.ttl = 3; tag = h land 0xffff }) ]
            | None -> [] ));
    on_receive =
      (fun ~round ~node ~src (m : Helpers.msg) s ->
        let h = Helpers.mix (Helpers.mix (ops.digest s) m.tag) (Helpers.mix src round) in
        let s = ops.update s h in
        let acts =
          if m.ttl = 0 then []
          else
            List.filter_map
              (fun i ->
                Option.map
                  (fun d ->
                    let tag = Helpers.mix h i land 0xffff in
                    Engine.Send (d, { Helpers.ttl = m.ttl - 1; tag }))
                  (Helpers.pick_nbr graph node (Helpers.mix h i)))
              (List.init (h mod 3) Fun.id)
        in
        (s, if h mod 5 = 0 then Engine.Complete (node, ops.digest s) :: acts else acts));
    on_wake =
      (fun ~round ~node s ->
        let s, acts = state_tick ops ~graph ~round ~node s in
        (s, if round < 3 then acts @ [ Engine.Wake (round + 1) ] else acts));
  }

let tick_injections ops ~graph ~starts =
  Array.of_list
    (List.concat_map
       (fun round ->
         List.map
           (fun node ->
             { Event.at = round; node; inject = state_tick ops ~graph ~round ~node })
           starts)
       [ 1; 2; 3 ])

(* How the per-round work is scheduled: none, wakes, or the same work
   as injections into a protocol that never wakes. *)
type timer = No_timer | Wakes | Injections

let state_prop ops ((_, graph, starts), cfg, timer) =
  let config = Helpers.config_of cfg in
  let topo = Implicit.of_graph graph in
  let reference =
    Helpers.outcome (fun () ->
        Reference.run ~graph ~config
          ~protocol:(state_protocol ops ~starts ~wakes:(timer <> No_timer) ~graph)
          ())
  in
  let protocol = state_protocol ops ~starts ~wakes:(timer = Wakes) ~graph in
  let injections =
    if timer = Injections then Some (tick_injections ops ~graph ~starts) else None
  in
  let fronts =
    List.concat_map
      (fun k ->
        [
          (fun () ->
            Shard.run_implicit ~shards:k ~pool ?injections ~topo ~config ~protocol ());
          (fun () ->
            Shard.run_implicit ~shards:k ~pool ?injections ~starters:starts ~topo ~config
              ~protocol ());
        ])
      [ 1; 2; 3 ]
  in
  let fronts =
    (fun () -> Event.run ?injections ~starters:starts ~topo ~config ~protocol ())
    :: fronts
  in
  let fronts =
    if timer = Injections then fronts
    else (fun () -> Engine.run ~graph ~config ~protocol ()) :: fronts
  in
  List.for_all (fun run -> Helpers.outcome run = reference) fronts

let state_gen =
  let open QCheck2.Gen in
  let* inst = Helpers.instance_gen in
  let* rc = int_range 1 3 in
  let* sc = int_range 1 3 in
  let* arb = int_range 0 2 in
  let* timer = oneofl [ No_timer; Wakes; Injections ] in
  return (inst, (rc, sc, arb, 2_000), timer)

let state_print (inst, cfg, timer) =
  Printf.sprintf "%s %s timer=%s" (Helpers.instance_print inst) (Helpers.config_label cfg)
    (match timer with No_timer -> "none" | Wakes -> "wakes" | Injections -> "injections")

let float_state_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"float node state = reference (all fronts)"
    ~print:state_print state_gen (state_prop (float_ops 17))

let in_place_state_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"in-place node state = reference (all fronts)"
    ~print:state_print state_gen (state_prop (cell_ops 23))

(* ------------------------------------------------------------------ *)
(* Taps: one passivity property for every passive tap, the replay rule
   for an active one, and passivity as the only fast-forward switch.   *)

(* Any plan (0 = none, 1-9) and any schedule, the wake-prone ones too. *)
let all_hooks_gen =
  let open QCheck2.Gen in
  let* plan = int_range 0 9 in
  let* dyn = int_range 0 3 in
  return { plan; dyn; with_metrics = true }

(* Attaching [Engine.both (Metrics.tap m) (Telemetry.tap tl)] leaves the
   result and the fault and churn tallies as they were, and the two
   recorders come out the same on the front at its shard count, on the
   front at one shard and on Reference.run. *)
let passive_prop (wakes, ((_, graph, requests), seed, cfg, front, shards, hooks, _)) =
  let config = Helpers.config_of cfg in
  let starts = match front with Starters -> Some requests | _ -> None in
  let protocol = Helpers.hash_protocol ?starts ~wakes ~seed ~graph () in
  let topo = Implicit.of_graph graph in
  let go run =
    let faults =
      if hooks.plan = 0 then None else Some (Faults.start (Helpers.plan_of hooks.plan))
    in
    let dynamic = Option.map Dynamic.start (Helpers.dyn_of graph hooks.dyn) in
    let outcome = Helpers.outcome (fun () -> run ?faults ?dynamic ()) in
    (outcome, Option.map Faults.stats faults, Option.map Dynamic.stats dynamic)
  in
  let kernel ~shards ?tap ?faults ?dynamic () =
    match (front, shards) with
    | Graph_eager, 1 -> Engine.run ?faults ?dynamic ?tap ~graph ~config ~protocol ()
    | Graph_eager, k ->
        Shard.run ~shards:k ~pool ?faults ?dynamic ?tap ~graph ~config ~protocol ()
    | Implicit_eager, 1 -> Event.run ?faults ?dynamic ?tap ~topo ~config ~protocol ()
    | _, k ->
        Shard.run_implicit ~shards:k ~pool ?faults ?dynamic ?tap ?starters:starts
          ~topo ~config ~protocol ()
  in
  let recorded run =
    let m = Metrics.create ~graph in
    let tl = Telemetry.create ~windows:6 ~window_size:3 () in
    let run = go (run ~tap:(Engine.both (Metrics.tap m) (Telemetry.tap tl))) in
    (run, (Metrics.per_node m, Metrics.per_edge m, Telemetry.windows tl, Telemetry.evicted tl))
  in
  let plain = go (kernel ~shards ?tap:None) in
  let tapped, recs = recorded (fun ~tap -> kernel ~shards ~tap) in
  let _, recs_1 = recorded (fun ~tap -> kernel ~shards:1 ~tap) in
  let _, recs_ref =
    recorded (fun ~tap -> Reference.run ~tap ~graph ~config ~protocol)
  in
  plain = tapped && recs = recs_1 && recs = recs_ref

let passive_taps =
  QCheck2.Test.make ~count:300 ~name:"passive taps change nothing"
    ~print:(fun (wakes, sc) -> Printf.sprintf "wakes=%b %s" wakes (scenario_print sc))
    QCheck2.Gen.(pair bool (scenario_gen all_hooks_gen))
    passive_prop

(* Every callback of an active tap, with its round. *)
let full_recording events =
  let ev e = events := e :: !events in
  {
    Engine.passive = false;
    on_transmit = (fun ~round ~src ~dst -> ev (round, `Transmit (src, dst)));
    on_backlog = (fun ~round ~node ~backlog -> ev (round, `Backlog (node, backlog)));
    on_deliver = (fun ~round ~src ~dst -> ev (round, `Deliver (src, dst)));
    on_complete = (fun ~round ~node ~value -> ev (round, `Complete (node, value)));
    on_inject = (fun ~round ~node -> ev (round, `Inject node));
    on_drop = (fun ~round ~src ~dst -> ev (round, `Drop (src, dst)));
    on_duplicate = (fun ~round ~src ~dst -> ev (round, `Duplicate (src, dst)));
    on_delay = (fun ~round ~src ~dst -> ev (round, `Delay (src, dst)));
    on_down_drop = (fun ~round ~src ~dst -> ev (round, `Down_drop (src, dst)));
    on_round_end =
      (fun ~round ~in_flight ->
        ev (round, `Round_end in_flight);
        `Continue);
  }

let test_active_tap_replay () =
  (* At shards 1, 2 and 3, fault-free and under the chaos plan: the
     same deliver/complete stream, and per round the same events. *)
  let graph = Gen.square_mesh 5 in
  let protocol = Helpers.hash_protocol ~wakes:true ~seed:31 ~graph () in
  let config = { Engine.default_config with receive_capacity = 2 } in
  List.iter
    (fun plan ->
      let record k =
        let events = ref [] in
        let faults = if plan = 0 then None else Some (Faults.start (Helpers.plan_of plan)) in
        let res =
          Shard.run ~shards:k ~pool ?faults ~tap:(full_recording events) ~graph ~config
            ~protocol ()
        in
        let events = List.rev !events in
        let stream =
          List.filter
            (function _, (`Deliver _ | `Complete _) -> true | _ -> false)
            events
        in
        let per_round =
          List.sort compare events
          |> List.fold_left
               (fun acc (r, e) ->
                 match acc with
                 | (r', es) :: rest when r' = r -> (r, e :: es) :: rest
                 | _ -> (r, [ e ]) :: acc)
               []
        in
        (res, stream, per_round)
      in
      let res_1, stream_1, rounds_1 = record 1 in
      Alcotest.(check bool) "events recorded" true (stream_1 <> []);
      List.iter
        (fun k ->
          let res_k, stream_k, rounds_k = record k in
          let label what = Printf.sprintf "plan %d, shards %d: %s" plan k what in
          Alcotest.(check bool) (label "result") true (res_k = res_1);
          Alcotest.(check bool) (label "deliver/complete stream") true (stream_k = stream_1);
          Alcotest.(check bool) (label "per-round events") true (rounds_k = rounds_1))
        [ 2; 3 ])
    [ 0; 6 ]

let test_passivity_decides_fast_forward () =
  (* One wake in round [wake_at] and nothing else: a hand-rolled
     passive tap keeps the gap jump, an active one sees every round. *)
  let topo = Implicit.of_graph (Gen.path 4) in
  let config = Engine.default_config in
  let run ~wake_at tap =
    let stats = Event.fresh_stats () in
    ignore (Event.run ?tap ~stats ~topo ~config ~protocol:(quiet_protocol ~wake_at) ());
    stats.Event.executed_rounds
  in
  let round_ends = ref 0 in
  let counting passive =
    {
      Engine.no_tap with
      passive;
      on_round_end =
        (fun ~round:_ ~in_flight:_ ->
          incr round_ends;
          `Continue);
    }
  in
  let untapped = run ~wake_at:1_000_000 None in
  Alcotest.(check int) "passive tap: as many executed rounds" untapped
    (run ~wake_at:1_000_000 (Some (counting true)));
  Alcotest.(check int) "passive tap: one round end per executed round" untapped
    !round_ends;
  round_ends := 0;
  Alcotest.(check int) "active tap: every round executed" 1_000
    (run ~wake_at:1_000 (Some (counting false)));
  Alcotest.(check int) "active tap: every round seen" 1_000 !round_ends

let suite =
  [
    Helpers.qcheck equiv_default;
    Helpers.qcheck equiv_observed;
    Helpers.qcheck equiv_wakes;
    Helpers.qcheck burst_queues_match_reference;
    Helpers.qcheck float_state_matches_reference;
    Helpers.qcheck in_place_state_matches_reference;
    Helpers.qcheck passive_taps;
    Alcotest.test_case "active tap replays alike at 1-3" `Quick
      test_active_tap_replay;
    Alcotest.test_case "passivity decides fast-forward" `Quick
      test_passivity_decides_fast_forward;
    Alcotest.test_case "ticking protocol = reference (implicit, sharded)" `Quick
      test_tick_protocol_pinned;
    Alcotest.test_case "reliable wakes = reference at shards 2" `Quick
      test_reliable_wakes_sharded;
    Alcotest.test_case "observer on sharded Shard.run = reference" `Quick
      test_observer_on_sharded_graph;
    Alcotest.test_case "fast-forward: observer sees every idle round" `Quick
      test_observer_sees_every_idle_round;
    Alcotest.test_case "fast-forward: a wake chain runs every round" `Quick
      test_wake_chain_every_round;
    Alcotest.test_case "fast-forward: far-future wake, identical result" `Quick
      test_far_wake_fast_forward_result;
    Alcotest.test_case "fast-forward: delayed message wakes the engine" `Quick
      test_delay_fault_fast_forward;
    Alcotest.test_case "round-limit payloads identical" `Quick
      test_round_limit_payloads_identical;
  ]
