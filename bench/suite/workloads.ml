(* The five workloads. Each runs one rep in the calling process: the
   set-up calls (timed for setup_s), the measured calls (wall_s), the
   correctness checks, and — in a traced rep — the toggles that give
   the per-layer references. Spans wrap every call into a layer's
   public functions; they cost nothing while tracing is off. *)

module Json = Countq_util.Json
module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Shard = Countq_simnet.Shard
module Explore = Countq_simnet.Explore
module Telemetry = Countq_simnet.Telemetry
module Implicit = Countq_topology.Implicit
module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Spanning = Countq_topology.Spanning
module Tree = Countq_topology.Tree
module Funnel = Countq_counting.Funnel
module Counts = Countq_counting.Counts
module Load = Countq.Load
module Run = Countq.Run
module Probe = Bench_suite.Probe
module Sample = Bench_suite.Sample
module Trace = Bench_suite.Trace

type outcome = {
  setup_s : float;
  wall_s : float;
  gc : Probe.gc;  (** over the measured calls. *)
  ops : int;
  attempted : int;
  failed : int;
  sim : (string * float) list;
  fingerprint : string;
  layers : (string * float) list;
  errors : string list;
}

let call = Trace.span
let fi = float_of_int
let ratio a b = if b = 0 then Float.nan else fi a /. fi b
let pct a b = if b = 0 then 0. else 100. *. fi a /. fi b

(* A set-up under 10 ms is repeated (up to 50 times or 0.1 s in all)
   and its median kept, so microsecond set-ups resolve above clock and
   scheduler noise; heavier set-ups, and traced reps, run once. The
   last repetition's value is the one the rep uses. *)
let setup ~traced f =
  let v, t = Probe.timed f in
  if traced || t >= 0.01 then (v, t)
  else
    let rec again v ts n total =
      if n >= 50 || total >= 0.1 then (v, Option.get (Sample.median ts))
      else
        let v, t = Probe.timed f in
        again v (t :: ts) (n + 1) (total +. t)
    in
    again v [ t ] 1 t

let measured f =
  let g0 = Probe.gc_now () in
  let r, dt = Probe.timed f in
  (r, dt, Probe.gc_since g0)

(* [expect errs ok fmt ...] records the message when [ok] is false. *)
let expect errs ok fmt =
  Printf.ksprintf (fun m -> if not ok then errs := m :: !errs) fmt

(* Note a call's result counts on its span. *)
let counted counts r =
  Trace.note (List.map (fun (k, v) -> (k, Json.Int v)) (counts r));
  r

let load_counts (s : Load.summary) =
  [
    ("injected", s.injected);
    ("completed", s.completed);
    ("messages", s.messages);
  ]

let engine_counts (r : _ Engine.result) =
  [
    ("completed", List.length r.completions);
    ("rounds", r.rounds);
    ("messages", r.messages);
  ]

let one_shot_counts (s : Load.one_shot_summary) =
  [
    ("completed", s.os_completed);
    ("rounds", s.os_rounds);
    ("messages", s.os_messages);
  ]

let implicit spec =
  call ~layer:"topology" "Implicit.parse" (fun () ->
      match Implicit.parse spec with
      | Ok t -> t
      | Error (`Msg m) -> failwith m)

(* ------------------------------------------------------------------ *)
(* Open loop: one Load.run, as `countq timeline` / `countq load` make. *)

let open_outcome ~errs (s : Load.summary) ~setup_s ~wall_s ~gc ~layers =
  expect errs (s.injected > 0) "no operation was injected";
  expect errs
    (s.completed + s.unfinished = s.injected)
    "completed %d + stranded %d <> injected %d" s.completed s.unfinished
    s.injected;
  expect errs
    (s.p50 <= s.p99 && s.p99 <= fi s.max_delay)
    "delay percentiles out of order: p50 %g, p99 %g, max %d" s.p50 s.p99
    s.max_delay;
  {
    setup_s;
    wall_s;
    gc;
    ops = s.completed;
    attempted = s.injected;
    failed = s.unfinished;
    sim =
      [
        ("msgs_per_op", ratio s.messages s.completed);
        ("delay_mean_rounds", s.mean_delay);
        ("delay_p50_rounds", s.p50);
        ("delay_p99_rounds", s.p99);
        ("failed_pct", pct s.unfinished s.injected);
      ];
    fingerprint =
      Printf.sprintf "%d %d %d %d %d %d %d %d %d %h %h %h %h" s.injected
        s.completed s.messages s.rounds s.executed_rounds s.touched
        s.peak_in_flight s.max_backlog s.max_delay s.mean_delay s.p50 s.p95
        s.p99;
    layers =
      [
        ("load.run_s", wall_s);
        ("engine.messages", fi s.messages);
        ("engine.executed_rounds", fi s.executed_rounds);
        ("engine.touched", fi s.touched);
        ("engine.peak_in_flight", fi s.peak_in_flight);
        ("engine.max_backlog", fi s.max_backlog);
        ("engine.ns_per_msg", wall_s *. 1e9 /. fi s.messages);
      ]
      @ layers;
    errors = List.rev !errs;
  }

(* Traced reps only: the calendar compile that Load.run does first. *)
let schedule_layer ~errs ~seed ~topo ~arrival ~horizon (s : Load.summary) =
  let cal, t =
    Probe.timed (fun () ->
        call ~layer:"core.load" "Load.schedule" (fun () ->
            Load.schedule ~seed arrival ~n:(Implicit.n topo) ~horizon))
  in
  expect errs
    (Array.length cal = s.injected)
    "Load.schedule has %d arrivals, the run injected %d" (Array.length cal)
    s.injected;
  ("load.schedule_s", t)

let open_queue ~seed ~traced =
  let errs = ref [] in
  let horizon = 2048 and windows = 64 in
  let arrival = Load.Poisson 8. in
  let (topo, tl), setup_s =
    setup ~traced (fun () ->
        let topo = implicit "torus:1000x1000" in
        (* countq timeline folds the run's 2 x horizon rounds into
           [windows] windows. *)
        let window_size = ((2 * horizon) + windows - 1) / windows in
        let tl =
          call ~layer:"simnet.telemetry" "Telemetry.create" (fun () ->
              Telemetry.create ~windows ~window_size ())
        in
        (topo, tl))
  in
  let s, wall_s, gc =
    measured (fun () ->
        call ~layer:"core.load" "Load.run" (fun () ->
            counted load_counts
              (Load.run ~seed ~streaming:true ~telemetry:tl ~topo
                 ~workload:Load.Queuing ~arrival ~horizon ())))
  in
  (* The telemetry ring counts the same events through another path. *)
  if Telemetry.evicted tl = 0 then begin
    let ws = Telemetry.windows tl in
    let sum f = List.fold_left (fun a w -> a + f w) 0 ws in
    expect errs
      (sum (fun w -> w.Telemetry.injections) = s.injected)
      "telemetry counted %d injections, the summary %d"
      (sum (fun w -> w.Telemetry.injections))
      s.injected;
    expect errs
      (sum (fun w -> w.Telemetry.completions) = s.completed)
      "telemetry counted %d completions, the summary %d"
      (sum (fun w -> w.Telemetry.completions))
      s.completed;
    expect errs
      (sum (fun w -> w.Telemetry.deliveries) = s.messages)
      "telemetry counted %d deliveries, the summary %d messages"
      (sum (fun w -> w.Telemetry.deliveries))
      s.messages
  end;
  let layers =
    if not traced then []
    else begin
      let sched = schedule_layer ~errs ~seed ~topo ~arrival ~horizon s in
      (* The hook toggle: the same run retained, with no sink or
         telemetry attached. *)
      let plain, plain_s =
        Probe.timed (fun () ->
            call ~layer:"core.load" "Load.run" (fun () ->
                Trace.note [ ("variant", Json.Str "retained, no hooks") ];
                counted load_counts
                  (Load.run ~seed ~topo ~workload:Load.Queuing ~arrival ~horizon ())))
      in
      expect errs
        (plain.injected = s.injected
        && plain.completed = s.completed
        && plain.messages = s.messages)
        "the run without hooks differs from the hooked run";
      [ sched; ("telemetry.hook_s", wall_s -. plain_s) ]
    end
  in
  open_outcome ~errs s ~setup_s ~wall_s ~gc ~layers

let open_funnel ~seed ~traced =
  let errs = ref [] in
  let horizon = 16_384 in
  let arrival = Load.Poisson 2. in
  let topo, setup_s = setup ~traced (fun () -> implicit "tree:64:1000000") in
  let s, wall_s, gc =
    measured (fun () ->
        call ~layer:"core.load" "Load.run" (fun () ->
            counted load_counts
              (Load.run ~seed ~topo ~workload:Load.Funnel ~arrival ~horizon ())))
  in
  let layers =
    if traced then [ schedule_layer ~errs ~seed ~topo ~arrival ~horizon s ]
    else []
  in
  open_outcome ~errs s ~setup_s ~wall_s ~gc ~layers

(* ------------------------------------------------------------------ *)
(* One-shots at 10^6 nodes: the million-node rows of E30 and E32.      *)

let oneshot ~seed:_ ~traced =
  let errs = ref [] in
  let n = 1_000_000 and stride = 16 and shards = 2 in
  let k = n / stride in
  let config = Engine.default_config in
  let (list, tree, requests, protocol, build_s), setup_s =
    setup ~traced (fun () ->
        let list = implicit "list:1000000" in
        let requests =
          call ~layer:"bench" "requests" (fun () ->
              List.init k (fun i -> i * stride))
        in
        (* E32's arity: the adaptive width at k requests (64 here). *)
        let arity = Funnel.adaptive_width ~n ~concurrency:k in
        let tree =
          call ~layer:"topology" "Implicit.tree" (fun () -> Implicit.tree ~arity n)
        in
        let protocol, build_s =
          Probe.timed (fun () ->
              call ~layer:"counting" "Funnel.implicit_protocol" (fun () ->
                  Funnel.implicit_protocol ~topo:tree ~requests ()))
        in
        (list, tree, requests, protocol, build_s))
  in
  let qstats = Event.fresh_stats () and fstats = Event.fresh_stats () in
  let (q, q_s, r, r_s, c, c_s), wall_s, gc =
    measured (fun () ->
        let q, q_s =
          Probe.timed (fun () ->
              call ~layer:"core.load" "Load.one_shot" (fun () ->
                  counted one_shot_counts
                    (Load.one_shot ~shards ~stats:qstats ~topo:list
                       ~workload:Load.Queuing ~requests ())))
        in
        let r, r_s =
          Probe.timed (fun () ->
              call ~layer:"simnet.shard" "Shard.run_implicit" (fun () ->
                  counted engine_counts
                    (Shard.run_implicit ~shards ~stats:fstats ~starters:requests
                       ~topo:tree ~config ~protocol ())))
        in
        let c, c_s =
          Probe.timed (fun () ->
              call ~layer:"counting" "Counts.of_engine" (fun () ->
                  Counts.of_engine ~requests r))
        in
        (q, q_s, r, r_s, c, c_s))
  in
  (* The reference rows: E30's queuing and E32's funnel at n = 10^6. *)
  expect errs (q.os_completed = k) "arrow completed %d of %d" q.os_completed k;
  expect errs
    (q.os_messages = 999_984 && q.os_rounds = 16)
    "arrow took %d messages and %d rounds, E30 has 999984 and 16"
    q.os_messages q.os_rounds;
  expect errs
    (r.messages = 154_294 && r.rounds = 330)
    "funnel took %d messages and %d rounds, E32 has 154294 and 330" r.messages
    r.rounds;
  let funnel_done =
    match c.valid with
    | Ok () -> List.length c.outcomes
    | Error e ->
        expect errs false "funnel counts are not exactly {1..%d}: %s" k
          (Format.asprintf "%a" Counts.pp_error e);
        0
  in
  let layers =
    if not traced then []
    else begin
      let q1, q1_s =
        Probe.timed (fun () ->
            call ~layer:"core.load" "Load.one_shot" (fun () ->
                Trace.note [ ("shards", Json.Int 1) ];
                counted one_shot_counts
                  (Load.one_shot ~shards:1 ~topo:list ~workload:Load.Queuing
                     ~requests ())))
      in
      let r1, r1_s =
        Probe.timed (fun () ->
            call ~layer:"simnet.shard" "Shard.run_implicit" (fun () ->
                Trace.note [ ("shards", Json.Int 1) ];
                counted engine_counts
                  (Shard.run_implicit ~shards:1 ~starters:requests ~topo:tree
                     ~config ~protocol ())))
      in
      expect errs (q1 = q) "the arrow at shards=1 differs from shards=%d" shards;
      expect errs
        (r1.completions = r.completions && r1.messages = r.messages
       && r1.rounds = r.rounds)
        "the funnel at shards=1 differs from shards=%d" shards;
      [
        ("load.one_shot_s", q_s);
        ("shard.run_s", r_s);
        ("shard.seq_queuing_s", q1_s);
        ("shard.seq_funnel_s", r1_s);
        ("shard.speedup_queuing", q1_s /. q_s);
        ("shard.speedup_funnel", r1_s /. r_s);
        ("counting.funnel_build_s", build_s);
        ("counting.validate_s", c_s);
        ("engine.messages", fi (q.os_messages + r.messages));
        ( "engine.executed_rounds",
          fi (qstats.executed_rounds + fstats.executed_rounds) );
        ("engine.touched", fi (qstats.touched + fstats.touched));
        ( "engine.peak_in_flight",
          fi (max qstats.peak_in_flight fstats.peak_in_flight) );
        ("engine.max_backlog", fi (max q.os_max_backlog r.max_link_backlog));
        ( "engine.ns_per_msg",
          (q_s +. r_s) *. 1e9 /. fi (q.os_messages + r.messages) );
      ]
    end
  in
  let ops = q.os_completed + funnel_done in
  {
    setup_s;
    wall_s;
    gc;
    ops;
    attempted = 2 * k;
    failed = (2 * k) - ops;
    sim =
      [
        ("msgs_per_op", ratio (q.os_messages + r.messages) (2 * k));
        ("delay_mean_rounds", ratio (q.os_total_delay + c.total_delay) (2 * k));
        ("failed_pct", pct ((2 * k) - ops) (2 * k));
      ];
    fingerprint =
      Printf.sprintf "%d %d %d %d %d %d | %d %d %d %d %d | %d %d %d %d %d %d"
        q.os_completed q.os_rounds q.os_messages q.os_max_backlog
        q.os_total_delay q.os_max_delay r.rounds r.messages r.max_link_backlog
        c.total_delay c.max_delay qstats.touched qstats.executed_rounds
        qstats.peak_in_flight fstats.touched fstats.executed_rounds
        fstats.peak_in_flight;
    layers;
    errors = List.rev !errs;
  }

(* ------------------------------------------------------------------ *)
(* `countq check --jobs 1`: the fourteen full model-checking instances.*)

type instance = {
  proto : string;  (** as in explore.<proto>_s. *)
  iname : string;
  explore : unit -> Explore.outcome;
}

(* The specs `countq check` applies: one total order for the queues,
   exactly {1..|R|} for the counters. *)
let order_check requests completions =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, pred = c.value in
        { Countq_arrow.Types.op; pred; found_at = c.node; round = c.round })
      completions
  in
  if List.length outcomes <> List.length requests then
    Error "wrong completion count"
  else
    match Countq_arrow.Order.chain outcomes with
    | Ok _ -> Ok ()
    | Error e -> Error (Format.asprintf "%a" Countq_arrow.Order.pp_error e)

let counts_check requests completions =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let node, count = c.value in
        { Counts.node; count; round = c.round })
      completions
  in
  match Counts.validate ~requests outcomes with
  | Ok () -> Ok ()
  | Error e -> Error (Format.asprintf "%a" Counts.pp_error e)

let check_instances () =
  let inst proto iname ~graph ~protocol ~check ~requests =
    let check cs = Trace.tally ~layer:"spec" "check" (fun () -> check requests cs) in
    {
      proto;
      iname;
      explore =
        (fun () ->
          Explore.run ~graph ~protocol ~check ~max_configs:1_000_000 ());
    }
  in
  let gen name f = call ~layer:"topology" ("Gen." ^ name) f in
  let star n = gen "star" (fun () -> Gen.star n)
  and path n = gen "path" (fun () -> Gen.path n)
  and complete n = gen "complete" (fun () -> Gen.complete n) in
  let build name f = call ~layer:"protocol" name f in
  let on_tree ~spanning ~check proto mk name g requests =
    build (proto ^ ".one_shot_protocol") (fun () ->
        let tree = spanning g in
        inst proto name ~graph:(Tree.to_graph tree) ~protocol:(mk ~tree ~requests ())
          ~check ~requests)
  in
  let bfs g = Spanning.bfs g ~root:0 in
  let arrow =
    on_tree ~spanning:Spanning.best_for_arrow ~check:order_check "arrow"
      (fun ~tree ~requests () ->
        Countq_arrow.Protocol.one_shot_protocol ~tree ~requests ())
  and central name g requests =
    build "central_count.one_shot_protocol" (fun () ->
        inst "central_count" name ~graph:g
          ~protocol:(Countq_counting.Central.one_shot_protocol ~graph:g ~requests ())
          ~check:counts_check ~requests)
  and central_queue name g requests =
    build "central_queue.one_shot_protocol" (fun () ->
        inst "central_queue" name ~graph:g
          ~protocol:
            (Countq_queuing.Central_queue.one_shot_protocol ~graph:g ~requests ())
          ~check:order_check ~requests)
  and dynamic_queue name g requests =
    build "dynamic_queue.one_shot_protocol" (fun () ->
        inst "dynamic_queue" name ~graph:g
          ~protocol:
            (Countq_queuing.Dynamic_queue.one_shot_protocol ~graph:g ~requests ())
          ~check:order_check ~requests)
  in
  let combining =
    on_tree ~spanning:bfs ~check:counts_check "combining"
      (fun ~tree ~requests () ->
        Countq_counting.Combining.one_shot_protocol ~tree ~requests ())
  and diffracting =
    on_tree ~spanning:bfs ~check:counts_check "diffracting"
      (fun ~tree ~requests () ->
        Countq_counting.Diffracting.one_shot_protocol ~tree ~requests ())
  and funnel =
    on_tree ~spanning:bfs ~check:counts_check "funnel"
      (fun ~tree ~requests () -> Funnel.one_shot_protocol ~tree ~requests ())
  and token_ring =
    on_tree ~spanning:bfs ~check:order_check "token_ring"
      (fun ~tree ~requests () ->
        Countq_queuing.Token_ring.one_shot_protocol ~tree ~requests ())
  and sweep =
    on_tree ~spanning:bfs ~check:counts_check "sweep"
      (fun ~tree ~requests () ->
        Countq_counting.Sweep.one_shot_protocol ~tree ~requests ())
  in
  [
    arrow "star-6" (star 6) [ 1; 2; 3; 4; 5 ];
    arrow "path-7" (path 7) [ 0; 1; 2; 3; 4; 5; 6 ];
    arrow "complete-6" (complete 6) [ 0; 1; 2; 3; 4; 5 ];
    central "star-6" (star 6) [ 1; 2; 3; 4; 5 ];
    central "complete-6" (complete 6) [ 0; 1; 2; 3; 4; 5 ];
    central_queue "star-6" (star 6) [ 1; 2; 3; 4; 5 ];
    combining "star-6" (star 6) [ 0; 1; 2; 3; 4; 5 ];
    diffracting "star-6" (star 6) [ 0; 1; 2; 3; 4; 5 ];
    funnel "star-6" (star 6) [ 0; 1; 2; 3; 4; 5 ];
    funnel "path-5" (path 5) [ 0; 2; 4 ];
    token_ring "path-7" (path 7) [ 0; 2; 4; 6 ];
    sweep "star-7" (star 7) [ 0; 1; 2; 3; 4; 5; 6 ];
    dynamic_queue "star-4" (star 4) [ 1; 2; 3 ];
    dynamic_queue "complete-3" (complete 3) [ 0; 1; 2 ];
  ]

let check ~seed:_ ~traced =
  let errs = ref [] in
  let insts, setup_s = setup ~traced check_instances in
  let results, wall_s, gc =
    measured (fun () ->
        List.map
          (fun i ->
            Probe.timed (fun () ->
                call ~layer:"simnet.explore" "Explore.run" (fun () ->
                    Trace.note
                      [ ("protocol", Json.Str i.proto); ("instance", Json.Str i.iname) ];
                    match i.explore () with
                    | (Explore.Exhaustive st | Explore.Budget_exhausted st) as o ->
                        Ok
                          (counted
                             (fun _ ->
                               [ ("explored", st.explored);
                                 ("terminal", st.terminal);
                                 ("dedup_hits", st.dedup_hits) ])
                             o)
                    | exception Explore.Violation m -> Error m)))
          insts)
  in
  let stats =
    List.map2
      (fun i (o, t) ->
        match o with
        | Ok (Explore.Exhaustive st) -> (i, Some st, t)
        | Ok (Explore.Budget_exhausted st) ->
            expect errs false "%s on %s: budget exhausted after %d configurations"
              i.proto i.iname st.explored;
            (i, Some st, t)
        | Error m ->
            expect errs false "%s on %s: violation: %s" i.proto i.iname m;
            (i, None, t))
      insts results
  in
  let exhaustive =
    List.length
      (List.filter (function Ok (Explore.Exhaustive _), _ -> true | _ -> false) results)
  in
  let total f =
    List.fold_left
      (fun a (_, st, _) -> match st with Some st -> a + f st | None -> a)
      0 stats
  in
  let configs = total (fun st -> st.Explore.explored) in
  let explore_s = List.fold_left (fun a (_, _, t) -> a +. t) 0. stats in
  let layers =
    if not traced then []
    else
      let checks, check_s = Trace.tallied (Trace.spans ()) ~name:"check" in
      List.map
        (fun p ->
          ( "explore." ^ p ^ "_s",
            List.fold_left
              (fun a (i, _, t) -> if i.proto = p then a +. t else a)
              0. stats ))
        Bench_suite.Registry.explore_protocols
      @ [
          ("explore.configs", fi configs);
          ("explore.terminal", fi (total (fun st -> st.Explore.terminal)));
          ("explore.dedup_hits", fi (total (fun st -> st.Explore.dedup_hits)));
          ("explore.configs_per_s", fi configs /. explore_s);
          ("spec.check_s", check_s);
          ("spec.checks", fi checks);
        ]
  in
  let n = List.length insts in
  {
    setup_s;
    wall_s;
    gc;
    ops = exhaustive;
    attempted = n;
    failed = n - exhaustive;
    sim = [ ("failed_pct", pct (n - exhaustive) n) ];
    fingerprint =
      String.concat ";"
        (List.map
           (fun (i, st, _) ->
             match st with
             | Some (st : Explore.stats) ->
                 Printf.sprintf "%s/%s %d %d %d %d" i.proto i.iname st.explored
                   st.terminal st.dedup_hits st.max_frontier
             | None -> Printf.sprintf "%s/%s violation" i.proto i.iname)
           stats);
    layers;
    errors = List.rev !errs;
  }

(* ------------------------------------------------------------------ *)
(* `countq experiments E25 --no-cache --jobs 1`: the growth-exponent
   grid, every vertex requesting, arrow against the best of the six
   counting protocols at best_counting's widths.                       *)

let e25_families =
  [
    ("list", "path", Gen.path, [ 64; 128; 256; 512; 1024 ]);
    ("mesh", "square_mesh", Gen.square_mesh, [ 8; 12; 16; 20; 30 ]);
    ("complete", "complete", Gen.complete, [ 64; 128; 256; 512; 1024 ]);
    ("star", "star", Gen.star, [ 32; 64; 128; 256; 512 ]);
  ]

(* E25's (n, arrow, best counting) normalised delays per point. *)
let e25_expected =
  [
    ("list:64", (64, 126, 2016)); ("list:128", (128, 254, 8128));
    ("list:256", (256, 510, 32640)); ("list:512", (512, 1022, 130816));
    ("list:1024", (1024, 2046, 523776)); ("mesh:8", (64, 126, 2016));
    ("mesh:12", (144, 286, 10296)); ("mesh:16", (256, 510, 32640));
    ("mesh:20", (400, 798, 68400)); ("mesh:30", (900, 1798, 234900));
    ("complete:64", (64, 126, 2016)); ("complete:128", (128, 254, 4595));
    ("complete:256", (256, 510, 9762)); ("complete:512", (512, 1022, 19865));
    ("complete:1024", (1024, 2046, 47602)); ("star:32", (32, 1891, 527));
    ("star:64", (64, 7875, 2079)); ("star:128", (128, 32131, 8255));
    ("star:256", (256, 129795, 32895)); ("star:512", (512, 521731, 131327));
  ]

let counting_protocols =
  [
    ("central", `Central); ("combining", `Combining);
    ("diffracting", `Diffracting); ("funnel", `Funnel); ("network", `Network);
    ("sweep", `Sweep);
  ]

let paper_sweep ~seed:_ ~traced =
  let errs = ref [] in
  let graphs, setup_s =
    setup ~traced (fun () ->
        List.concat_map
          (fun (family, gen_name, mk, params) ->
            List.map
              (fun p ->
                let g = call ~layer:"topology" ("Gen." ^ gen_name) (fun () -> mk p) in
                (Printf.sprintf "%s:%d" family p, g, List.init (Graph.n g) Fun.id))
              params)
          e25_families)
  in
  let per_proto = Hashtbl.create 8 in
  let ops = ref 0 and failed = ref 0 and msgs = ref 0 and delay = ref 0 in
  let run_call pname name f =
    let (s : Run.summary), t =
      Probe.timed (fun () ->
          call ~layer:"core.run" name (fun () ->
              Trace.note [ ("protocol", Json.Str pname) ];
              counted
                (fun (s : Run.summary) ->
                  [ ("k", s.k); ("rounds", s.rounds); ("messages", s.messages) ])
                (f ())))
    in
    let t0, m0 = Option.value (Hashtbl.find_opt per_proto pname) ~default:(0., 0) in
    Hashtbl.replace per_proto pname (t0 +. t, m0 + s.messages);
    ops := !ops + s.k;
    msgs := !msgs + s.messages;
    delay := !delay + s.normalized_delay;
    if not s.valid then failed := !failed + s.k;
    expect errs s.valid "%s on n=%d produced an invalid output" s.protocol s.n;
    s
  in
  let points, wall_s, gc =
    measured (fun () ->
        List.map
          (fun (name, graph, requests) ->
            let q =
              run_call "arrow" "Run.queuing" (fun () ->
                  Run.queuing ~graph ~protocol:`Arrow ~requests ())
            in
            let adaptive =
              Funnel.adaptive_width ~n:(Graph.n graph)
                ~concurrency:(List.length requests)
            in
            let candidates =
              List.map
                (fun (pname, protocol) ->
                  let width =
                    match protocol with
                    | `Diffracting | `Funnel -> Some adaptive
                    | `Central | `Combining | `Network | `Sweep -> None
                  in
                  run_call pname "Run.counting" (fun () ->
                      Run.counting ?width ~graph ~protocol ~requests ()))
                counting_protocols
            in
            let best =
              match
                List.stable_sort
                  (fun (a : Run.summary) (b : Run.summary) ->
                    compare a.normalized_delay b.normalized_delay)
                  (List.filter (fun (s : Run.summary) -> s.valid) candidates)
              with
              | best :: _ -> best.normalized_delay
              | [] -> -1
            in
            (name, (Graph.n graph, q.normalized_delay, best)))
          graphs)
  in
  List.iter
    (fun (name, ((n, qd, cd) as got)) ->
      match List.assoc_opt name e25_expected with
      | Some want when want = got -> ()
      | Some (wn, wq, wc) ->
          expect errs false "%s: (n, arrow, counting) = (%d, %d, %d), E25 has (%d, %d, %d)"
            name n qd cd wn wq wc
      | None -> expect errs false "%s is not an E25 point" name)
    points;
  let layers =
    if not traced then []
    else
      let get p = Option.value (Hashtbl.find_opt per_proto p) ~default:(0., 0) in
      let run_s = Hashtbl.fold (fun _ (t, _) a -> a +. t) per_proto 0. in
      List.map
        (fun p -> ("run." ^ p ^ "_s", fst (get p)))
        Bench_suite.Registry.run_protocols
      @ List.map
          (fun p -> ("run." ^ p ^ "_msgs", fi (snd (get p))))
          Bench_suite.Registry.run_protocols
      @ [
          ("engine.messages", fi !msgs);
          ("engine.ns_per_msg", run_s *. 1e9 /. fi !msgs);
        ]
  in
  {
    setup_s;
    wall_s;
    gc;
    ops = !ops - !failed;
    attempted = !ops;
    failed = !failed;
    sim =
      [
        ("msgs_per_op", ratio !msgs !ops);
        ("delay_mean_rounds", ratio !delay !ops);
        ("failed_pct", pct !failed !ops);
      ];
    fingerprint =
      String.concat ";"
        (List.map
           (fun (name, (n, qd, cd)) -> Printf.sprintf "%s %d %d %d" name n qd cd)
           points)
      ^ Printf.sprintf " | %d %d" !msgs !delay;
    layers;
    errors = List.rev !errs;
  }

let all =
  [
    ("open-queue", open_queue);
    ("open-funnel", open_funnel);
    ("oneshot-1m", oneshot);
    ("check", check);
    ("paper-sweep", paper_sweep);
  ]
