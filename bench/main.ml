(* Kernel micro-probes: Bechamel ns/run estimates for the hot inner
   kernels the experiments lean on (graph generation, spanning-tree
   choice, one-shot arrow, NN-TSP, the counting protocols, the counting
   network routed along a path, the open-loop arrow on a torus, the
   idle fast-forward, the sweep protocol's one-active-node regime,
   bitonic pushes and the contention lower bound), plus what an engine tap
   costs: the `+tap` probes attach a passive Metrics + Telemetry tap,
   the `+monitor` probe the spec's monitors (an active tap), each
   beside its untapped twin.

   Usage:
     dune exec bench/main.exe

   Takes no flags and writes no file: it prints one ns/run table. The
   end-to-end benchmark, with medians, spread, peak RSS, per-layer
   metrics and a noise-aware compare, is bench/suite (see
   bench/suite/README.md); experiment tables come from
   `countq experiments`. *)

module Engine = Countq_simnet.Engine
module Metrics = Countq_simnet.Metrics
module Telemetry = Countq_simnet.Telemetry
module Monitor = Countq_simnet.Monitor
module Oneshot = Countq_simnet.Oneshot
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Rng = Countq_util.Rng

open Bechamel
open Toolkit

let kernel_tests () =
  let mesh = Gen.square_mesh 16 in
  let mesh_tree = Spanning.best_for_arrow mesh in
  let all_256 = List.init 256 (fun i -> i) in
  let rng = Rng.create 99L in
  let half = Rng.sample rng ~k:128 ~n:256 in
  (* kernel:engine-idle-rounds — a quiescent run whose node 0 asks at
     time 0 to be woken in round 1_000_000; measures the idle
     fast-forward (the reference engine spins a million rounds here). *)
  let idle_graph = Gen.path 4 in
  let idle_config = Engine.default_config in
  let idle_protocol =
    {
      Engine.name = "idle";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s -> (s, if node = 0 then [ Engine.Wake 1_000_000 ] else []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_wake = Engine.no_wake;
    }
  in
  (* kernel:sweep-list-512 — the Theta(n^2)-round, one-active-node
     regime the active sets exist for. *)
  (* The +tap probes build fresh recorders per run, as a caller would. *)
  let recorders graph =
    Engine.both
      (Metrics.tap (Metrics.create ~graph))
      (Telemetry.tap (Telemetry.create ~window_size:16 ()))
  in
  (* kernel:arrow-one-shot-256 with a tap: the same instance build,
     run and result conversion as the untapped probe. *)
  let run_arrow tap =
    let i = Countq_arrow.Protocol.one_shot ~tree:mesh_tree ~requests:all_256 () in
    ignore
      (Countq_arrow.Protocol.of_engine
         (Engine.run ~tap:(tap i) ~graph:i.Oneshot.graph ~config:i.config
            ~protocol:i.protocol ()))
  in
  let list_512 = Gen.path 512 in
  let list_512_tree = Spanning.best_for_arrow list_512 in
  let all_512 = List.init 512 (fun i -> i) in
  let torus_300 = Countq_topology.Implicit.torus ~dims:[ 300; 300 ] in
  [
    Test.make ~name:"kernel:graph-mesh-16x16"
      (Staged.stage (fun () -> ignore (Gen.square_mesh 16)));
    Test.make ~name:"kernel:graph-complete-512"
      (Staged.stage (fun () -> ignore (Gen.complete 512)));
    (* The counting network on a path, as E25 runs it: each run builds
       its own route, so this includes the tree route's first use. *)
    Test.make ~name:"kernel:network-list-512"
      (Staged.stage (fun () ->
           ignore
             (Countq.Run.counting ~graph:list_512 ~protocol:`Network
                ~requests:all_512 ())));
    (* The open-loop arrow at one shard, as `countq load --quick -t
       torus:300x300 -w queuing` runs its rate-1 row: it touches 18,065
       of 90,000 nodes, so it starts on the first-touch store and
       switches to the pre-assigned one mid-run. *)
    Test.make ~name:"kernel:load-queuing-torus-300"
      (Staged.stage (fun () ->
           ignore
             (Countq.Load.run ~topo:torus_300 ~workload:Countq.Load.Queuing
                ~arrival:(Countq.Load.Poisson 1.) ~horizon:256 ())));
    Test.make ~name:"kernel:spanning-best-for-arrow"
      (Staged.stage (fun () -> ignore (Spanning.best_for_arrow mesh)));
    Test.make ~name:"kernel:arrow-one-shot-256"
      (Staged.stage (fun () ->
           ignore
             (Countq_arrow.Protocol.of_engine
                (Oneshot.run
                   (Countq_arrow.Protocol.one_shot ~tree:mesh_tree
                      ~requests:all_256 ())))));
    Test.make ~name:"kernel:arrow-one-shot-256+tap"
      (Staged.stage (fun () -> run_arrow (fun i -> recorders i.Oneshot.graph)));
    Test.make ~name:"kernel:arrow-one-shot-256+monitor"
      (Staged.stage (fun () ->
           run_arrow (fun i -> Monitor.tap (i.Oneshot.spec.monitors ()))));
    Test.make ~name:"kernel:nn-tsp-256"
      (Staged.stage (fun () ->
           ignore
             (Countq_tsp.Nn.on_tree mesh_tree ~start:(Tree.root mesh_tree)
                ~requests:half)));
    Test.make ~name:"kernel:central-counting-mesh"
      (Staged.stage (fun () ->
           ignore
             (Countq_counting.Counts.of_engine ~requests:half
                (Oneshot.run
                   (Countq_counting.Central.one_shot ~graph:mesh ~requests:half
                      ())))));
    Test.make ~name:"kernel:counting-network-mesh"
      (Staged.stage (fun () ->
           ignore
             (Countq_counting.Counts.of_engine ~requests:half
                (Oneshot.run
                   (Countq_counting.Network.one_shot ~graph:mesh ~requests:half
                      ())))));
    Test.make ~name:"kernel:engine-idle-rounds"
      (Staged.stage (fun () ->
           ignore
             (Engine.run ~graph:idle_graph ~config:idle_config
                ~protocol:idle_protocol ())));
    Test.make ~name:"kernel:engine-idle-rounds+tap"
      (Staged.stage (fun () ->
           ignore
             (Engine.run ~tap:(recorders idle_graph) ~graph:idle_graph
                ~config:idle_config ~protocol:idle_protocol ())));
    Test.make ~name:"kernel:sweep-list-512"
      (Staged.stage (fun () ->
           ignore
             (Countq_counting.Counts.of_engine ~requests:all_512
                (Oneshot.run
                   (Countq_counting.Sweep.one_shot ~tree:list_512_tree
                      ~requests:all_512 ())))));
    Test.make ~name:"kernel:bitonic-push-1k"
      (Staged.stage (fun () ->
           let net = Countq_counting.Bitonic.create ~width:32 in
           let st = Countq_counting.Bitonic.State.create net in
           for t = 0 to 999 do
             ignore (Countq_counting.Bitonic.State.push st ~wire:(t land 31))
           done));
    Test.make ~name:"kernel:lower-bound-sum-4096"
      (Staged.stage (fun () -> ignore (Countq_bounds.Lower.contention_lb 4096)));
  ]

let () =
  let tests = Test.make_grouped ~name:"countq" ~fmt:"%s/%s" (kernel_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  print_endline "== Bechamel kernel micro-probes (monotonic clock) ==";
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> (name, Float.nan) :: acc)
      clock []
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Printf.printf "%-40s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "%-40s %10.1f ns/run\n" name ns)
    (List.sort compare rows)
