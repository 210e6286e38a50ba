(* The one-shot drivers over every protocol of Run's table: the plain
   run under metrics, span and trace taps and the fault-free faulty
   driver are the plain run with something watching, the asynchronous
   driver meets the spec,
   Run's fault and observe reports read the same run, every handler
   leaves the state it is given alone, and the model checker's
   terminals cover every schedule the engines produce (its
   over-approximation claim, explore.mli). *)

module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Engine = Countq_simnet.Engine
module Async = Countq_simnet.Async
module Explore = Countq_simnet.Explore
module Faults = Countq_simnet.Faults
module Metrics = Countq_simnet.Metrics
module Monitor = Countq_simnet.Monitor
module Oneshot = Countq_simnet.Oneshot
module Span = Countq_simnet.Span
module Trace = Countq_simnet.Trace
module Run = Countq.Run

(* Every protocol of the table, on its default tree. *)
let protocols = List.map snd Run.protocols

(* The dynamic queue's flooding outgrows the default budget of a
   million configurations on 5-node instances; `countq check` explores
   it on fixed 3-4 node ones. *)
let explorable = List.filter (fun p -> p <> `Dynamic_queue) protocols

let instance_gen protocols topology_gen =
  let open QCheck2.Gen in
  let* p = oneofl protocols in
  let* topo, g = topology_gen in
  let n = Graph.n g in
  let* mask = list_size (return n) bool in
  let requests = List.filteri (fun i _ -> List.nth mask i) (Helpers.all_nodes n) in
  return (p, (topo, g, requests))

let print (p, inst) = Run.name p ^ " on " ^ Helpers.instance_print inst

(* ---- the drivers agree with Oneshot.run ---- *)

let drivers_agree inst =
  let plain = Oneshot.run inst in
  let span_tap, _ =
    Span.tap ~injects:inst.spec.injects ~op_of_msg:inst.op_of_msg
      ~op_of_completion:inst.spec.op_of_completion ()
  in
  let metrics = Metrics.tap (Metrics.create ~graph:inst.Oneshot.graph) in
  let observed = Oneshot.run ~tap:(Engine.both metrics span_tap) inst in
  let trace_tap, _ = Trace.tap () in
  let traced = Oneshot.run ~tap:trace_tap inst in
  let faulty = Oneshot.faulty ~plan:Faults.none inst in
  let asynchronous = Oneshot.async ~delay:(Async.Constant 1) inst in
  observed = plain && traced = plain
  && faulty.result = plain && faulty.retry = None
  && Monitor.all_pass faulty.monitors
  && inst.spec.check asynchronous.completions = Ok ()

let prop_drivers_agree =
  QCheck2.Test.make ~name:"observed, traced and faulty(none) equal Oneshot.run"
    ~count:300 ~print
    (instance_gen protocols Helpers.topology_gen)
    (fun (p, (_, graph, requests)) ->
      let (Run.Instance { inst; _ }) = Run.instance ~graph ~requests p in
      drivers_agree inst)

(* ---- Run's fault and observe reports read the same run ---- *)

let reports_agree p graph requests =
  let (Run.Instance { inst; _ }) = Run.instance ~graph ~requests p in
  let plain = Oneshot.run inst in
  let k = List.length requests in
  let f = Run.run_faulty ~graph ~protocol:p ~plan:Faults.none ~requests () in
  let o = Run.observe ~graph ~protocol:p ~requests () in
  f.expected = k && f.completed = k && f.valid && f.extra_rounds = 0
  && f.extra_messages = 0 && f.safe && f.live && o.completed = k && o.o_valid
  && o.o_rounds = plain.rounds && o.o_messages = plain.messages
  && List.sort compare (List.map (fun (s : Span.t) -> s.op) o.spans)
     = List.sort compare requests
  && List.for_all (fun (s : Span.t) -> s.completion_round <> None) o.spans

let prop_reports_agree =
  QCheck2.Test.make
    ~name:"run_faulty(none) and observe report the plain run, every protocol"
    ~count:200 ~print
    (instance_gen protocols Helpers.topology_gen)
    (fun (p, (_, graph, requests)) -> reports_agree p graph requests)

(* ---- Explore's terminals cover every engine schedule ---- *)

let sized_topology_gen lo hi =
  let open QCheck2.Gen in
  let* n = int_range lo hi in
  let* seed = int_range 0 10_000 in
  oneofl
    [
      (Printf.sprintf "path-%d" n, Gen.path n);
      (Printf.sprintf "cycle-%d" n, Gen.cycle n);
      (Printf.sprintf "star-%d" n, Gen.star n);
      (Printf.sprintf "complete-%d" n, Gen.complete n);
      ( Printf.sprintf "rtree-%d-%d" n seed,
        Gen.random_tree (Countq_util.Rng.create (Int64.of_int seed)) n );
    ]

let small_topology_gen = sized_topology_gen 3 5

(* A terminal as the sorted multiset of its (node, value) completions. *)
let multiset completions =
  List.sort compare
    (List.map (fun (c : _ Engine.completion) -> (c.node, c.value)) completions)

let covered ~seed inst =
  let terminals = Hashtbl.create 64 in
  let check completions =
    Hashtbl.replace terminals (multiset completions) ();
    inst.Oneshot.spec.check completions
  in
  (match Oneshot.explore { inst with spec = { inst.spec with check } } with
  | Explore.Exhaustive _ -> ()
  | Explore.Budget_exhausted _ -> failwith "instance too large to explore");
  let with_arbiter arbiter =
    { inst with config = { inst.config with arbiter } }
  in
  let custom =
    Engine.Custom
      (fun ~round ~node ~candidates ->
        List.nth candidates
          (Helpers.mix (Helpers.mix seed round) node mod List.length candidates))
  in
  let runs =
    List.map
      (fun arbiter -> Oneshot.run (with_arbiter arbiter))
      [ Engine.Round_robin; Engine.Lowest_sender_first; custom ]
    @ List.map
        (fun s ->
          Oneshot.async
            ~delay:(Async.Uniform { min = 1; max = 5; seed = Int64.of_int (seed + s) })
            inst)
        [ 0; 1; 2 ]
  in
  List.for_all
    (fun (r : _ Engine.result) -> Hashtbl.mem terminals (multiset r.completions))
    runs

let prop_explore_covers_engines =
  QCheck2.Test.make
    ~name:"engine and async runs end in an explored terminal" ~count:200
    ~print:(fun (inst, seed) -> Printf.sprintf "%s seed %d" (print inst) seed)
    QCheck2.Gen.(
      pair (instance_gen explorable small_topology_gen) (int_range 0 1_000_000))
    (fun ((p, (_, graph, requests)), seed) ->
      let (Run.Instance { inst; _ }) = Run.instance ~graph ~requests p in
      covered ~seed inst)

(* ---- every handler returns a new state ---- *)

(* The model checker branches from the states a handler was given, so
   a protocol that updates its state in place corrupts exploration
   (explore.mli); Helpers.pure fails the run on any such update. The
   dynamic queue's flooding state makes marshalling it at every
   handler call slow past a dozen nodes. *)
let prop_protocols_pure =
  QCheck2.Test.make ~name:"every protocol of the table leaves its state alone"
    ~count:300 ~print
    (instance_gen protocols (sized_topology_gen 3 12))
    (fun (p, (_, graph, requests)) ->
      let (Run.Instance { inst; _ }) = Run.instance ~graph ~requests p in
      Oneshot.run { inst with protocol = Helpers.pure inst.protocol }
      = Oneshot.run inst)

(* ---- long-lived instances ---- *)

module Arrow = Countq_arrow.Protocol
module Central = Countq_counting.Central
module Network = Countq_counting.Network

(* The same drivers reach the long-lived instances of the arrow, the
   central counter and the counting network: up to three ops per node,
   so one node's ops overlap, at random rounds below 256. That keeps
   every gap inside the progress monitor's budget (1024 silent rounds
   under Oneshot.faulty): its silence clock also runs while a node only
   waits to issue, so a longer gap reads as a stall. *)
let long_lived_gen =
  let open QCheck2.Gen in
  let* topo, g = Helpers.topology_gen in
  let n = Graph.n g in
  let* arrivals =
    flatten_l
      (List.init n (fun v ->
           let* k = int_range 0 3 in
           list_size (return k) (map (fun r -> (v, r)) (int_range 0 255))))
  in
  return (topo, g, List.concat arrivals)

let long_lived_print (topo, _, arrivals) =
  Printf.sprintf "%s with arrivals %s" topo
    (String.concat ";"
       (List.map (fun (v, r) -> Printf.sprintf "%d@%d" v r) arrivals))

let long_lived_sound inst =
  let plain = Oneshot.run inst in
  drivers_agree inst
  && inst.spec.check plain.completions = Ok ()
  && Oneshot.run { inst with protocol = Helpers.pure inst.protocol } = plain

let prop_long_lived_drivers =
  QCheck2.Test.make
    ~name:"long-lived instances: drivers agree, monitors pass, handlers pure"
    ~count:150 ~print:long_lived_print long_lived_gen
    (fun (_, graph, arrivals) ->
      let schedule = Helpers.schedule ~n:(Graph.n graph) arrivals in
      let tree = Countq_topology.Spanning.best_for_arrow graph in
      long_lived_sound (Arrow.long_lived ~tree ~schedule ())
      && long_lived_sound (Central.long_lived ~graph ~schedule ())
      && long_lived_sound (Network.long_lived ~graph ~schedule ()))

(* A one-shot run is the long-lived run with every arrival at 0, and
   the long-lived converters read it as the one-shot ones do. *)
let same_long_lived_run (_, graph, requests) =
  let schedule =
    Helpers.schedule ~n:(Graph.n graph) (List.map (fun v -> (v, 0)) requests)
  in
  let tree = Countq_topology.Spanning.best_for_arrow graph in
  let counted res =
    let ll = Countq_counting.Counts.of_long_lived ~schedule res in
    let os = Countq_counting.Counts.of_engine ~requests res in
    let ll_outcome (o : Countq_counting.Counts.long_lived_outcome) =
      (o.node, o.count, o.delay)
    and os_outcome (o : Countq_counting.Counts.outcome) =
      (o.node, o.count, o.round)
    in
    ll.counts_exact = Result.is_ok os.valid
    && List.map ll_outcome ll.outcomes = List.map os_outcome os.outcomes
  in
  let arrow = Oneshot.run (Arrow.long_lived ~tree ~schedule ()) in
  let central = Oneshot.run (Central.long_lived ~graph ~schedule ()) in
  let network = Oneshot.run (Network.long_lived ~graph ~schedule ()) in
  arrow = Oneshot.run (Arrow.one_shot ~tree ~requests ())
  && Arrow.of_long_lived ~schedule arrow = Arrow.of_engine arrow
  && central = Oneshot.run (Central.one_shot ~graph ~requests ())
  && counted central
  && network = Oneshot.run (Network.one_shot ~graph ~requests ())
  && counted network

let prop_long_lived_at_zero =
  QCheck2.Test.make
    ~name:"a long-lived run with every arrival at round 0 is the one-shot run"
    ~count:200 ~print:Helpers.instance_print Helpers.instance_gen
    same_long_lived_run

let suite =
  [
    Helpers.qcheck prop_drivers_agree;
    Helpers.qcheck prop_reports_agree;
    Helpers.qcheck prop_explore_covers_engines;
    Helpers.qcheck prop_long_lived_drivers;
    Helpers.qcheck prop_long_lived_at_zero;
    Helpers.qcheck prop_protocols_pure;
  ]
