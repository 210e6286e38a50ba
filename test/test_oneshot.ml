(* The one-shot drivers over every protocol's instance: the observed,
   traced and fault-free faulty drivers are the plain run with
   something watching, the asynchronous driver meets the spec, and the
   model checker's terminals cover every schedule the engines produce
   (its over-approximation claim, explore.mli). *)

module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Async = Countq_simnet.Async
module Explore = Countq_simnet.Explore
module Faults = Countq_simnet.Faults
module Metrics = Countq_simnet.Metrics
module Monitor = Countq_simnet.Monitor
module Oneshot = Countq_simnet.Oneshot
module Arrow = Countq_arrow.Protocol
module Counting = Countq_counting
module Queuing = Countq_queuing

(* Every protocol with a [one_shot] constructor, on its default tree. *)
let protocols =
  [ "arrow"; "arrow+notify"; "central-count"; "central-queue"; "token-ring";
    "dynamic-queue"; "combining"; "diffracting"; "funnel"; "sweep"; "network" ]

(* The network's balancers toggle mutable tables in place, which the
   model checker's structural configurations cannot hold (exploring it
   reports spurious violations). The dynamic queue's flooding outgrows
   the default budget of a million configurations on 5-node instances;
   `countq check` explores it on fixed 3-4 node ones. *)
let explorable =
  List.filter (fun p -> p <> "network" && p <> "dynamic-queue") protocols

type 'a visitor = { visit : 's 'm 'r. ('s, 'm, 'r) Oneshot.t -> 'a }

let with_instance name g requests v =
  let bfs () = Spanning.bfs g ~root:0 in
  let arrow_tree () = Spanning.best_for_arrow g in
  match name with
  | "arrow" -> v.visit (Arrow.one_shot ~tree:(arrow_tree ()) ~requests ())
  | "arrow+notify" ->
      v.visit (Arrow.one_shot ~notify:true ~tree:(arrow_tree ()) ~requests ())
  | "central-count" -> v.visit (Counting.Central.one_shot ~graph:g ~requests ())
  | "central-queue" ->
      v.visit (Queuing.Central_queue.one_shot ~graph:g ~requests ())
  | "token-ring" -> v.visit (Queuing.Token_ring.one_shot ~tree:(bfs ()) ~requests ())
  | "dynamic-queue" -> v.visit (Queuing.Dynamic_queue.one_shot ~graph:g ~requests ())
  | "combining" -> v.visit (Counting.Combining.one_shot ~tree:(bfs ()) ~requests ())
  | "diffracting" ->
      v.visit (Counting.Diffracting.one_shot ~tree:(bfs ()) ~requests ())
  | "funnel" -> v.visit (Counting.Funnel.one_shot ~tree:(bfs ()) ~requests ())
  | "sweep" -> v.visit (Counting.Sweep.one_shot ~tree:(arrow_tree ()) ~requests ())
  | "network" -> v.visit (Counting.Network.one_shot ~graph:g ~requests ())
  | other -> invalid_arg other

let instance_gen names topology_gen =
  let open QCheck2.Gen in
  let* name = oneofl names in
  let* topo, g = topology_gen in
  let n = Graph.n g in
  let* mask = list_size (return n) bool in
  let requests = List.filteri (fun i _ -> List.nth mask i) (Helpers.all_nodes n) in
  return (name, (topo, g, requests))

let print (name, inst) = name ^ " on " ^ Helpers.instance_print inst

(* ---- the drivers agree with Oneshot.run ---- *)

let drivers_agree inst =
  let plain = Oneshot.run inst in
  let observed, _, injected =
    Oneshot.observed ~metrics:(Metrics.create ~graph:inst.Oneshot.graph) inst
  in
  let traced, _ = Oneshot.traced inst in
  let faulty = Oneshot.faulty ~plan:Faults.none inst in
  let asynchronous = Oneshot.async ~delay:(Async.Constant 1) inst in
  observed = plain && injected = None && traced = plain
  && faulty.result = plain && faulty.retry = None
  && Monitor.all_pass faulty.monitors
  && inst.spec.check asynchronous.completions = Ok ()

let prop_drivers_agree =
  QCheck2.Test.make ~name:"observed, traced and faulty(none) equal Oneshot.run"
    ~count:300 ~print
    (instance_gen protocols Helpers.topology_gen)
    (fun (name, (_, g, requests)) ->
      with_instance name g requests { visit = drivers_agree })

(* ---- Explore's terminals cover every engine schedule ---- *)

let small_topology_gen =
  let open QCheck2.Gen in
  let* n = int_range 3 5 in
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
    (fun ((name, (_, g, requests)), seed) ->
      with_instance name g requests { visit = (fun inst -> covered ~seed inst) })

let suite =
  [
    Helpers.qcheck prop_drivers_agree;
    Helpers.qcheck prop_explore_covers_engines;
  ]
