(* Uniform protocol drivers. See run.mli. *)

module Graph = Countq_topology.Graph
module Spanning = Countq_topology.Spanning
module Counting = Countq_counting
module Arrow = Countq_arrow
module Queuing = Countq_queuing
module Oneshot = Countq_simnet.Oneshot

type kind = Counting | Queuing

type protocol =
  [ `Arrow | `Arrow_notify | `Central_queue | `Token_ring | `Dynamic_queue
  | `Central_count | `Combining | `Diffracting | `Funnel | `Network | `Sweep ]

let protocols : (string * protocol) list =
  [ ("arrow", `Arrow); ("arrow+notify", `Arrow_notify);
    ("central-queue", `Central_queue); ("token-ring", `Token_ring);
    ("dynamic-queue", `Dynamic_queue); ("central-count", `Central_count);
    ("combining", `Combining); ("diffracting", `Diffracting);
    ("funnel", `Funnel); ("network", `Network); ("sweep", `Sweep) ]

let name p = fst (List.find (fun (_, q) -> q = p) protocols)

let label : protocol -> string = function
  | `Arrow -> "queue/arrow"
  | `Arrow_notify -> "queue/arrow+notify"
  | `Central_queue -> "queue/central"
  | `Token_ring -> "queue/token-ring"
  | `Dynamic_queue -> "queue/dynamic"
  | `Central_count -> "count/central"
  | `Combining -> "count/combining"
  | `Diffracting -> "count/diffracting"
  | `Funnel -> "count/funnel"
  | `Network -> "count/network"
  | `Sweep -> "count/sweep"

module Engine = Countq_simnet.Engine

type tally = {
  t_completed : int;
  t_valid : bool;
  t_rounds : int;
  t_messages : int;
  t_total_delay : int;
  t_max_delay : int;
  t_expansion : int;
}

type _ family =
  | Count : (int * int) family
  | Queue : (Arrow.Types.op * Arrow.Types.pred) family

type instance =
  | Instance : {
      family : 'r family;
      inst : ('s, 'm, 'r) Oneshot.t;
      tally : 'r Engine.result -> tally;
    }
      -> instance

let kind_of (Instance { family; _ }) =
  match family with Count -> Counting | Queue -> Queuing

let of_order (r : Arrow.Protocol.run_result) =
  {
    t_completed = List.length r.outcomes;
    t_valid = Result.is_ok r.order;
    t_rounds = r.rounds;
    t_messages = r.messages;
    t_total_delay = r.total_delay;
    t_max_delay = r.max_delay;
    t_expansion = r.expansion;
  }

let queue inst =
  let tally res = of_order (Arrow.Protocol.of_engine res) in
  Instance { family = Queue; inst; tally }

let count ~requests inst =
  let tally res =
    let (r : Counting.Counts.run_result) =
      Counting.Counts.of_engine ~requests res
    in
    {
      t_completed = List.length r.outcomes;
      t_valid = Result.is_ok r.valid;
      t_rounds = r.rounds;
      t_messages = r.messages;
      t_total_delay = r.total_delay;
      t_max_delay = r.max_delay;
      t_expansion = r.expansion;
    }
  in
  Instance { family = Count; inst; tally }

let instance ?tree ?width ~graph ~requests (p : protocol) =
  let tree default = match tree with Some t -> t | None -> default graph in
  let bfs g = Spanning.bfs g ~root:0 in
  let arrow_tree () = tree Spanning.best_for_arrow in
  match p with
  | (`Arrow | `Arrow_notify) as p ->
      queue
        (Arrow.Protocol.one_shot ~notify:(p = `Arrow_notify)
           ~tree:(arrow_tree ()) ~requests ())
  | `Central_queue -> queue (Queuing.Central_queue.one_shot ~graph ~requests ())
  | `Token_ring ->
      queue (Queuing.Token_ring.one_shot ~tree:(arrow_tree ()) ~requests ())
  | `Dynamic_queue -> queue (Queuing.Dynamic_queue.one_shot ~graph ~requests ())
  | `Central_count ->
      count ~requests (Counting.Central.one_shot ~graph ~requests ())
  | `Combining ->
      count ~requests (Counting.Combining.one_shot ~tree:(tree bfs) ~requests ())
  | `Diffracting ->
      count ~requests
        (Counting.Diffracting.one_shot ?width ~tree:(tree bfs) ~requests ())
  | `Funnel ->
      count ~requests
        (Counting.Funnel.one_shot ?width ~tree:(tree bfs) ~requests ())
  | `Network ->
      count ~requests (Counting.Network.one_shot ?width ~graph ~requests ())
  | `Sweep ->
      count ~requests (Counting.Sweep.one_shot ~tree:(arrow_tree ()) ~requests ())

type counting_protocol =
  [ `Central | `Combining | `Diffracting | `Funnel | `Network | `Sweep ]
type queuing_protocol = [ `Arrow | `Arrow_notify | `Central | `Token_ring ]

type summary = {
  protocol : string;
  kind : kind;
  n : int;
  k : int;
  total_delay : int;
  normalized_delay : int;
  max_delay : int;
  rounds : int;
  messages : int;
  expansion : int;
  valid : bool;
}

let summary_of ~graph ~requests p (Instance { inst; tally; _ } as i) =
  let t = tally (Oneshot.run inst) in
  {
    protocol = label p;
    kind = kind_of i;
    n = Graph.n graph;
    k = List.length requests;
    total_delay = t.t_total_delay;
    normalized_delay = t.t_total_delay * t.t_expansion;
    max_delay = t.t_max_delay;
    rounds = t.t_rounds;
    messages = t.t_messages;
    expansion = t.t_expansion;
    valid = t.t_valid;
  }

let summarise ~graph ~requests p =
  summary_of ~graph ~requests p (instance ~graph ~requests p)

let counting ?tree ?width ~graph ~protocol ~requests () =
  let p =
    match protocol with
    | `Central -> `Central_count
    | (`Combining | `Diffracting | `Funnel | `Network | `Sweep) as p -> p
  in
  summary_of ~graph ~requests p (instance ?tree ?width ~graph ~requests p)

let queuing ?tree ~graph ~protocol ~requests () =
  let p =
    match protocol with
    | `Central -> `Central_queue
    | (`Arrow | `Arrow_notify | `Token_ring) as p -> p
  in
  summary_of ~graph ~requests p (instance ?tree ~graph ~requests p)

module Faults = Countq_simnet.Faults
module Monitor = Countq_simnet.Monitor
module Parallel = Countq_util.Parallel

(* Evaluate two independent runs on the shared pool (the faulty arm and
   its fault-free baseline); without a pool, sequentially. *)
let pair pool f g =
  match pool with
  | None -> (f (), g ())
  | Some p -> (
      match
        Parallel.pool_map p ~chunk:1
          (fun h -> h ())
          [ (fun () -> `Fst (f ())); (fun () -> `Snd (g ())) ]
      with
      | [ `Fst a; `Snd b ] -> (a, b)
      | _ -> assert false)

type fault_summary = {
  protocol : string;
  plan : string;
  retry : bool;
  expected : int;
  completed : int;
  valid : bool;
  rounds : int;
  extra_rounds : int;
  messages : int;
  extra_messages : int;
  injected : Faults.stats;
  monitors : Monitor.report;
  retry_stats : Countq_simnet.Reliable.stats option;
  safe : bool;
  live : bool;
}

let run_faulty ?pool ?tree ?(retry = false) ?ack_timeout ?max_retries
    ?progress_budget ~graph ~protocol ~plan ~requests () =
  let (Instance { inst; tally; _ }) = instance ?tree ~graph ~requests protocol in
  (* The faulty run next to its fault-free baseline under the same
     configuration, so the extra_* columns isolate what the faults (and
     the retry layer) cost. *)
  let (r : _ Oneshot.report), (base : _ Engine.result) =
    pair pool
      (fun () ->
        Oneshot.faulty ~retry ?ack_timeout ?max_retries ?progress_budget ~plan
          inst)
      (fun () -> Oneshot.run inst)
  in
  let t = tally r.result in
  {
    protocol = label protocol;
    plan = Faults.label plan;
    retry;
    expected = List.length requests;
    completed = t.t_completed;
    valid = t.t_valid;
    rounds = t.t_rounds;
    extra_rounds = t.t_rounds - base.rounds;
    messages = t.t_messages;
    extra_messages = t.t_messages - base.messages;
    injected = r.injected;
    monitors = r.monitors;
    retry_stats = r.retry;
    safe = Monitor.safety_ok r.monitors;
    live = Monitor.liveness_ok r.monitors;
  }

module Dynamic = Countq_simnet.Dynamic

type churn_protocol =
  [ `Dynamic_queue | `Arrow_static | `Arrow_routed | `Central_count ]

let churn_protocol_name = function
  | `Dynamic_queue -> "queue/dynamic"
  | `Arrow_static -> "queue/arrow-static"
  | `Arrow_routed -> "queue/arrow+route"
  | `Central_count -> "count/central+retry"

type churn_summary = {
  c_protocol : string;
  schedule : string;
  c_expected : int;
  c_completed : int;
  c_valid : bool;
  c_rounds : int;
  c_extra_rounds : int;
  c_messages : int;
  c_extra_messages : int;
  topo : Dynamic.stats;
  c_monitors : Monitor.report;
  c_safe : bool;
  c_live : bool;
  c_stalled : bool;
  c_retry : Countq_simnet.Reliable.stats option;
}

(* One arm of the churn comparison: run [protocol] under [sched] and
   report what completed. Both arrow arms and the retrying central
   counter run through the faulty driver. The static arrow is the
   victim: the paper's protocol on its spanning tree, with the schedule
   tearing at the tree links and nothing repairing them. The routed
   arrow is the same protocol over Reliable's envelopes, which take the
   shortest usable path of the base graph. The central counter shows
   what hop-by-hop retransmission alone buys. *)
let churn_arm ?tree ?ack_timeout ?max_retries ?progress_budget ~graph ~protocol
    ~sched ~requests () =
  let spanning () =
    match tree with Some t -> t | None -> Spanning.best_for_arrow graph
  in
  let describe_cut ~from ~round = Some (Dynamic.describe_cut sched ~round ~from) in
  let dynamic = Dynamic.start sched in
  match protocol with
  | `Dynamic_queue ->
      let r =
        Queuing.Dynamic_queue.run ?progress_budget ~sched ~graph ~requests ()
      in
      (of_order r.result, r.topo, r.monitors, None)
  | (`Arrow_static | `Arrow_routed) as arm -> (
      let tree = spanning () in
      match instance ~tree ~graph ~requests `Arrow with
      | Instance { family = Count; _ } -> assert false
      | Instance { family = Queue; inst; tally } ->
          let tap, last_holder, _ =
            Queuing.Dynamic_queue.holder_tap
              ~from:(Countq_topology.Tree.root tree)
              ~expected:(List.length requests)
          in
          let diagnose ~round = describe_cut ~from:!last_holder ~round in
          let r =
            if arm = `Arrow_static then
              (* No retransmit ladder to wait out: 512 silent rounds, the
                 progress monitor's own default. *)
              Oneshot.faulty
                ~progress_budget:(Option.value progress_budget ~default:512)
                ~dynamic ~tap ~diagnose ~plan:Faults.none inst
            else
              Oneshot.faulty ~retry:true
                ~ack_timeout:(Option.value ack_timeout ~default:4)
                ~max_retries:(Option.value max_retries ~default:8)
                ~next_hop:(Dynamic.next_hop sched) ?progress_budget ~dynamic
                ~tap ~diagnose ~plan:Faults.none
                {
                  inst with
                  graph;
                  config =
                    Engine.config_with_capacity (max 1 (Graph.max_degree graph));
                }
          in
          (tally r.result, Dynamic.stats dynamic, r.monitors, r.retry))
  | `Central_count ->
      (* Every link heals itself, but the root stays a fixed rendezvous
         the schedule can wall off. *)
      let (Instance { inst; tally; _ }) =
        instance ~graph ~requests `Central_count
      in
      let r =
        Oneshot.faulty ~retry:true ?ack_timeout ?max_retries ?progress_budget
          ~dynamic ~diagnose:(describe_cut ~from:0) ~plan:Faults.none inst
      in
      (tally r.result, Dynamic.stats dynamic, r.monitors, r.retry)

let run_churn ?pool ?tree ?ack_timeout ?max_retries ?progress_budget ~graph
    ~protocol ~sched ~requests () =
  let arm s () =
    churn_arm ?tree ?ack_timeout ?max_retries ?progress_budget ~graph ~protocol
      ~sched:s ~requests ()
  in
  (* The identity-schedule baseline isolates what the adversary (and
     the repair machinery's reaction to it) costs on this instance. *)
  let (t, topo, monitors, retry), (base, _, _, _) =
    pair pool (arm sched) (arm (Dynamic.identity graph))
  in
  {
    c_protocol = churn_protocol_name protocol;
    schedule = Dynamic.label sched;
    c_expected = List.length requests;
    c_completed = t.t_completed;
    c_valid = t.t_valid;
    c_rounds = t.t_rounds;
    c_extra_rounds = t.t_rounds - base.t_rounds;
    c_messages = t.t_messages;
    c_extra_messages = t.t_messages - base.t_messages;
    topo;
    c_monitors = monitors;
    c_safe = Monitor.safety_ok monitors;
    c_live = Monitor.liveness_ok monitors;
    c_stalled = Monitor.stalled monitors;
    c_retry = retry;
  }

module Metrics = Countq_simnet.Metrics
module Span = Countq_simnet.Span

type observation = {
  o_protocol : string;
  o_kind : kind;
  completed : int;
  o_valid : bool;
  o_rounds : int;
  o_messages : int;
  o_total_delay : int;
  o_expansion : int;
  metrics : Metrics.t;
  spans : Span.t list;
  o_injected : Countq_simnet.Faults.stats option;
}

let observe ?tree ?plan ~graph ~protocol ~requests () =
  let metrics = Metrics.create ~graph in
  let (Instance { inst; tally; _ } as i) =
    instance ?tree ~graph ~requests protocol
  in
  let span_tap, spans =
    Span.tap ~injects:inst.spec.injects ~op_of_msg:inst.op_of_msg
      ~op_of_completion:inst.spec.op_of_completion ()
  in
  let faults = Option.map Faults.start plan in
  let res =
    Oneshot.run ?faults ~tap:(Engine.both (Metrics.tap metrics) span_tap) inst
  in
  let t = tally res in
  {
    o_protocol = label protocol;
    o_kind = kind_of i;
    completed = t.t_completed;
    o_valid = t.t_valid;
    o_rounds = t.t_rounds;
    o_messages = t.t_messages;
    o_total_delay = t.t_total_delay;
    o_expansion = t.t_expansion;
    metrics;
    spans = spans ();
    o_injected = Option.map Faults.stats faults;
  }

let best_counting ?pool ~graph ~requests () =
  (* The balancer protocols get their fan-in from the offered
     concurrency (the adaptive width), not from whatever degree the
     spanning tree happened to have — a star no longer forces an
     (n-1)-wide expanded step on a two-request run. *)
  let adaptive =
    Counting.Funnel.adaptive_width ~n:(Graph.n graph)
      ~concurrency:(List.length requests)
  in
  let eval protocol =
    let width =
      match protocol with
      | `Diffracting | `Funnel -> Some adaptive
      | `Central | `Combining | `Network | `Sweep -> None
    in
    counting ?width ~graph ~protocol ~requests ()
  in
  let protocols =
    [ `Central; `Combining; `Diffracting; `Funnel; `Network; `Sweep ]
  in
  (* pool_map preserves input order, so the sort below sees candidates
     in the same order as the sequential path — ties break identically. *)
  let candidates =
    match pool with
    | None -> List.map eval protocols
    | Some p -> Parallel.pool_map p ~chunk:1 eval protocols
  in
  match
    List.sort
      (fun (a : summary) (b : summary) ->
        compare a.normalized_delay b.normalized_delay)
      (List.filter (fun (s : summary) -> s.valid) candidates)
  with
  | best :: _ -> best
  | [] -> invalid_arg "Run.best_counting: every counting protocol failed"
