(* Uniform protocol drivers. See run.mli. *)

module Graph = Countq_topology.Graph
module Spanning = Countq_topology.Spanning
module Counting = Countq_counting
module Arrow = Countq_arrow
module Queuing = Countq_queuing
module Oneshot = Countq_simnet.Oneshot

type kind = Counting | Queuing

type counting_protocol =
  [ `Central | `Combining | `Diffracting | `Funnel | `Network | `Sweep ]
type queuing_protocol = [ `Arrow | `Arrow_notify | `Central | `Token_ring ]

let counting_protocol_name = function
  | `Central -> "count/central"
  | `Combining -> "count/combining"
  | `Diffracting -> "count/diffracting"
  | `Funnel -> "count/funnel"
  | `Network -> "count/network"
  | `Sweep -> "count/sweep"

let queuing_protocol_name = function
  | `Arrow -> "queue/arrow"
  | `Arrow_notify -> "queue/arrow+notify"
  | `Central -> "queue/central"
  | `Token_ring -> "queue/token-ring"

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

let counting ?tree ?width ~graph ~protocol ~requests () =
  let result =
    match protocol with
    | `Central -> Counting.Central.run ~graph ~requests ()
    | `Combining ->
        let tree =
          match tree with Some t -> t | None -> Spanning.bfs graph ~root:0
        in
        Counting.Combining.run ~tree ~requests ()
    | `Diffracting ->
        let tree =
          match tree with Some t -> t | None -> Spanning.bfs graph ~root:0
        in
        Counting.Diffracting.run ?width ~tree ~requests ()
    | `Funnel ->
        let tree =
          match tree with Some t -> t | None -> Spanning.bfs graph ~root:0
        in
        Counting.Funnel.run ?width ~tree ~requests ()
    | `Network -> Counting.Network.run ?width ~graph ~requests ()
    | `Sweep ->
        let tree =
          match tree with
          | Some t -> t
          | None -> Spanning.best_for_arrow graph
        in
        Counting.Sweep.run ~tree ~requests ()
  in
  {
    protocol = counting_protocol_name protocol;
    kind = Counting;
    n = Graph.n graph;
    k = List.length requests;
    total_delay = result.total_delay;
    normalized_delay = result.total_delay * result.expansion;
    max_delay = result.max_delay;
    rounds = result.rounds;
    messages = result.messages;
    expansion = result.expansion;
    valid = Result.is_ok result.valid;
  }

let queuing ?tree ~graph ~protocol ~requests () =
  let result =
    match protocol with
    | (`Arrow | `Arrow_notify) as p ->
        let tree =
          match tree with Some t -> t | None -> Spanning.best_for_arrow graph
        in
        Arrow.Protocol.run_one_shot ~tree ~notify:(p = `Arrow_notify) ~requests
          ()
    | `Central -> Queuing.Central_queue.run ~graph ~requests ()
    | `Token_ring ->
        let tree =
          match tree with Some t -> t | None -> Spanning.best_for_arrow graph
        in
        Arrow.Protocol.of_engine
          (Oneshot.run (Queuing.Token_ring.one_shot ~tree ~requests ()))
  in
  {
    protocol = queuing_protocol_name protocol;
    kind = Queuing;
    n = Graph.n graph;
    k = List.length requests;
    total_delay = result.total_delay;
    normalized_delay = result.total_delay * result.expansion;
    max_delay = result.max_delay;
    rounds = result.rounds;
    messages = result.messages;
    expansion = result.expansion;
    valid = Result.is_ok result.order;
  }

module Engine = Countq_simnet.Engine
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

type faulty_protocol = [ `Arrow | `Central_count | `Central_queue ]

let faulty_protocol_name = function
  | `Arrow -> "queue/arrow"
  | `Central_count -> "count/central"
  | `Central_queue -> "queue/central"

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

(* What the fault, churn and observe reports read off a run, from
   either family's result. *)
type tally = {
  t_completed : int;
  t_valid : bool;
  t_rounds : int;
  t_messages : int;
  t_total_delay : int;
  t_expansion : int;
}

let of_queue_result (r : Arrow.Protocol.run_result) =
  {
    t_completed = List.length r.outcomes;
    t_valid = Result.is_ok r.order;
    t_rounds = r.rounds;
    t_messages = r.messages;
    t_total_delay = r.total_delay;
    t_expansion = r.expansion;
  }

let of_count_result (r : Counting.Counts.run_result) =
  {
    t_completed = List.length r.outcomes;
    t_valid = Result.is_ok r.valid;
    t_rounds = r.rounds;
    t_messages = r.messages;
    t_total_delay = r.total_delay;
    t_expansion = r.expansion;
  }

let queue_tally res = of_queue_result (Arrow.Protocol.of_engine res)
let count_tally ~requests res = of_count_result (Counting.Counts.of_engine ~requests res)

let run_faulty ?pool ?tree ?(retry = false) ?ack_timeout ?max_retries
    ?progress_budget ~graph ~protocol ~plan ~requests () =
  (* The faulty run next to its fault-free baseline under the same
     configuration, so the extra_* columns isolate what the faults (and
     the retry layer) cost. *)
  let degrade tally inst =
    let (r : _ Oneshot.report), (base : _ Engine.result) =
      pair pool
        (fun () ->
          Oneshot.faulty ~retry ?ack_timeout ?max_retries ?progress_budget
            ~plan inst)
        (fun () -> Oneshot.run inst)
    in
    let t = tally r.result in
    {
      protocol = faulty_protocol_name protocol;
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
  in
  match protocol with
  | `Arrow ->
      let tree =
        match tree with Some t -> t | None -> Spanning.best_for_arrow graph
      in
      degrade queue_tally (Arrow.Protocol.one_shot ~tree ~requests ())
  | `Central_count ->
      degrade (count_tally ~requests) (Counting.Central.one_shot ~graph ~requests ())
  | `Central_queue ->
      degrade queue_tally (Queuing.Central_queue.one_shot ~graph ~requests ())

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
      (of_queue_result r.result, r.topo, r.monitors, None)
  | (`Arrow_static | `Arrow_routed) as arm ->
      let tree = spanning () in
      let tap, last_holder, _ =
        Queuing.Dynamic_queue.holder_tap ~from:(Countq_topology.Tree.root tree)
          ~expected:(List.length requests)
      in
      let diagnose ~round = describe_cut ~from:!last_holder ~round in
      let inst = Arrow.Protocol.one_shot ~tree ~requests () in
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
            ~next_hop:(Dynamic.next_hop sched) ?progress_budget ~dynamic ~tap
            ~diagnose ~plan:Faults.none
            {
              inst with
              graph;
              config =
                Engine.config_with_capacity (max 1 (Graph.max_degree graph));
            }
      in
      (queue_tally r.result, Dynamic.stats dynamic, r.monitors, r.retry)
  | `Central_count ->
      (* Every link heals itself, but the root stays a fixed rendezvous
         the schedule can wall off. *)
      let r =
        Oneshot.faulty ~retry:true ?ack_timeout ?max_retries ?progress_budget
          ~dynamic ~diagnose:(describe_cut ~from:0) ~plan:Faults.none
          (Counting.Central.one_shot ~graph ~requests ())
      in
      (count_tally ~requests r.result, Dynamic.stats dynamic, r.monitors, r.retry)

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

type observed_protocol =
  [ `Arrow | `Arrow_notify | `Central_count | `Central_queue | `Sweep ]

let observed_protocol_name = function
  | `Arrow -> "queue/arrow"
  | `Arrow_notify -> "queue/arrow+notify"
  | `Central_count -> "count/central"
  | `Central_queue -> "queue/central"
  | `Sweep -> "count/sweep"

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
  let spanning () =
    match tree with Some t -> t | None -> Spanning.best_for_arrow graph
  in
  let observed o_kind tally inst =
    let res, spans, o_injected = Oneshot.observed ?plan ~metrics inst in
    let t = tally res in
    {
      o_protocol = observed_protocol_name protocol;
      o_kind;
      completed = t.t_completed;
      o_valid = t.t_valid;
      o_rounds = t.t_rounds;
      o_messages = t.t_messages;
      o_total_delay = t.t_total_delay;
      o_expansion = t.t_expansion;
      metrics;
      spans;
      o_injected;
    }
  in
  match protocol with
  | (`Arrow | `Arrow_notify) as p ->
      observed Queuing queue_tally
        (Arrow.Protocol.one_shot ~notify:(p = `Arrow_notify) ~tree:(spanning ())
           ~requests ())
  | `Central_queue ->
      observed Queuing queue_tally
        (Queuing.Central_queue.one_shot ~graph ~requests ())
  | `Central_count ->
      observed Counting (count_tally ~requests)
        (Counting.Central.one_shot ~graph ~requests ())
  | `Sweep ->
      observed Counting (count_tally ~requests)
        (Counting.Sweep.one_shot ~tree:(spanning ()) ~requests ())

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

let observe_many ?pool ?tree ?plan ~graph ~protocols ~requests () =
  let eval protocol = observe ?tree ?plan ~graph ~protocol ~requests () in
  match pool with
  | None -> List.map eval protocols
  | Some p -> Parallel.pool_map p ~chunk:1 eval protocols
