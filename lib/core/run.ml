(* Uniform protocol drivers. See run.mli. *)

module Graph = Countq_topology.Graph
module Spanning = Countq_topology.Spanning
module Counting = Countq_counting
module Arrow = Countq_arrow
module Queuing = Countq_queuing

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
        Queuing.Token_ring.run ~tree ~requests ()
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

let run_faulty ?pool ?tree ?(retry = false) ?ack_timeout ?max_retries
    ?progress_budget ~graph ~protocol ~plan ~requests () =
  let expected = List.length requests in
  let spanning () =
    match tree with Some t -> t | None -> Spanning.best_for_arrow graph
  in
  (* Fault-free baseline under the same configuration, so the extra_*
     columns isolate what the faults (and the retry layer) cost. *)
  let completed, valid, rounds, messages, injected, monitors, retry_stats,
      base_rounds, base_messages =
    match protocol with
    | `Arrow ->
        let tree = spanning () in
        let r, base =
          pair pool
            (fun () ->
              Arrow.Protocol.run_one_shot_faulty ~retry ?ack_timeout
                ?max_retries ?progress_budget ~plan ~tree ~requests ())
            (fun () -> Arrow.Protocol.run_one_shot ~tree ~requests ())
        in
        ( List.length r.result.outcomes,
          Result.is_ok r.result.order,
          r.result.rounds,
          r.result.messages,
          r.injected,
          r.monitors,
          r.retry,
          base.rounds,
          base.messages )
    | `Central_count ->
        let r, base =
          pair pool
            (fun () ->
              Counting.Central.run_faulty ~retry ?ack_timeout ?max_retries
                ?progress_budget ~plan ~graph ~requests ())
            (fun () -> Counting.Central.run ~graph ~requests ())
        in
        ( List.length r.result.outcomes,
          Result.is_ok r.result.valid,
          r.result.rounds,
          r.result.messages,
          r.injected,
          r.monitors,
          r.retry,
          base.rounds,
          base.messages )
    | `Central_queue ->
        let r, base =
          pair pool
            (fun () ->
              Queuing.Central_queue.run_faulty ~retry ?ack_timeout
                ?max_retries ?progress_budget ~plan ~graph ~requests ())
            (fun () -> Queuing.Central_queue.run ~graph ~requests ())
        in
        ( List.length r.result.outcomes,
          Result.is_ok r.result.order,
          r.result.rounds,
          r.result.messages,
          r.injected,
          r.monitors,
          r.retry,
          base.rounds,
          base.messages )
  in
  {
    protocol = faulty_protocol_name protocol;
    plan = Faults.label plan;
    retry;
    expected;
    completed;
    valid;
    rounds;
    extra_rounds = rounds - base_rounds;
    messages;
    extra_messages = messages - base_messages;
    injected;
    monitors;
    retry_stats;
    safe = Monitor.safety_ok monitors;
    live = Monitor.liveness_ok monitors;
  }

module Dynamic = Countq_simnet.Dynamic
module Engine = Countq_simnet.Engine
module Reliable = Countq_simnet.Reliable
module Types = Countq_arrow.Types

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
  route : Queuing.Dynamic_queue.route_stats option;
  c_retry : Countq_simnet.Reliable.stats option;
}

(* One arm of the churn comparison: run [protocol] under [sched] and
   report what completed. The static arrow and the retrying central
   counter have no dynamic-aware runner of their own — they are run
   here directly on the engine, which is the point: the arrow is the
   victim (a fixed spanning structure under a moving graph) and the
   central counter shows what hop-by-hop retransmission alone buys. *)
let churn_arm ?tree ?ack_timeout ?max_retries ?progress_budget ~graph ~protocol
    ~sched ~requests () =
  let expected = List.length requests in
  let spanning () =
    match tree with Some t -> t | None -> Spanning.best_for_arrow graph
  in
  let chain_monitors () =
    [
      Monitor.chain_consistent
        ~op:(fun ((op : Types.op), _) -> (op.origin, op.seq))
        ~pred:(fun ((_ : Types.op), pred) ->
          match pred with
          | Types.Init -> None
          | Types.Op p -> Some (p.origin, p.seq));
      Monitor.completes ~expected;
    ]
  in
  let outcomes_of completions =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, pred = c.value in
        { Types.op; pred; found_at = c.node; round = c.round })
      completions
  in
  match protocol with
  | `Dynamic_queue ->
      let r =
        Queuing.Dynamic_queue.run ?progress_budget ~sched ~graph ~requests ()
      in
      ( List.length r.result.outcomes,
        Result.is_ok r.result.order,
        r.result.rounds,
        r.result.messages,
        r.topo,
        r.monitors,
        None,
        None )
  | `Arrow_routed ->
      let r, route =
        Queuing.Dynamic_queue.run_arrow ?ack_timeout ?max_retries
          ?progress_budget ~sched ~graph ~tree:(spanning ()) ~requests ()
      in
      ( List.length r.result.outcomes,
        Result.is_ok r.result.order,
        r.result.rounds,
        r.result.messages,
        r.topo,
        r.monitors,
        Some route,
        None )
  | `Arrow_static ->
      (* The unmodified arrow on its spanning tree, with the schedule
         tearing at the tree links and nothing repairing them. *)
      let tree = spanning () in
      let protocol = Arrow.Protocol.one_shot_protocol ~tree ~requests () in
      let dynamic = Dynamic.start sched in
      let last_holder = ref (Countq_topology.Tree.root tree) in
      let diagnose ~round =
        Some (Dynamic.describe_cut sched ~round ~from:!last_holder)
      in
      let monitors =
        chain_monitors ()
        @ [ Monitor.progress ?budget:progress_budget ~diagnose () ]
      in
      let mon_obs = Monitor.observe monitors in
      let observer =
        {
          mon_obs with
          Engine.on_complete =
            (fun ~round ~node ~value ->
              last_holder := (fst value).Types.origin;
              mon_obs.on_complete ~round ~node ~value);
        }
      in
      let res =
        Engine.run ~dynamic ~observer ~graph:(Countq_topology.Tree.to_graph tree)
          ~config:
            (Engine.config_with_capacity
               (max 1 (Countq_topology.Tree.max_degree tree)))
          ~protocol ()
      in
      let outcomes = outcomes_of res.completions in
      ( List.length outcomes,
        Result.is_ok (Arrow.Order.chain outcomes),
        res.rounds,
        res.messages,
        Dynamic.stats dynamic,
        Monitor.finalise monitors,
        None,
        None )
  | `Central_count ->
      (* The centralised counter with hop-by-hop retransmission: every
         link heals itself, but the root stays a fixed rendezvous the
         schedule can wall off. *)
      let at = Option.value ack_timeout ~default:8 in
      let mr = Option.value max_retries ~default:5 in
      let budget =
        match progress_budget with
        | Some b -> b
        | None -> max 512 (4 * at * (1 lsl mr))
      in
      let inner = Counting.Central.one_shot_protocol ~graph ~requests () in
      let protocol, h = Reliable.wrap ~ack_timeout:at ~max_retries:mr inner in
      let dynamic = Dynamic.start sched in
      let diagnose ~round = Some (Dynamic.describe_cut sched ~round ~from:0) in
      let monitors =
        [
          Monitor.distinct_ranks ~rank:snd;
          Monitor.unique_completion ~node_of:(fun ~node:_ (who, _) -> who);
          Monitor.completes ~expected;
          Monitor.progress ~budget ~diagnose ();
        ]
      in
      let res =
        Engine.run ~dynamic ~observer:(Monitor.observe monitors) ~graph
          ~config:Engine.default_config ~protocol ()
      in
      let rr = Counting.Counts.of_engine ~requests res in
      ( List.length rr.outcomes,
        Result.is_ok rr.valid,
        rr.rounds,
        rr.messages,
        Dynamic.stats dynamic,
        Monitor.finalise monitors,
        None,
        Some (Reliable.stats h) )

let run_churn ?pool ?tree ?ack_timeout ?max_retries ?progress_budget ~graph
    ~protocol ~sched ~requests () =
  let arm s () =
    churn_arm ?tree ?ack_timeout ?max_retries ?progress_budget ~graph ~protocol
      ~sched:s ~requests ()
  in
  (* The identity-schedule baseline isolates what the adversary (and
     the repair machinery's reaction to it) costs on this instance. *)
  let ( completed,
        valid,
        rounds,
        messages,
        topo,
        monitors,
        route,
        retry ),
      (_, _, base_rounds, base_messages, _, _, _, _) =
    pair pool (arm sched) (arm (Dynamic.identity graph))
  in
  {
    c_protocol = churn_protocol_name protocol;
    schedule = Dynamic.label sched;
    c_expected = List.length requests;
    c_completed = completed;
    c_valid = valid;
    c_rounds = rounds;
    c_extra_rounds = rounds - base_rounds;
    c_messages = messages;
    c_extra_messages = messages - base_messages;
    topo;
    c_monitors = monitors;
    c_safe = Monitor.safety_ok monitors;
    c_live = Monitor.liveness_ok monitors;
    c_stalled = Monitor.stalled monitors;
    route;
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
  let o_kind, completed, o_valid, o_rounds, o_messages, o_total_delay,
      o_expansion, spans, o_injected =
    match protocol with
    | (`Arrow | `Arrow_notify) as p ->
        let r, spans, injected =
          Arrow.Protocol.run_one_shot_observed ?plan ~metrics
            ~notify:(p = `Arrow_notify) ~tree:(spanning ()) ~requests ()
        in
        ( Queuing, List.length r.outcomes, Result.is_ok r.order, r.rounds,
          r.messages, r.total_delay, r.expansion, spans, injected )
    | `Central_queue ->
        let r, spans, injected =
          Queuing.Central_queue.run_observed ?plan ~metrics ~graph ~requests ()
        in
        ( Queuing, List.length r.outcomes, Result.is_ok r.order, r.rounds,
          r.messages, r.total_delay, r.expansion, spans, injected )
    | `Central_count ->
        let r, spans, injected =
          Counting.Central.run_observed ?plan ~metrics ~graph ~requests ()
        in
        ( Counting, List.length r.outcomes, Result.is_ok r.valid, r.rounds,
          r.messages, r.total_delay, r.expansion, spans, injected )
    | `Sweep ->
        let r, spans, injected =
          Counting.Sweep.run_observed ?plan ~metrics ~tree:(spanning ())
            ~requests ()
        in
        ( Counting, List.length r.outcomes, Result.is_ok r.valid, r.rounds,
          r.messages, r.total_delay, r.expansion, spans, injected )
  in
  {
    o_protocol = observed_protocol_name protocol;
    o_kind;
    completed;
    o_valid;
    o_rounds;
    o_messages;
    o_total_delay;
    o_expansion;
    metrics;
    spans;
    o_injected;
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

let observe_many ?pool ?tree ?plan ~graph ~protocols ~requests () =
  let eval protocol = observe ?tree ?plan ~graph ~protocol ~requests () in
  match pool with
  | None -> List.map eval protocols
  | Some p -> Parallel.pool_map p ~chunk:1 eval protocols
