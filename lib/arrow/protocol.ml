(* The arrow protocol on the synchronous simulator. See protocol.mli. *)

module Engine = Countq_simnet.Engine
module Async = Countq_simnet.Async
module Faults = Countq_simnet.Faults
module Monitor = Countq_simnet.Monitor
module Reliable = Countq_simnet.Reliable
module Tree = Countq_topology.Tree

type msg =
  | Queue_msg of Types.op
  | Notify of { dest : int; op : Types.op; pred : Types.pred }

(* Per-node protocol state. [link] is the arrow; [id] the identity of
   the last operation issued locally (read when a queue message
   terminates here). [schedule] lists this node's future issue rounds
   (one-shot: just [0] or empty); [seq_next] numbers local issues. *)
type state = {
  link : int;
  id : Types.pred;
  schedule : int list;
  seq_next : int;
}

type run_result = {
  outcomes : Types.outcome list;
  order : (Types.op list, Order.error) result;
  rounds : int;
  messages : int;
  total_delay : int;
  max_delay : int;
  expansion : int;
}

(* Found the predecessor of [op] at node [v]: either complete on the
   spot (the Herlihy-Tirthapura-Wattenhofer delay semantics) or, in
   notify mode, route the answer back to the operation's origin along
   the tree so the origin itself learns its predecessor. *)
let found ~tree ~notify v (op : Types.op) pred =
  if (not notify) || op.origin = v then [ Engine.Complete (op, pred) ]
  else
    [ Engine.Send (Tree.next_hop tree v op.origin, Notify { dest = op.origin; op; pred }) ]

(* Issue an operation at node [v] whose current state is [s]: record the
   new id, and either complete locally (v holds the tail) or launch a
   queue() message at the old arrow and flip the arrow to self. *)
let issue ~tree ~notify v s =
  let op = { Types.origin = v; seq = s.seq_next } in
  let s' = { s with id = Types.Op op; seq_next = s.seq_next + 1 } in
  if s.link = v then ({ s' with link = v }, found ~tree ~notify v op s.id)
  else ({ s' with link = v }, [ Engine.Send (s.link, Queue_msg op) ])

let make_protocol ~tree ~tail ~issue_rounds ~notify =
  (* Issue every operation due at or before [round] — a node may
     schedule several for the same round — then wake for the next. *)
  let issue_due ~round node s =
    let rec drain s acc =
      match s.schedule with
      | r :: rest when r <= round ->
          let s, actions = issue ~tree ~notify node { s with schedule = rest } in
          drain s (acc @ actions)
      | _ -> (s, acc @ Engine.wake_next s.schedule)
    in
    drain s []
  in
  let initial_state v =
    {
      link = (if v = tail then v else Tree.next_hop tree v tail);
      id = Types.Init;
      schedule = issue_rounds v;
      seq_next = 0;
    }
  in
  let on_start ~node s = issue_due ~round:0 node s in
  let on_receive ~round:_ ~node ~src msg s =
    match msg with
    | Queue_msg op ->
        let old = s.link in
        let s = { s with link = src } in
        if old = node then (s, found ~tree ~notify node op s.id)
        else (s, [ Engine.Send (old, Queue_msg op) ])
    | Notify { dest; op; pred } ->
        if dest = node then (s, [ Engine.Complete (op, pred) ])
        else
          (s, [ Engine.Send (Tree.next_hop tree node dest, Notify { dest; op; pred }) ])
  in
  let on_wake ~round ~node s = issue_due ~round node s in
  { Engine.name = "arrow"; initial_state; on_start; on_receive; on_wake }

let check_tail tree tail =
  if tail < 0 || tail >= Tree.n tree then
    invalid_arg "Arrow: tail out of range"

let finish ~issue_time (res : (Types.op * Types.pred) Engine.result) =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, pred = c.value in
        let delay = c.round - issue_time op in
        { Types.op; pred; found_at = c.node; round = delay })
      res.completions
  in
  {
    outcomes;
    order = Order.chain outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = Order.total_delay outcomes;
    max_delay = Order.max_delay outcomes;
    expansion = res.expansion;
  }

let one_shot_setup ?config ?tail ~notify ~tree ~requests name =
  let n = Tree.n tree in
  let tail = Option.value tail ~default:(Tree.root tree) in
  check_tail tree tail;
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg (name ^ ": request out of range");
      if requesting.(v) then invalid_arg (name ^ ": duplicate request node");
      requesting.(v) <- true)
    requests;
  let config =
    match config with
    | Some c -> c
    | None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree))
  in
  let protocol =
    make_protocol ~tree ~tail
      ~issue_rounds:(fun v -> if requesting.(v) then [ 0 ] else [])
      ~notify
  in
  (config, protocol)

type checker_state = state
type checker_msg = msg

let one_shot_protocol ?tail ?(notify = false) ~tree ~requests () =
  let _, protocol =
    one_shot_setup ?tail ~notify ~tree ~requests "Arrow.one_shot_protocol"
  in
  protocol

let run_one_shot ?config ?tail ?(notify = false) ~tree ~requests () =
  let config, protocol =
    one_shot_setup ?config ?tail ~notify ~tree ~requests "Arrow.run_one_shot"
  in
  let graph = Tree.to_graph tree in
  finish ~issue_time:(fun _ -> 0) (Engine.run ~graph ~config ~protocol ())

let run_one_shot_traced ?config ?tail ?(notify = false) ~tree ~requests () =
  let config, protocol =
    one_shot_setup ?config ?tail ~notify ~tree ~requests
      "Arrow.run_one_shot_traced"
  in
  let protocol, events = Countq_simnet.Trace.instrument protocol in
  let graph = Tree.to_graph tree in
  let result =
    finish ~issue_time:(fun _ -> 0) (Engine.run ~graph ~config ~protocol ())
  in
  (result, events ())

let run_one_shot_observed ?config ?tail ?(notify = false) ?plan ~metrics ~tree
    ~requests () =
  let config, protocol =
    one_shot_setup ?config ?tail ~notify ~tree ~requests
      "Arrow.run_one_shot_observed"
  in
  (* One-shot ops are unique per origin, so the origin node ids the op. *)
  let protocol, spans =
    Countq_simnet.Span.instrument
      ~injects:(List.map (fun v -> (v, 0)) requests)
      ~op_of_msg:(function
        | Queue_msg (op : Types.op) | Notify { op; _ } -> Some op.origin)
      ~op_of_completion:(fun ((op : Types.op), _) -> Some op.origin)
      protocol
  in
  let graph = Tree.to_graph tree in
  let faults = Option.map Faults.start plan in
  let result =
    finish ~issue_time:(fun _ -> 0)
      (Engine.run ?faults ~metrics ~graph ~config ~protocol ())
  in
  (result, spans (), Option.map Faults.stats faults)

type fault_report = {
  result : run_result;
  injected : Faults.stats;
  monitors : Monitor.report;
  retry : Reliable.stats option;
}

(* Safety: the completions (op, pred) must form an injective
   predecessor mapping with a single head — the online fragment of
   Order.chain. Liveness: every request completes, and silence longer
   than [budget] rounds is a stall. *)
let one_shot_monitors ~budget ~expected =
  [
    Monitor.chain_consistent
      ~op:(fun ((op : Types.op), _) -> (op.origin, op.seq))
      ~pred:(fun (_, p) ->
        match p with Types.Init -> None | Types.Op q -> Some (q.origin, q.seq));
    Monitor.completes ~expected;
    Monitor.progress ~budget ();
  ]

let default_progress_budget ~ack_timeout ~max_retries =
  (* Longer than the worst legitimate silence: a full exponential
     backoff ladder, with slack for round-trips. *)
  max 512 (4 * ack_timeout * (1 lsl max_retries))

let run_one_shot_faulty ?config ?tail ?(notify = false) ?(retry = false)
    ?(ack_timeout = 8) ?(max_retries = 5) ?progress_budget ~plan ~tree
    ~requests () =
  let config, protocol =
    one_shot_setup ?config ?tail ~notify ~tree ~requests
      "Arrow.run_one_shot_faulty"
  in
  let budget =
    match progress_budget with
    | Some b -> b
    | None -> default_progress_budget ~ack_timeout ~max_retries
  in
  let monitors =
    one_shot_monitors ~budget ~expected:(List.length requests)
  in
  let observer = Monitor.observe monitors in
  let fr = Faults.start plan in
  let graph = Tree.to_graph tree in
  let res, retry_stats =
    if retry then begin
      let protocol, h = Reliable.wrap ~ack_timeout ~max_retries protocol in
      let res =
        Engine.run ~faults:fr ~observer ~graph ~config ~protocol ()
      in
      (res, Some (Reliable.stats h))
    end
    else (Engine.run ~faults:fr ~observer ~graph ~config ~protocol (), None)
  in
  {
    result = finish ~issue_time:(fun _ -> 0) res;
    injected = Faults.stats fr;
    monitors = Monitor.finalise monitors;
    retry = retry_stats;
  }

let run_one_shot_async ?(delay = Async.Constant 1) ?tail ?(notify = false)
    ~tree ~requests () =
  let n = Tree.n tree in
  let tail = Option.value tail ~default:(Tree.root tree) in
  check_tail tree tail;
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Arrow.run_one_shot_async: request out of range";
      if requesting.(v) then
        invalid_arg "Arrow.run_one_shot_async: duplicate request node";
      requesting.(v) <- true)
    requests;
  let protocol =
    make_protocol ~tree ~tail
      ~issue_rounds:(fun v -> if requesting.(v) then [ 0 ] else [])
      ~notify
  in
  let graph = Tree.to_graph tree in
  let res = Async.run ~graph ~delay ~protocol () in
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, pred = c.value in
        { Types.op; pred; found_at = c.node; round = c.round })
      res.completions
  in
  {
    outcomes;
    order = Order.chain outcomes;
    rounds = res.finish_time;
    messages = res.messages;
    total_delay = Order.total_delay outcomes;
    max_delay = Order.max_delay outcomes;
    expansion = 1;
  }

let run_long_lived ?config ?tail ?(notify = false) ~tree ~arrivals () =
  let n = Tree.n tree in
  let tail = Option.value tail ~default:(Tree.root tree) in
  check_tail tree tail;
  List.iter
    (fun (v, r) ->
      if v < 0 || v >= n then
        invalid_arg "Arrow.run_long_lived: arrival node out of range";
      if r < 0 then invalid_arg "Arrow.run_long_lived: negative arrival round")
    arrivals;
  let per_node = Array.make n [] in
  List.iter (fun (v, r) -> per_node.(v) <- r :: per_node.(v)) arrivals;
  Array.iteri
    (fun v rounds -> per_node.(v) <- List.sort compare rounds)
    per_node;
  (* Issue time of op {origin; seq} = the seq-th scheduled round. *)
  let issue_time (op : Types.op) = List.nth per_node.(op.origin) op.seq in
  let config =
    match config with
    | Some c -> c
    | None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree))
  in
  let protocol =
    make_protocol ~tree ~tail
      ~issue_rounds:(fun v -> per_node.(v))
      ~notify
  in
  let graph = Tree.to_graph tree in
  finish ~issue_time (Engine.run ~graph ~config ~protocol ())
