(* Centralised queue baseline. See central_queue.mli. *)

module Engine = Countq_simnet.Engine
module Faults = Countq_simnet.Faults
module Monitor = Countq_simnet.Monitor
module Reliable = Countq_simnet.Reliable
module Route = Countq_simnet.Route
module Graph = Countq_topology.Graph
module Types = Countq_arrow.Types
module Order = Countq_arrow.Order

type msg =
  | Request of { origin : int }
  | Reply of { dest : int; pred : Types.pred }

type state = { last : Types.pred } (* meaningful at the root only *)

let prepare ~root ~route ~graph ~requests =
  let n = Graph.n graph in
  if root < 0 || root >= n then invalid_arg "Central_queue.run: root out of range";
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Central_queue.run: request out of range";
      if requesting.(v) then invalid_arg "Central_queue.run: duplicate request";
      requesting.(v) <- true)
    requests;
  let route = match route with Some r -> r | None -> Route.auto graph in
  let enqueue node s origin =
    let op = { Types.origin; seq = 0 } in
    let pred = s.last in
    let s = { last = Types.Op op } in
    if origin = node then (s, [ Engine.Complete (op, pred) ])
    else
      (s, [ Engine.Send (Route.next_hop route node origin, Reply { dest = origin; pred }) ])
  in
  {
    Engine.name = "central-queue";
    initial_state = (fun _ -> { last = Types.Init });
    on_start =
      (fun ~node s ->
        if not requesting.(node) then (s, [])
        else if node = root then enqueue node s node
        else
          (s, [ Engine.Send (Route.next_hop route node root, Request { origin = node }) ]));
    on_receive =
      (fun ~round:_ ~node ~src:_ msg s ->
        match msg with
        | Request { origin } ->
            if node = root then enqueue node s origin
            else
              (s, [ Engine.Send (Route.next_hop route node root, msg) ])
        | Reply { dest; pred } ->
            if node = dest then
              (s, [ Engine.Complete ({ Types.origin = dest; seq = 0 }, pred) ])
            else
              (s, [ Engine.Send (Route.next_hop route node dest, msg) ]));
    on_wake = Engine.no_wake;
  }

type checker_state = state
type checker_msg = msg

let one_shot_protocol ?(root = 0) ?route ~graph ~requests () =
  prepare ~root ~route ~graph ~requests

let finish (res : (Types.op * Types.pred) Engine.result) =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, pred = c.value in
        { Types.op; pred; found_at = c.node; round = c.round })
      res.completions
  in
  {
    Countq_arrow.Protocol.outcomes;
    order = Order.chain outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = Order.total_delay outcomes;
    max_delay = Order.max_delay outcomes;
    expansion = res.expansion;
  }

let run ?config ?(root = 0) ?route ~graph ~requests () =
  let protocol = prepare ~root ~route ~graph ~requests in
  let config = Option.value config ~default:Engine.default_config in
  finish (Engine.run ~graph ~config ~protocol ())

let run_observed ?config ?(root = 0) ?route ?plan ~metrics ~graph ~requests ()
    =
  let protocol = prepare ~root ~route ~graph ~requests in
  (* One-shot: origin node ids the op; a Reply belongs to the op of its
     destination. *)
  let protocol, spans =
    Countq_simnet.Span.instrument
      ~injects:(List.map (fun v -> (v, 0)) requests)
      ~op_of_msg:(function
        | Request { origin } -> Some origin
        | Reply { dest; _ } -> Some dest)
      ~op_of_completion:(fun ((op : Types.op), _) -> Some op.origin)
      protocol
  in
  let config = Option.value config ~default:Engine.default_config in
  let faults = Option.map Faults.start plan in
  let result = finish (Engine.run ?faults ~metrics ~graph ~config ~protocol ()) in
  (result, spans (), Option.map Faults.stats faults)

type fault_report = {
  result : Countq_arrow.Protocol.run_result;
  injected : Faults.stats;
  monitors : Monitor.report;
  retry : Reliable.stats option;
}

(* Same invariants as the arrow's one-shot monitors: the (op, pred)
   completions must form one valid chain, everyone must finish, and
   silence past the budget is a stall. *)
let queue_monitors ~budget ~expected =
  [
    Monitor.chain_consistent
      ~op:(fun ((op : Types.op), _) -> (op.origin, op.seq))
      ~pred:(fun (_, p) ->
        match p with Types.Init -> None | Types.Op q -> Some (q.origin, q.seq));
    Monitor.completes ~expected;
    Monitor.progress ~budget ();
  ]

let run_faulty ?config ?(root = 0) ?route ?(retry = false) ?(ack_timeout = 8)
    ?(max_retries = 5) ?progress_budget ~plan ~graph ~requests () =
  let protocol = prepare ~root ~route ~graph ~requests in
  let config = Option.value config ~default:Engine.default_config in
  let budget =
    match progress_budget with
    | Some b -> b
    | None -> max 512 (4 * ack_timeout * (1 lsl max_retries))
  in
  let monitors = queue_monitors ~budget ~expected:(List.length requests) in
  let observer = Monitor.observe monitors in
  let fr = Faults.start plan in
  let res, retry_stats =
    if retry then begin
      let protocol, h = Reliable.wrap ~ack_timeout ~max_retries protocol in
      let res = Engine.run ~faults:fr ~observer ~graph ~config ~protocol () in
      (res, Some (Reliable.stats h))
    end
    else (Engine.run ~faults:fr ~observer ~graph ~config ~protocol (), None)
  in
  {
    result = finish res;
    injected = Faults.stats fr;
    monitors = Monitor.finalise monitors;
    retry = retry_stats;
  }
