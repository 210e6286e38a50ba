(* Centralised queue baseline. See central_queue.mli. *)

module Engine = Countq_simnet.Engine
module Route = Countq_simnet.Route
module Graph = Countq_topology.Graph
module Types = Countq_arrow.Types

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

let one_shot ?(config = Engine.default_config) ?(root = 0) ?route ~graph
    ~requests () =
  {
    Countq_simnet.Oneshot.graph;
    config;
    protocol = prepare ~root ~route ~graph ~requests;
    spec = Countq_arrow.Order.spec ~requests;
    (* A Reply belongs to the op of its destination. *)
    op_of_msg =
      (function Request { origin } -> Some origin | Reply { dest; _ } -> Some dest);
  }

let run ?config ?root ?route ~graph ~requests () =
  Countq_arrow.Protocol.of_engine
    (Countq_simnet.Oneshot.run (one_shot ?config ?root ?route ~graph ~requests ()))
