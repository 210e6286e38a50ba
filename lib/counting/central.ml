(* Centralised counter baseline. See central.mli. *)

module Engine = Countq_simnet.Engine
module Route = Countq_simnet.Route
module Graph = Countq_topology.Graph

(* An op is named by [Counts.op]; a reply goes back to its origin. *)
type msg = Request of { op : int } | Reply of { op : int; count : int }

type state = {
  counter : int;  (** the running sum; meaningful at the root only. *)
  schedule : int list;  (** this node's remaining issue rounds, sorted. *)
  seq_next : int;  (** the seq of this node's next issue. *)
}

let machine ~root ~route ~graph ~issue_rounds ~increment =
  let n = Graph.n graph in
  if root < 0 || root >= n then invalid_arg "Central: root out of range";
  (* The root adds the op's increment and hands out the new sum (or
     completes locally when the op is its own). *)
  let assign node s op =
    let count = s.counter + increment op in
    let s = { s with counter = count } in
    let origin = Counts.origin ~n op in
    if origin = node then (s, [ Engine.Complete (op, count) ])
    else (s, [ Engine.Send (Route.next_hop route node origin, Reply { op; count }) ])
  in
  let issue node s =
    let op = Counts.op ~n ~node ~seq:s.seq_next in
    let s = { s with seq_next = s.seq_next + 1 } in
    if node = root then assign node s op
    else (s, [ Engine.Send (Route.next_hop route node root, Request { op }) ])
  in
  (* Issue every operation due at or before [round], then wake for the
     next. *)
  let rec issue_due round node s acc =
    match s.schedule with
    | r :: rest when r <= round ->
        let s, actions = issue node { s with schedule = rest } in
        issue_due round node s (acc @ actions)
    | _ -> (s, acc @ Engine.wake_next s.schedule)
  in
  {
    Engine.name = "central-counter";
    initial_state = (fun v -> { counter = 0; schedule = issue_rounds v; seq_next = 0 });
    on_start = (fun ~node s -> issue_due 0 node s []);
    on_receive =
      (fun ~round:_ ~node ~src:_ msg s ->
        match msg with
        | Request { op } ->
            if node = root then assign node s op
            else (s, [ Engine.Send (Route.next_hop route node root, msg) ])
        | Reply { op; count } ->
            let origin = Counts.origin ~n op in
            if node = origin then (s, [ Engine.Complete (op, count) ])
            else (s, [ Engine.Send (Route.next_hop route node origin, msg) ]));
    on_wake = (fun ~round ~node s -> issue_due round node s []);
  }

let auto_route graph = function Some r -> r | None -> Route.auto graph

(* The one-shot machine: each requester issues once, at round 0, and
   every increment is 1. *)
let prepare ~root ~route ~graph ~requests =
  let requesting = Engine.requesting ~name:"Central.one_shot" ~n:(Graph.n graph) requests in
  machine ~root ~route:(auto_route graph route) ~graph
    ~issue_rounds:(fun v -> if requesting.(v) then [ 0 ] else [])
    ~increment:(fun _ -> 1)

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
    spec = Counts.spec ~requests;
    (* A one-shot op is named by its origin. *)
    op_of_msg = (function Request { op } | Reply { op; _ } -> Some op);
  }

let run_long_lived ?(config = Engine.default_config) ?(root = 0) ?route ~graph
    ~arrivals () =
  let schedule =
    Engine.schedule ~name:"Central.run_long_lived" ~n:(Graph.n graph) arrivals
  in
  let protocol =
    machine ~root ~route:(auto_route graph route) ~graph
      ~issue_rounds:(fun v -> Array.to_list schedule.(v))
      ~increment:(fun _ -> 1)
  in
  Counts.of_long_lived ~schedule (Engine.run ~graph ~config ~protocol ())
