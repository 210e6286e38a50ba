(* The arrow protocol on the synchronous simulator. See protocol.mli. *)

module Engine = Countq_simnet.Engine
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

let summarise outcomes (res : _ Engine.result) =
  {
    outcomes;
    order = Order.chain outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = Order.total_delay outcomes;
    max_delay = Order.max_delay outcomes;
    expansion = res.expansion;
  }

let of_engine (res : (Types.op * Types.pred) Engine.result) =
  summarise (Order.of_completions res.completions) res

let of_long_lived ~schedule (res : (Types.op * Types.pred) Engine.result) =
  summarise
    (List.map
       (fun (o : Types.outcome) ->
         { o with round = o.round - schedule.(o.op.origin).(o.op.seq) })
       (Order.of_completions res.completions))
    res

(* The machine over [issue_rounds]. *)
let setup ?tail ~notify ~tree issue_rounds =
  let tail = Option.value tail ~default:(Tree.root tree) in
  check_tail tree tail;
  make_protocol ~tree ~tail ~issue_rounds ~notify

(* [protocol] as an instance over [spec], with the expanded step of
   Section 4 unless [config] says otherwise; spans name op [seq] of
   [origin] as [seq * n + origin]. *)
let instance ?config ~tree ~spec protocol =
  let n = Tree.n tree in
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config =
      (match config with
      | Some c -> c
      | None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree)));
    protocol;
    spec;
    op_of_msg =
      (function
      | Queue_msg (op : Types.op) | Notify { op; _ } -> Some ((op.seq * n) + op.origin));
  }

let one_shot_setup ?tail ~notify ~tree ~requests name =
  let requesting = Engine.requesting ~name ~n:(Tree.n tree) requests in
  setup ?tail ~notify ~tree (fun v -> if requesting.(v) then [ 0 ] else [])

type checker_state = state
type checker_msg = msg

let one_shot_protocol ?tail ?(notify = false) ~tree ~requests () =
  one_shot_setup ?tail ~notify ~tree ~requests "Arrow.one_shot_protocol"

let one_shot ?config ?tail ?(notify = false) ~tree ~requests () =
  instance ?config ~tree ~spec:(Order.spec ~requests)
    (one_shot_setup ?tail ~notify ~tree ~requests "Arrow.one_shot")

let long_lived ?config ?tail ?(notify = false) ~tree ~schedule () =
  if Array.length schedule <> Tree.n tree then
    invalid_arg "Arrow.long_lived: schedule size differs from the tree's";
  instance ?config ~tree ~spec:(Order.long_lived_spec ~schedule)
    (setup ?tail ~notify ~tree (fun v -> Array.to_list schedule.(v)))
