(* Centralised counter baseline. See central.mli. *)

module Engine = Countq_simnet.Engine
module Route = Countq_simnet.Route
module Graph = Countq_topology.Graph

type msg =
  | Request of { origin : int }
  | Reply of { dest : int; count : int }

type state = { counter : int } (* meaningful at the root only *)

let check_requests n requests =
  let seen = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Central.run: request out of range";
      if seen.(v) then invalid_arg "Central.run: duplicate request node";
      seen.(v) <- true)
    requests;
  seen

let make_protocol ~root ~route ~requesting =
  (* The root assigns the next rank and emits the reply (or completes
     locally when the requester is the root itself). *)
  let assign node s origin =
    let count = s.counter + 1 in
    let s = { counter = count } in
    if origin = node then (s, [ Engine.Complete (origin, count) ])
    else
      ( s,
        [ Engine.Send (Route.next_hop route node origin, Reply { dest = origin; count }) ]
      )
  in
  {
    Engine.name = "central-counter";
    initial_state = (fun _ -> { counter = 0 });
    on_start =
      (fun ~node s ->
        if not requesting.(node) then (s, [])
        else if node = root then assign node s node
        else
          (s, [ Engine.Send (Route.next_hop route node root, Request { origin = node }) ]));
    on_receive =
      (fun ~round:_ ~node ~src:_ msg s ->
        match msg with
        | Request { origin } ->
            if node = root then assign node s origin
            else
              (s, [ Engine.Send (Route.next_hop route node root, msg) ])
        | Reply { dest; count } ->
            if node = dest then (s, [ Engine.Complete (dest, count) ])
            else
              (s, [ Engine.Send (Route.next_hop route node dest, msg) ]));
    on_wake = Engine.no_wake;
  }

let prepare ~root ~route ~graph ~requests =
  let n = Graph.n graph in
  if root < 0 || root >= n then invalid_arg "Central.run: root out of range";
  let requesting = check_requests n requests in
  let route = match route with Some r -> r | None -> Route.auto graph in
  make_protocol ~root ~route ~requesting

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
    (* A Reply belongs to the op of its destination. *)
    op_of_msg =
      (function Request { origin } -> Some origin | Reply { dest; _ } -> Some dest);
  }

type long_lived_outcome = { node : int; seq : int; count : int; delay : int }

type long_lived_result = {
  outcomes : long_lived_outcome list;
  counts_exact : bool;
  rounds : int;
  messages : int;
}

type ll_msg =
  | Ll_request of { origin : int; seq : int }
  | Ll_reply of { dest : int; seq : int; count : int }

type ll_state = {
  counter : int;  (** meaningful at the root only. *)
  schedule : int list;  (** remaining issue rounds, sorted. *)
  seq_next : int;
}

let run_long_lived ?config ?(root = 0) ?route ~graph ~arrivals () =
  let n = Graph.n graph in
  if root < 0 || root >= n then
    invalid_arg "Central.run_long_lived: root out of range";
  List.iter
    (fun (v, r) ->
      if v < 0 || v >= n then
        invalid_arg "Central.run_long_lived: arrival node out of range";
      if r < 0 then invalid_arg "Central.run_long_lived: negative arrival round")
    arrivals;
  let route = match route with Some r -> r | None -> Route.auto graph in
  let per_node = Array.make n [] in
  List.iter (fun (v, r) -> per_node.(v) <- r :: per_node.(v)) arrivals;
  Array.iteri (fun v rs -> per_node.(v) <- List.sort compare rs) per_node;
  let issue_time v seq = List.nth per_node.(v) seq in
  let config = Option.value config ~default:Engine.default_config in
  (* Assign the next rank at the root (locally when the root issues). *)
  let assign node s origin seq =
    let count = s.counter + 1 in
    let s = { s with counter = count } in
    if origin = node then (s, [ Engine.Complete (origin, seq, count) ])
    else
      ( s,
        [
          Engine.Send
            (Route.next_hop route node origin, Ll_reply { dest = origin; seq; count });
        ] )
  in
  let issue node s =
    let seq = s.seq_next in
    let s = { s with seq_next = seq + 1 } in
    if node = root then assign node s node seq
    else
      ( s,
        [
          Engine.Send
            (Route.next_hop route node root, Ll_request { origin = node; seq });
        ] )
  in
  (* Issue every operation due at or before [round], then wake for the
     next. *)
  let drain_due round node s =
    let rec go s acc =
      match s.schedule with
      | r :: rest when r <= round ->
          let s, actions = issue node { s with schedule = rest } in
          go s (acc @ actions)
      | _ -> (s, acc @ Engine.wake_next s.schedule)
    in
    go s []
  in
  let protocol =
    {
      Engine.name = "central-counter-long-lived";
      initial_state =
        (fun v -> { counter = 0; schedule = per_node.(v); seq_next = 0 });
      on_start = (fun ~node s -> drain_due 0 node s);
      on_receive =
        (fun ~round:_ ~node ~src:_ msg s ->
          match msg with
          | Ll_request { origin; seq } ->
              if node = root then assign node s origin seq
              else
                (s, [ Engine.Send (Route.next_hop route node root, msg) ])
          | Ll_reply { dest; seq; count } ->
              if node = dest then (s, [ Engine.Complete (dest, seq, count) ])
              else
                (s, [ Engine.Send (Route.next_hop route node dest, msg) ]));
      on_wake = (fun ~round ~node s -> drain_due round node s);
    }
  in
  let res = Engine.run ~graph ~config ~protocol () in
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let node, seq, count = c.value in
        { node; seq; count; delay = c.round - issue_time node seq })
      res.completions
  in
  let m = List.length outcomes in
  let counts_exact =
    List.sort compare (List.map (fun o -> o.count) outcomes)
    = List.init m (fun i -> i + 1)
  in
  { outcomes; counts_exact; rounds = res.rounds; messages = res.messages }

let run ?config ?root ?route ~graph ~requests () =
  Counts.of_engine ~requests
    (Countq_simnet.Oneshot.run (one_shot ?config ?root ?route ~graph ~requests ()))
