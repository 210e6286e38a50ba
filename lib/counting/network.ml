(* Counting-network embedding on the simulator. See network.mli. *)

module Engine = Countq_simnet.Engine
module Route = Countq_simnet.Route
module Graph = Countq_topology.Graph
module Rng = Countq_util.Rng

type placement = { balancer_host : int -> int; output_host : int -> int }

let round_robin_placement ~net ~n ~seed =
  let rng = Rng.create seed in
  let perm = Rng.permutation rng n in
  let balancer_host id = perm.(id mod n) in
  (* Host each output wire where the balancer feeding it lives, so the
     final hop is free whenever possible. *)
  let feeder = Array.make (Bitonic.width net) (-1) in
  Array.iter
    (fun (b : Bitonic.balancer) ->
      (match b.succ_top with
      | Bitonic.To_output w -> feeder.(w) <- b.id
      | Bitonic.To_balancer _ -> ());
      match b.succ_bot with
      | Bitonic.To_output w -> feeder.(w) <- b.id
      | Bitonic.To_balancer _ -> ())
    (Bitonic.balancers net);
  let output_host w =
    if feeder.(w) >= 0 then balancer_host feeder.(w) else w mod n
  in
  { balancer_host; output_host }

let default_width n =
  let cap = min (max 2 n) 64 in
  let rec largest_pow2 p = if p * 2 <= cap then largest_pow2 (p * 2) else p in
  largest_pow2 1

type stage = At_balancer of int | At_output of int

type msg =
  | Token of { origin : int; dest : int; stage : stage }
  | Reply of { dest : int; count : int }

(* Per-node balancer toggles and output-wire exit counters, for the
   balancers and wires hosted at this node. *)
type state = {
  toggles : (int, bool) Hashtbl.t;
  exits : (int, int) Hashtbl.t;
}

type long_lived_outcome = { node : int; seq : int; count : int; delay : int }

type long_lived_result = {
  outcomes : long_lived_outcome list;
  counts_exact : bool;
  rounds : int;
  messages : int;
}

type ll_stage = L_balancer of int | L_output of int

type ll_msg =
  | L_token of { origin : int; seq : int; dest : int; stage : ll_stage }
  | L_reply of { dest : int; seq : int; count : int }

type ll_state = {
  ll_toggles : (int, bool) Hashtbl.t;
  ll_exits : (int, int) Hashtbl.t;
  mutable schedule : int list;  (* remaining issue rounds, sorted *)
  mutable seq_next : int;
}

let run_long_lived ?config ?width ?net ?placement ?route ~graph ~arrivals () =
  let n = Graph.n graph in
  let width, net =
    match (net, width) with
    | Some net, Some w ->
        if Bitonic.width net <> w then
          invalid_arg "Network.run_long_lived: width disagrees with the given net";
        (w, net)
    | Some net, None -> (Bitonic.width net, net)
    | None, Some w -> (w, Bitonic.create ~width:w)
    | None, None ->
        let w = default_width n in
        (w, Bitonic.create ~width:w)
  in
  let placement =
    match placement with
    | Some p -> p
    | None -> round_robin_placement ~net ~n ~seed:0x5eedL
  in
  let route = match route with Some r -> r | None -> Route.auto graph in
  List.iter
    (fun (v, r) ->
      if v < 0 || v >= n then
        invalid_arg "Network.run_long_lived: arrival node out of range";
      if r < 0 then invalid_arg "Network.run_long_lived: negative arrival round")
    arrivals;
  let per_node = Array.make n [] in
  List.iter (fun (v, r) -> per_node.(v) <- r :: per_node.(v)) arrivals;
  Array.iteri (fun v rs -> per_node.(v) <- List.sort compare rs) per_node;
  let issue_time v seq = List.nth per_node.(v) seq in
  let config = Option.value config ~default:Engine.default_config in
  let balancers = Bitonic.balancers net in
  let stage_of_dest = function
    | Bitonic.To_balancer id -> L_balancer id
    | Bitonic.To_output w -> L_output w
  in
  let host_of = function
    | L_balancer id -> placement.balancer_host id
    | L_output w -> placement.output_host w
  in
  let rec process node (st : ll_state) ~origin ~seq stage =
    match stage with
    | L_balancer id ->
        let fired =
          Option.value (Hashtbl.find_opt st.ll_toggles id) ~default:false
        in
        Hashtbl.replace st.ll_toggles id (not fired);
        let b = balancers.(id) in
        let next = if fired then b.succ_bot else b.succ_top in
        let stage' = stage_of_dest next in
        let host = host_of stage' in
        if host = node then process node st ~origin ~seq stage'
        else
          [
            Engine.Send
              ( Route.next_hop route node host,
                L_token { origin; seq; dest = host; stage = stage' } );
          ]
    | L_output w ->
        let nth = Option.value (Hashtbl.find_opt st.ll_exits w) ~default:0 in
        Hashtbl.replace st.ll_exits w (nth + 1);
        let count = Bitonic.count_of_exit ~width ~wire:w ~nth in
        if origin = node then [ Engine.Complete (origin, seq, count) ]
        else
          [
            Engine.Send
              ( Route.next_hop route node origin,
                L_reply { dest = origin; seq; count } );
          ]
  in
  let inject node (st : ll_state) =
    let seq = st.seq_next in
    st.seq_next <- seq + 1;
    let stage = stage_of_dest (Bitonic.entry net ~wire:((node + seq) mod width)) in
    let host = host_of stage in
    if host = node then process node st ~origin:node ~seq stage
    else
      [
        Engine.Send
          ( Route.next_hop route node host,
            L_token { origin = node; seq; dest = host; stage } );
      ]
  in
  (* Issue every operation scheduled at or before [round], then wake
     for the next. *)
  let drain_due round node (st : ll_state) =
    let rec go acc =
      match st.schedule with
      | r :: rest when r <= round ->
          st.schedule <- rest;
          go (acc @ inject node st)
      | _ -> acc @ Engine.wake_next st.schedule
    in
    go []
  in
  let protocol =
    {
      Engine.name = "counting-network-long-lived";
      initial_state =
        (fun v ->
          {
            ll_toggles = Hashtbl.create 4;
            ll_exits = Hashtbl.create 2;
            schedule = per_node.(v);
            seq_next = 0;
          });
      on_start = (fun ~node s -> (s, drain_due 0 node s));
      on_receive =
        (fun ~round:_ ~node ~src:_ msg s ->
          match msg with
          | L_token { origin; seq; dest; stage } ->
              if node = dest then (s, process node s ~origin ~seq stage)
              else
                (s, [ Engine.Send (Route.next_hop route node dest, msg) ])
          | L_reply { dest; seq; count } ->
              if node = dest then (s, [ Engine.Complete (dest, seq, count) ])
              else
                (s, [ Engine.Send (Route.next_hop route node dest, msg) ]));
      on_wake = (fun ~round ~node s -> (s, drain_due round node s));
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

let prepare ?width ?net ?placement ?route ~graph ~requests () =
  let n = Graph.n graph in
  let width, net =
    match (net, width) with
    | Some net, Some w ->
        if Bitonic.width net <> w then
          invalid_arg "Network.run: width disagrees with the given net";
        (w, net)
    | Some net, None -> (Bitonic.width net, net)
    | None, Some w -> (w, Bitonic.create ~width:w)
    | None, None ->
        let w = default_width n in
        (w, Bitonic.create ~width:w)
  in
  let placement =
    match placement with
    | Some p -> p
    | None -> round_robin_placement ~net ~n ~seed:0x5eedL
  in
  let route = match route with Some r -> r | None -> Route.auto graph in
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Network.run: request out of range";
      if requesting.(v) then invalid_arg "Network.run: duplicate request node";
      requesting.(v) <- true)
    requests;
  let balancers = Bitonic.balancers net in
  let stage_of_dest = function
    | Bitonic.To_balancer id -> At_balancer id
    | Bitonic.To_output w -> At_output w
  in
  let host_of = function
    | At_balancer id -> placement.balancer_host id
    | At_output w -> placement.output_host w
  in
  (* Process a token that has reached the host of [stage]; chases
     through successive stages hosted on the same node without
     messages (local computation is free within a round). *)
  let rec process node st ~origin stage =
    match stage with
    | At_balancer id ->
        let fired = Option.value (Hashtbl.find_opt st.toggles id) ~default:false in
        Hashtbl.replace st.toggles id (not fired);
        let b = balancers.(id) in
        let next = if fired then b.succ_bot else b.succ_top in
        let stage' = stage_of_dest next in
        let host = host_of stage' in
        if host = node then process node st ~origin stage'
        else
          [
            Engine.Send
              (Route.next_hop route node host, Token { origin; dest = host; stage = stage' });
          ]
    | At_output w ->
        let nth = Option.value (Hashtbl.find_opt st.exits w) ~default:0 in
        Hashtbl.replace st.exits w (nth + 1);
        let count = Bitonic.count_of_exit ~width ~wire:w ~nth in
        if origin = node then [ Engine.Complete (origin, count) ]
        else
          [
            Engine.Send
              (Route.next_hop route node origin, Reply { dest = origin; count });
          ]
  in
  let protocol =
    {
      Engine.name = "counting-network";
      initial_state =
        (fun _ -> { toggles = Hashtbl.create 4; exits = Hashtbl.create 2 });
      on_start =
        (fun ~node s ->
          if not requesting.(node) then (s, [])
          else begin
            let stage = stage_of_dest (Bitonic.entry net ~wire:(node mod width)) in
            let host = host_of stage in
            if host = node then (s, process node s ~origin:node stage)
            else
              ( s,
                [
                  Engine.Send
                    ( Route.next_hop route node host,
                      Token { origin = node; dest = host; stage } );
                ] )
          end);
      on_receive =
        (fun ~round:_ ~node ~src:_ msg s ->
          match msg with
          | Token { origin; dest; stage } ->
              if node = dest then (s, process node s ~origin stage)
              else
                (s, [ Engine.Send (Route.next_hop route node dest, msg) ])
          | Reply { dest; count } ->
              if node = dest then (s, [ Engine.Complete (dest, count) ])
              else
                (s, [ Engine.Send (Route.next_hop route node dest, msg) ]));
      on_wake = Engine.no_wake;
    }
  in
  protocol

type checker_state = state
type checker_msg = msg

let one_shot_protocol = prepare

let one_shot ?(config = Engine.default_config) ?width ?net ?placement ?route
    ~graph ~requests () =
  {
    Countq_simnet.Oneshot.graph;
    config;
    protocol = prepare ?width ?net ?placement ?route ~graph ~requests ();
    spec = Counts.spec ~requests;
    op_of_msg =
      (function Token { origin; _ } -> Some origin | Reply { dest; _ } -> Some dest);
  }

let run ?config ?width ?net ?placement ?route ~graph ~requests () =
  Counts.of_engine ~requests
    (Countq_simnet.Oneshot.run
       (one_shot ?config ?width ?net ?placement ?route ~graph ~requests ()))
