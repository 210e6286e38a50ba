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

(* An op is named by [Counts.op]; a reply goes back to its origin. *)
type msg =
  | Token of { op : int; dest : int; stage : stage }
  | Reply of { op : int; count : int }

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* Per-node state, immutable: of the balancers hosted here, those whose
   toggle sends the next token down; the tokens each hosted output wire
   has ranked so far; this node's remaining issue rounds and the seq of
   its next issue. *)
type state = {
  toggled : Int_set.t;
  exits : int Int_map.t;
  schedule : int list;
  seq_next : int;
}

(* The one machine: node [v] issues at [issue_rounds v]; its op [seq]
   enters on input wire [(v + seq) mod width]. *)
let prepare name ?width ?net ?placement ?route ~graph ~issue_rounds () =
  let n = Graph.n graph in
  let width, net =
    match (net, width) with
    | Some net, Some w ->
        if Bitonic.width net <> w then
          invalid_arg (name ^ ": width disagrees with the given net");
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
  let balancers = Bitonic.balancers net in
  let stage_of_dest = function
    | Bitonic.To_balancer id -> At_balancer id
    | Bitonic.To_output w -> At_output w
  in
  let host_of = function
    | At_balancer id -> placement.balancer_host id
    | At_output w -> placement.output_host w
  in
  (* Move op's token to the host of [stage], or process it here:
     successive stages hosted on the same node chase through without
     messages (local computation is free within a round). *)
  let rec forward node s ~op stage =
    let host = host_of stage in
    if host = node then process node s ~op stage
    else
      (s, [ Engine.Send (Route.next_hop route node host, Token { op; dest = host; stage }) ])
  and process node s ~op stage =
    match stage with
    | At_balancer id ->
        let down = Int_set.mem id s.toggled in
        let toggled =
          if down then Int_set.remove id s.toggled else Int_set.add id s.toggled
        in
        let b = balancers.(id) in
        forward node { s with toggled } ~op
          (stage_of_dest (if down then b.succ_bot else b.succ_top))
    | At_output w ->
        let nth = if Int_map.mem w s.exits then Int_map.find w s.exits else 0 in
        let s = { s with exits = Int_map.add w (nth + 1) s.exits } in
        let count = Bitonic.count_of_exit ~width ~wire:w ~nth in
        let origin = Counts.origin ~n op in
        if origin = node then (s, [ Engine.Complete (op, count) ])
        else
          (s, [ Engine.Send (Route.next_hop route node origin, Reply { op; count }) ])
  in
  let issue node s =
    let seq = s.seq_next in
    forward node { s with seq_next = seq + 1 } ~op:(Counts.op ~n ~node ~seq)
      (stage_of_dest (Bitonic.entry net ~wire:((node + seq) mod width)))
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
    Engine.name = "counting-network";
    initial_state =
      (fun v ->
        {
          toggled = Int_set.empty;
          exits = Int_map.empty;
          schedule = issue_rounds v;
          seq_next = 0;
        });
    on_start = (fun ~node s -> issue_due 0 node s []);
    on_receive =
      (fun ~round:_ ~node ~src:_ msg s ->
        match msg with
        | Token { op; dest; stage } ->
            if node = dest then process node s ~op stage
            else (s, [ Engine.Send (Route.next_hop route node dest, msg) ])
        | Reply { op; count } ->
            let origin = Counts.origin ~n op in
            if node = origin then (s, [ Engine.Complete (op, count) ])
            else (s, [ Engine.Send (Route.next_hop route node origin, msg) ]));
    on_wake = (fun ~round ~node s -> issue_due round node s []);
  }

type checker_state = state
type checker_msg = msg

let one_shot_protocol ?width ?net ?placement ?route ~graph ~requests () =
  let requesting =
    Engine.requesting ~name:"Network.one_shot" ~n:(Graph.n graph) requests
  in
  prepare "Network.one_shot" ?width ?net ?placement ?route ~graph
    ~issue_rounds:(fun v -> if requesting.(v) then [ 0 ] else [])
    ()

let one_shot ?(config = Engine.default_config) ?width ?net ?placement ?route
    ~graph ~requests () =
  {
    Countq_simnet.Oneshot.graph;
    config;
    protocol = one_shot_protocol ?width ?net ?placement ?route ~graph ~requests ();
    spec = Counts.spec ~requests;
    (* A one-shot op is named by its origin. *)
    op_of_msg = (function Token { op; _ } | Reply { op; _ } -> Some op);
  }

let run_long_lived ?(config = Engine.default_config) ?width ?net ?placement
    ?route ~graph ~arrivals () =
  let schedule =
    Engine.schedule ~name:"Network.run_long_lived" ~n:(Graph.n graph) arrivals
  in
  let protocol =
    prepare "Network.run_long_lived" ?width ?net ?placement ?route ~graph
      ~issue_rounds:(fun v -> Array.to_list schedule.(v))
      ()
  in
  Counts.of_long_lived ~schedule (Engine.run ~graph ~config ~protocol ())
