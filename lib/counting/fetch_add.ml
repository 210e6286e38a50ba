(* Distributed fetch-and-add. See fetch_add.mli. *)

module Engine = Countq_simnet.Engine
module Route = Countq_simnet.Route
module Graph = Countq_topology.Graph
module Tree = Countq_topology.Tree

type outcome = { node : int; increment : int; before : int; round : int }

type error =
  | Unrequested of int
  | Duplicate_node of int
  | Missing_node of int
  | Wrong_increment of int
  | Inconsistent_prefixes

let pp_error ppf = function
  | Unrequested v -> Format.fprintf ppf "non-requesting node %d got a result" v
  | Duplicate_node v -> Format.fprintf ppf "node %d got two results" v
  | Missing_node v -> Format.fprintf ppf "requesting node %d got no result" v
  | Wrong_increment v ->
      Format.fprintf ppf "node %d's reported increment differs from issued" v
  | Inconsistent_prefixes ->
      Format.pp_print_string ppf "no operation order yields these prefix sums"

let check_requests n requests name =
  let issued = Hashtbl.create 16 in
  List.iter
    (fun (v, inc) ->
      if v < 0 || v >= n then invalid_arg (name ^ ": request out of range");
      if inc < 0 then invalid_arg (name ^ ": negative increment");
      if Hashtbl.mem issued v then invalid_arg (name ^ ": duplicate request node");
      Hashtbl.replace issued v inc)
    requests;
  issued

let validate ~requests outcomes =
  let exception E of error in
  try
    let issued = Hashtbl.create 16 in
    List.iter (fun (v, inc) -> Hashtbl.replace issued v inc) requests;
    let seen = Hashtbl.create 16 in
    List.iter
      (fun o ->
        (match Hashtbl.find_opt issued o.node with
        | None -> raise (E (Unrequested o.node))
        | Some inc -> if inc <> o.increment then raise (E (Wrong_increment o.node)));
        if Hashtbl.mem seen o.node then raise (E (Duplicate_node o.node));
        Hashtbl.replace seen o.node ())
      outcomes;
    List.iter
      (fun (v, _) -> if not (Hashtbl.mem seen v) then raise (E (Missing_node v)))
      requests;
    (* Existence of a consistent order: sort by reported prefix; within
       a tie group every zero-increment op is free, but at most one
       positive-increment op may appear and it must close the group. *)
    let sorted =
      List.sort
        (fun a b ->
          match compare a.before b.before with
          | 0 -> compare a.increment b.increment (* zeros first in group *)
          | c -> c)
        outcomes
    in
    let running = ref 0 in
    List.iter
      (fun o ->
        if o.before <> !running then raise (E Inconsistent_prefixes);
        running := !running + o.increment)
      sorted;
    Ok ()
  with E e -> Error e

type run_result = {
  outcomes : outcome list;
  valid : (unit, error) result;
  rounds : int;
  messages : int;
  total_delay : int;
  max_delay : int;
  expansion : int;
}

let of_engine ~requests (res : (int * int * int) Engine.result) =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let node, increment, before = c.value in
        { node; increment; before; round = c.round })
      res.completions
  in
  {
    outcomes;
    valid = validate ~requests outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = List.fold_left (fun acc o -> acc + o.round) 0 outcomes;
    max_delay = List.fold_left (fun acc o -> max acc o.round) 0 outcomes;
    expansion = res.expansion;
  }

(* ---- central accumulator ---- *)

type central_msg =
  | Request of { origin : int; increment : int }
  | Reply of { dest : int; increment : int; before : int }

let run_central ?config ?(root = 0) ?route ~graph ~requests () =
  let n = Graph.n graph in
  if root < 0 || root >= n then invalid_arg "Fetch_add.run_central: root out of range";
  let issued = check_requests n requests "Fetch_add.run_central" in
  let route = match route with Some r -> r | None -> Route.auto graph in
  let config = Option.value config ~default:Engine.default_config in
  let apply node sum origin increment =
    let before = sum in
    let sum = sum + increment in
    if origin = node then (sum, [ Engine.Complete (origin, increment, before) ])
    else
      ( sum,
        [
          Engine.Send
            ( Route.next_hop route node origin,
              Reply { dest = origin; increment; before } );
        ] )
  in
  let protocol =
    {
      Engine.name = "central-fetch-add";
      initial_state = (fun _ -> 0);
      on_start =
        (fun ~node sum ->
          match Hashtbl.find_opt issued node with
          | None -> (sum, [])
          | Some increment ->
              if node = root then apply node sum node increment
              else
                ( sum,
                  [
                    Engine.Send
                      ( Route.next_hop route node root,
                        Request { origin = node; increment } );
                  ] ));
      on_receive =
        (fun ~round:_ ~node ~src:_ msg sum ->
          match msg with
          | Request { origin; increment } ->
              if node = root then apply node sum origin increment
              else
                (sum, [ Engine.Send (Route.next_hop route node root, msg) ])
          | Reply { dest; increment; before } ->
              if node = dest then
                (sum, [ Engine.Complete (dest, increment, before) ])
              else
                (sum, [ Engine.Send (Route.next_hop route node dest, msg) ]));
      on_wake = Engine.no_wake;
    }
  in
  of_engine ~requests (Engine.run ~graph ~config ~protocol ())

(* ---- combining tree ---- *)

type combining_msg =
  | Report of int  (** sum of increments in the sender's subtree. *)
  | Base of int  (** exclusive prefix granted to the receiver's subtree. *)

type combining_state = { pending : int; reported : (int * int) list }

let run_combining ?config ~tree ~requests () =
  let n = Tree.n tree in
  let root = Tree.root tree in
  let issued = check_requests n requests "Fetch_add.run_combining" in
  let increment v = Option.value (Hashtbl.find_opt issued v) ~default:0 in
  let is_requester v = Hashtbl.mem issued v in
  let config =
    match config with
    | Some c -> c
    | None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree))
  in
  (* Prefix layout within a granted subtree: the node's own operation
     first, then each child subtree in increasing child order — the
     same DFS order the counting combining tree uses. *)
  let downsweep v s base =
    let complete =
      if is_requester v then [ Engine.Complete (v, increment v, base) ] else []
    in
    let base = ref (base + increment v) in
    let sends =
      List.filter_map
        (fun (child, subtree_sum) ->
          (* A subtree with zero total may still hold zero-increment
             requesters, so forward whenever the child reported at all
             and has any requester below it; cheapest correct rule:
             always forward (one message per tree edge). *)
          let b = !base in
          base := b + subtree_sum;
          Some (Engine.Send (child, Base b)))
        (List.sort compare s.reported)
    in
    (s, complete @ sends)
  in
  let subtree_sum v s =
    increment v + List.fold_left (fun acc (_, c) -> acc + c) 0 s.reported
  in
  let finish_upsweep v s =
    if v = root then downsweep v s 0
    else (s, [ Engine.Send (Tree.parent tree v, Report (subtree_sum v s)) ])
  in
  let protocol =
    {
      Engine.name = "combining-fetch-add";
      initial_state =
        (fun v -> { pending = Array.length (Tree.children tree v); reported = [] });
      on_start =
        (fun ~node s -> if s.pending = 0 then finish_upsweep node s else (s, []));
      on_receive =
        (fun ~round:_ ~node ~src msg s ->
          match msg with
          | Report c ->
              let s =
                { pending = s.pending - 1; reported = (src, c) :: s.reported }
              in
              if s.pending = 0 then finish_upsweep node s else (s, [])
          | Base b -> downsweep node s b);
      on_wake = Engine.no_wake;
    }
  in
  let graph = Tree.to_graph tree in
  of_engine ~requests (Engine.run ~graph ~config ~protocol ())

(* ---- token sweep ---- *)

let run_sweep ?config ~tree ~requests () =
  let n = Tree.n tree in
  let issued = check_requests n requests "Fetch_add.run_sweep" in
  let config = Option.value config ~default:Engine.default_config in
  let walk = Sweep.euler_walk tree in
  (* Exclusive prefix of each requester in first-visit order, computed
     during the free initialisation. *)
  let before = Array.make n 0 in
  let seen = Array.make n false in
  let running = ref 0 in
  Array.iter
    (fun v ->
      if not seen.(v) then begin
        seen.(v) <- true;
        match Hashtbl.find_opt issued v with
        | Some inc ->
            before.(v) <- !running;
            running := !running + inc
        | None -> ()
      end)
    walk;
  let first_visit = Array.make n (-1) in
  Array.iteri (fun i v -> if first_visit.(v) < 0 then first_visit.(v) <- i) walk;
  let steps = Array.length walk in
  let actions_at node i =
    let complete =
      match Hashtbl.find_opt issued node with
      | Some inc when first_visit.(node) = i ->
          [ Engine.Complete (node, inc, before.(node)) ]
      | _ -> []
    in
    let forward =
      if i + 1 < steps then [ Engine.Send (walk.(i + 1), i + 1) ] else []
    in
    complete @ forward
  in
  let protocol =
    {
      Engine.name = "sweep-fetch-add";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = Tree.root tree then (s, actions_at node 0) else (s, []));
      on_receive = (fun ~round:_ ~node ~src:_ i s -> (s, actions_at node i));
      on_wake = Engine.no_wake;
    }
  in
  let graph = Tree.to_graph tree in
  of_engine ~requests (Engine.run ~graph ~config ~protocol ())
