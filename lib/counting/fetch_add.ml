(* Distributed fetch-and-add. See fetch_add.mli. *)

module Engine = Countq_simnet.Engine
module Monitor = Countq_simnet.Monitor
module Oneshot = Countq_simnet.Oneshot
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

(* Each requester's increment by node ([-1] off the request set). *)
let increments n requests name =
  ignore (Engine.requesting ~name ~n (List.map fst requests));
  let inc = Array.make n (-1) in
  List.iter
    (fun (v, i) ->
      if i < 0 then invalid_arg (name ^ ": negative increment");
      inc.(v) <- i)
    requests;
  inc

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

(* Every machine completes an op as [(node, sum)], the running sum
   through the node's own increment. *)
let outcomes ~requests completions =
  let inc = Hashtbl.create 16 in
  List.iter (fun (v, i) -> Hashtbl.replace inc v i) requests;
  List.map
    (fun (c : _ Engine.completion) ->
      let node, sum = c.value in
      let increment = Option.value (Hashtbl.find_opt inc node) ~default:0 in
      { node; increment; before = sum - increment; round = c.round })
    completions

let of_engine ~requests (res : (int * int) Engine.result) =
  let outcomes = outcomes ~requests res.completions in
  {
    outcomes;
    valid = validate ~requests outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = List.fold_left (fun acc o -> acc + o.round) 0 outcomes;
    max_delay = List.fold_left (fun acc o -> max acc o.round) 0 outcomes;
    expansion = res.expansion;
  }

let spec ~requests =
  {
    Oneshot.expected = List.length requests;
    injects = List.map (fun (v, _) -> (v, 0)) requests;
    op_of_completion = (fun ((node, _) : int * int) -> Some node);
    check =
      (fun completions ->
        match validate ~requests (outcomes ~requests completions) with
        | Ok () -> Ok ()
        | Error e -> Error (Format.asprintf "%a" pp_error e));
    (* Zero increments share running sums, so only one completion per
       requester is checked as the run goes. *)
    monitors =
      (fun () ->
        [ Monitor.unique_completion ~node_of:(fun ~node:_ (origin, _) -> origin) ]);
  }

(* A counting machine's one-shot instance, rebuilt around [protocol]
   (the machine with the callers' increments) and the fetch-and-add
   spec. *)
let with_increments ~requests (inst : _ Oneshot.t) protocol =
  { inst with protocol; spec = spec ~requests }

let central ?config ?(root = 0) ?route ~graph ~requests () =
  let inc = increments (Graph.n graph) requests "Fetch_add.central" in
  let route = match route with Some r -> r | None -> Route.auto graph in
  with_increments ~requests
    (Central.one_shot ?config ~root ~route ~graph ~requests:(List.map fst requests) ())
    (Central.machine ~root ~route ~graph
       ~issue_rounds:(fun v -> if inc.(v) >= 0 then [ 0 ] else [])
       ~increment:(fun op -> inc.(op)))

let combining ?config ~tree ~requests () =
  let inc = increments (Tree.n tree) requests "Fetch_add.combining" in
  let nodes = List.map fst requests in
  with_increments ~requests
    (Combining.one_shot ?config ~tree ~requests:nodes ())
    (Combining.machine ~tree ~requests:nodes ~increment:(fun v -> inc.(v)))

let sweep ?config ~tree ~requests () =
  let inc = increments (Tree.n tree) requests "Fetch_add.sweep" in
  let nodes = List.map fst requests in
  with_increments ~requests
    (Sweep.one_shot ?config ~tree ~requests:nodes ())
    (Sweep.machine ~tree ~requests:nodes ~increment:(fun v -> inc.(v)))
