(* Combining-funnel counter. See funnel.mli. *)

module Engine = Countq_simnet.Engine
module Shard = Countq_simnet.Shard
module Tree = Countq_topology.Tree
module Implicit = Countq_topology.Implicit

type msg =
  | Up of int  (** combined subtree total climbing to the parent. *)
  | Down of int  (** assigned range base descending for decombination. *)

type contrib = Own | Child of { child : int; count : int }

type state = {
  got : int;  (** on-path children heard from so far. *)
  total : int;  (** combined batch total so far. *)
  batch : contrib list;  (** contributions, reverse arrival order. *)
}

let initial = { got = 0; total = 0; batch = [] }

(* Per-node closure entry, read-only once built: [expected] is the
   number of on-path children (the combining window — a node's batch is
   complete exactly when that many [Up]s have arrived), [requester]
   whether the node contributes an increment of its own. *)
type info = { mutable expected : int; mutable requester : bool }

module Itbl = Hashtbl.Make (Int)

(* The on-path closure: every requester plus all its ancestors, built
   by walking [parent] up from each request. Only these nodes ever hold
   funnel state or see a message, so the table (not the tree) bounds
   the live footprint — 10^6-node trees with a handful of requesters
   touch a handful of nodes. Also validates the request list. *)
let closure ~name ~n ~root ~parent ~requests =
  let tbl = Itbl.create ((4 * List.length requests) + 16) in
  let rec ensure v =
    match Itbl.find_opt tbl v with
    | Some i -> i
    | None ->
        let i = { expected = 0; requester = false } in
        Itbl.add tbl v i;
        if v <> root then begin
          let p = parent v in
          if p < 0 || p >= n || p = v then
            invalid_arg (name ^ ": parent walk left the vertex range");
          let pi = ensure p in
          pi.expected <- pi.expected + 1
        end;
        i
  in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg (name ^ ": request out of range");
      let i = ensure v in
      if i.requester then invalid_arg (name ^ ": duplicate request node");
      i.requester <- true)
    requests;
  tbl

(* Decombine a completed batch: hand each contribution, in arrival
   order, the next contiguous sub-range of [[base+1, base+total]]. An
   own increment takes one count and completes at [v]; a child's
   combined block of [count] descends as a fresh [Down]. The recursion
   bottoms out at leaves, so a root lane of [(0, |R|)] decombines into
   exactly {1..|R|} for any arrival order. *)
let hand_down v base batch =
  let acts, _ =
    List.fold_left
      (fun (acts, b) c ->
        match c with
        | Own -> (Engine.Complete (v, b + 1) :: acts, b + 1)
        | Child { child; count } ->
            (Engine.Send (child, Down b) :: acts, b + count))
      ([], base) batch
  in
  List.rev acts

let make_protocol ~info_of ~root ~parent =
  (* A node's batch is complete when every on-path child has reported
     and (for requesters) its own increment joined at time 0 — engines
     run [on_start] before any delivery, so by the last [Up] the own
     contribution is already in the batch. Interior nodes forward one
     combined [Up]; the root starts the downsweep directly. *)
  let flush v st =
    if v = root then (initial, hand_down v 0 (List.rev st.batch))
    else (st, [ Engine.Send (parent v, Up st.total) ])
  in
  {
    Engine.name = "combining-funnel";
    initial_state = (fun _ -> initial);
    on_start =
      (fun ~node s ->
        match info_of node with
        | Some i when i.requester ->
            let s = { s with total = s.total + 1; batch = Own :: s.batch } in
            if s.got = i.expected then flush node s else (s, [])
        | _ -> (s, []));
    on_receive =
      (fun ~round:_ ~node ~src msg s ->
        match msg with
        | Up count ->
            let s =
              {
                got = s.got + 1;
                total = s.total + count;
                batch = Child { child = src; count } :: s.batch;
              }
            in
            let i =
              match info_of node with
              | Some i -> i
              | None -> invalid_arg "Funnel: Up delivered off the closure"
            in
            if s.got = i.expected then flush node s else (s, [])
        | Down base ->
            (* Reset to the initial state after decombining, so a
               finished funnel leaves no residue behind the wavefront:
               a quiet node keeps only its state. *)
            (initial, hand_down node base (List.rev s.batch)));
    on_wake = Engine.no_wake;
  }

let adaptive_width ~n ~concurrency =
  let c = max 1 concurrency in
  let w = 1 + int_of_float (Float.sqrt (float_of_int c)) in
  min (max 2 (min 64 w)) (max 2 (n - 1))

let prepare_tree ~tree ~requests name =
  let n = Tree.n tree in
  let root = Tree.root tree in
  let parent v = Tree.parent tree v in
  let tbl = closure ~name ~n ~root ~parent ~requests in
  make_protocol ~info_of:(Itbl.find_opt tbl) ~root ~parent

let prepare_implicit ~topo ~requests name =
  let arity =
    match Implicit.tree_arity topo with
    | Some a -> a
    | None -> invalid_arg (name ^ ": topology is not an implicit tree family")
  in
  let n = Implicit.n topo in
  let parent v = (v - 1) / arity in
  let tbl = closure ~name ~n ~root:0 ~parent ~requests in
  make_protocol ~info_of:(Itbl.find_opt tbl) ~root:0 ~parent

type checker_state = state
type checker_msg = msg

let one_shot_protocol ~tree ~requests () =
  prepare_tree ~tree ~requests "Funnel.one_shot_protocol"

let implicit_protocol ~topo ~requests () =
  prepare_implicit ~topo ~requests "Funnel.implicit_protocol"

(* Explicit config > caller-chosen width > adaptive width, always
   capped by the tree's actual maximum degree. *)
let default_config ?width ~max_degree ~n ~requests () =
  let w =
    match width with
    | Some w -> w
    | None -> adaptive_width ~n ~concurrency:(List.length requests)
  in
  Engine.config_with_capacity (max 1 (min max_degree w))

(* [name] prefixes the messages of rejected requests. *)
let instance ?config ?width ~tree ~requests name =
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config =
      (match config with
      | Some c -> c
      | None ->
          default_config ?width ~max_degree:(Tree.max_degree tree)
            ~n:(Tree.n tree) ~requests ());
    protocol = prepare_tree ~tree ~requests name;
    spec = Counts.spec ~requests;
    (* Batches combine whole subtrees: no message serves a single op. *)
    op_of_msg = (fun _ -> None);
  }

let one_shot ?config ?width ~tree ~requests () =
  instance ?config ?width ~tree ~requests "Funnel.one_shot"

let run ?config ?width ~tree ~requests () =
  Counts.of_engine ~requests
    (Countq_simnet.Oneshot.run
       (instance ?config ?width ~tree ~requests "Funnel.run"))

let run_implicit ?config ?width ?shards ?pool ?stats ~topo ~requests () =
  let protocol = prepare_implicit ~topo ~requests "Funnel.run_implicit" in
  let config =
    match config with
    | Some c -> c
    | None ->
        default_config ?width ~max_degree:(Implicit.max_degree topo)
          ~n:(Implicit.n topo) ~requests ()
  in
  let starters = List.sort Int.compare requests in
  let shards = Option.value shards ~default:1 in
  Counts.of_engine ~requests
    (Shard.run_implicit ~shards ?pool ?stats ~starters ~topo ~config ~protocol ())
