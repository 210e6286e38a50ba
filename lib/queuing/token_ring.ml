(* Token-circulation queuing baseline. See token_ring.mli. *)

module Engine = Countq_simnet.Engine
module Tree = Countq_topology.Tree
module Types = Countq_arrow.Types
module Sweep = Countq_counting.Sweep

type checker_state = unit
type checker_msg = int

let one_shot_protocol ~tree ~requests () =
  let n = Tree.n tree in
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Token_ring.run: request out of range";
      if requesting.(v) then invalid_arg "Token_ring.run: duplicate request node";
      requesting.(v) <- true)
    requests;
  let walk = Sweep.euler_walk tree in
  (* Predecessor of each requester in first-visit order (computed in
     the free initialisation, like the sweep counter's ranks). *)
  let pred_of = Array.make n Types.Init in
  let seen = Array.make n false in
  let last = ref Types.Init in
  Array.iter
    (fun v ->
      if not seen.(v) then begin
        seen.(v) <- true;
        if requesting.(v) then begin
          pred_of.(v) <- !last;
          last := Types.Op { origin = v; seq = 0 }
        end
      end)
    walk;
  let first_visit = Array.make n (-1) in
  Array.iteri (fun i v -> if first_visit.(v) < 0 then first_visit.(v) <- i) walk;
  let steps = Array.length walk in
  let actions_at node i =
    let complete =
      if requesting.(node) && first_visit.(node) = i then
        [ Engine.Complete ({ Types.origin = node; seq = 0 }, pred_of.(node)) ]
      else []
    in
    let forward =
      if i + 1 < steps then [ Engine.Send (walk.(i + 1), i + 1) ] else []
    in
    complete @ forward
  in
  {
    Engine.name = "token-ring-queue";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s ->
        if node = Tree.root tree then (s, actions_at node 0) else (s, []));
    on_receive = (fun ~round:_ ~node ~src:_ i s -> (s, actions_at node i));
    on_wake = Engine.no_wake;
  }

let one_shot ?(config = Engine.default_config) ~tree ~requests () =
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config;
    protocol = one_shot_protocol ~tree ~requests ();
    spec = Countq_arrow.Order.spec ~requests;
    (* One token serves every operation: no message maps to a single op. *)
    op_of_msg = (fun (_ : int) -> None);
  }
