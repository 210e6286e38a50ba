(* Token-sweep counter (Euler-tour walk). See sweep.mli. *)

module Engine = Countq_simnet.Engine
module Tree = Countq_topology.Tree

(* The Euler walk of [tree] from its root as a vertex sequence in which
   consecutive vertices are tree-adjacent, truncated after the last
   first visit (the tail of pure backtracking is pointless). *)
let euler_walk tree =
  let n = Tree.n tree in
  let walk = ref [] in
  let push v = walk := v :: !walk in
  (* Iterative DFS with explicit backtracking so deep lists are safe. *)
  let next_child = Array.make n 0 in
  let v = ref (Tree.root tree) in
  push !v;
  let finished = ref false in
  while not !finished do
    let children = Tree.children tree !v in
    if next_child.(!v) < Array.length children then begin
      let c = children.(next_child.(!v)) in
      next_child.(!v) <- next_child.(!v) + 1;
      v := c;
      push c
    end
    else if !v = Tree.root tree then finished := true
    else begin
      v := Tree.parent tree !v;
      push !v
    end
  done;
  let seq = Array.of_list (List.rev !walk) in
  (* Truncate after the last first visit. *)
  let seen = Array.make n false in
  let last_new = ref 0 in
  Array.iteri
    (fun i u ->
      if not seen.(u) then begin
        seen.(u) <- true;
        last_new := i
      end)
    seq;
  Array.sub seq 0 (!last_new + 1)

let make_protocol ~tree ~requesting =
  let n = Tree.n tree in
  let walk = euler_walk tree in
  (* Rank of each requester = its position among requesters in
     first-visit order; computed during free initialisation. *)
  let rank = Array.make n 0 in
  let seen = Array.make n false in
  let next_rank = ref 0 in
  Array.iter
    (fun v ->
      if not seen.(v) then begin
        seen.(v) <- true;
        if requesting.(v) then begin
          incr next_rank;
          rank.(v) <- !next_rank
        end
      end)
    walk;
  let first_visit = Array.make n (-1) in
  Array.iteri
    (fun i v -> if first_visit.(v) < 0 then first_visit.(v) <- i)
    walk;
  let steps = Array.length walk in
  (* The token message carries its walk index. *)
  let actions_at node i =
    let complete =
      if requesting.(node) && first_visit.(node) = i then
        [ Engine.Complete (node, rank.(node)) ]
      else []
    in
    let forward =
      if i + 1 < steps then [ Engine.Send (walk.(i + 1), i + 1) ] else []
    in
    complete @ forward
  in
  {
    Engine.name = "token-sweep";
    initial_state = (fun _ -> ());
    on_start =
      (fun ~node s ->
        if node = Tree.root tree then (s, actions_at node 0) else (s, []));
    on_receive = (fun ~round:_ ~node ~src:_ i s -> (s, actions_at node i));
    on_wake = Engine.no_wake;
  }

let prepare ~tree ~requests name =
  let n = Tree.n tree in
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg (name ^ ": request out of range");
      if requesting.(v) then invalid_arg (name ^ ": duplicate request node");
      requesting.(v) <- true)
    requests;
  make_protocol ~tree ~requesting

type checker_state = unit
type checker_msg = int

let one_shot_protocol ~tree ~requests () =
  prepare ~tree ~requests "Sweep.one_shot_protocol"

(* [name] prefixes the messages of rejected requests. *)
let instance ?(config = Engine.default_config) ~tree ~requests name =
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config;
    protocol = prepare ~tree ~requests name;
    spec = Counts.spec ~requests;
    (* The token serves every operation at once, so no message maps to
       a single op: spans carry injection and completion only. *)
    op_of_msg = (fun (_ : int) -> None);
  }

let one_shot ?config ~tree ~requests () =
  instance ?config ~tree ~requests "Sweep.one_shot"

let run ?config ~tree ~requests () =
  Counts.of_engine ~requests
    (Countq_simnet.Oneshot.run (instance ?config ~tree ~requests "Sweep.run"))
