(* Combining-tree counter. See combining.mli. *)

module Engine = Countq_simnet.Engine
module Tree = Countq_topology.Tree

type msg =
  | Report of int  (** number of requests in the sender's subtree. *)
  | Range of int  (** first rank available to the receiver's subtree. *)

type state = {
  own : bool;
  pending : int;  (** children yet to report. *)
  reported : (int * int) list;  (** (child, subtree count). *)
}

let make_protocol ~tree ~requesting =
  let root = Tree.root tree in
  let own_count v = if requesting.(v) then 1 else 0 in
  (* Rank layout within a subtree rooted at [v] that was granted ranks
     starting at [base]: v's own operation first, then each child's
     subtree in increasing child order. *)
  let downsweep v s base =
    let complete_own =
      if s.own then [ Engine.Complete (v, base) ] else []
    in
    let base = ref (base + own_count v) in
    let by_child = List.sort compare s.reported in
    let sends =
      List.filter_map
        (fun (child, cnt) ->
          if cnt = 0 then None
          else begin
            let b = !base in
            base := b + cnt;
            Some (Engine.Send (child, Range b))
          end)
        by_child
    in
    (s, complete_own @ sends)
  in
  let subtree_sum v s =
    own_count v + List.fold_left (fun acc (_, c) -> acc + c) 0 s.reported
  in
  let finish_upsweep v s =
    if v = root then
      if subtree_sum v s = 0 then (s, []) else downsweep v s 1
    else (s, [ Engine.Send (Tree.parent tree v, Report (subtree_sum v s)) ])
  in
  {
    Engine.name = "combining-tree";
    initial_state =
      (fun v ->
        {
          own = requesting.(v);
          pending = Array.length (Tree.children tree v);
          reported = [];
        });
    on_start =
      (fun ~node s -> if s.pending = 0 then finish_upsweep node s else (s, []));
    on_receive =
      (fun ~round:_ ~node ~src msg s ->
        match msg with
        | Report c ->
            let s =
              { s with pending = s.pending - 1; reported = (src, c) :: s.reported }
            in
            if s.pending = 0 then finish_upsweep node s else (s, [])
        | Range base -> downsweep node s base);
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

type checker_state = state
type checker_msg = msg

let one_shot_protocol ~tree ~requests () =
  prepare ~tree ~requests "Combining.one_shot_protocol"

(* [name] prefixes the messages of rejected requests. *)
let instance ?config ~tree ~requests name =
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config =
      (match config with
      | Some c -> c
      | None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree)));
    protocol = prepare ~tree ~requests name;
    spec = Counts.spec ~requests;
    (* Reports combine whole subtrees: no message serves a single op. *)
    op_of_msg = (fun _ -> None);
  }

let one_shot ?config ~tree ~requests () =
  instance ?config ~tree ~requests "Combining.one_shot"

let run ?config ~tree ~requests () =
  Counts.of_engine ~requests
    (Countq_simnet.Oneshot.run (instance ?config ~tree ~requests "Combining.run"))
