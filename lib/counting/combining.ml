(* Combining-tree counter. See combining.mli. *)

module Engine = Countq_simnet.Engine
module Tree = Countq_topology.Tree

type msg =
  | Report of int
      (** the sum of the increments in the sender's subtree, or [-1]
          when it holds no requester. *)
  | Range of int  (** the running sum before the receiver's subtree. *)

type state = {
  own : bool;
  pending : int;  (** children yet to report. *)
  reported : (int * int) list;  (** (child, subtree report). *)
}

let make_protocol name ~tree ~requests ~increment =
  let requesting = Engine.requesting ~name ~n:(Tree.n tree) requests in
  let root = Tree.root tree in
  (* Sum layout within a subtree rooted at [v] that was granted the
     running sum [base]: v's own operation first, then each child's
     subtree in increasing child order. Subtrees without a requester
     get nothing. *)
  let downsweep v s base =
    let own = if s.own then increment v else 0 in
    let complete_own = if s.own then [ Engine.Complete (v, base + own) ] else [] in
    let base = ref (base + own) in
    let by_child = List.sort compare s.reported in
    let sends =
      List.filter_map
        (fun (child, sum) ->
          if sum < 0 then None
          else begin
            let b = !base in
            base := b + sum;
            Some (Engine.Send (child, Range b))
          end)
        by_child
    in
    (s, complete_own @ sends)
  in
  (* What [v] reports: its subtree's sum, or -1 without a requester. *)
  let report v s =
    List.fold_left
      (fun acc (_, c) -> if c < 0 then acc else (if acc < 0 then 0 else acc) + c)
      (if s.own then increment v else -1)
      s.reported
  in
  let finish_upsweep v s =
    if v = root then if report v s < 0 then (s, []) else downsweep v s 0
    else (s, [ Engine.Send (Tree.parent tree v, Report (report v s)) ])
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

type checker_state = state
type checker_msg = msg

let machine ~tree ~requests ~increment =
  make_protocol "Combining.machine" ~tree ~requests ~increment

let one_shot_protocol ~tree ~requests () =
  make_protocol "Combining.one_shot_protocol" ~tree ~requests ~increment:(fun _ -> 1)

let one_shot ?config ~tree ~requests () =
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config =
      (match config with
      | Some c -> c
      | None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree)));
    protocol = make_protocol "Combining.one_shot" ~tree ~requests ~increment:(fun _ -> 1);
    spec = Counts.spec ~requests;
    (* Reports combine whole subtrees: no message serves a single op. *)
    op_of_msg = (fun _ -> None);
  }
