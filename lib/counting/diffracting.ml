(* Diffracting-tree counter. See diffracting.mli. *)

module Engine = Countq_simnet.Engine
module Tree = Countq_topology.Tree

type msg =
  | Up of int  (** token climbing to the root; payload = origin. *)
  | Down of { origin : int; offset : int; stride : int }
      (** token descending through the balancers. *)
  | Back of { origin : int; count : int }
      (** assigned count returning to the origin. *)

type state = {
  toggle : int;  (** next child index at a balancer. *)
  exits : int;  (** tokens already emitted at a leaf. *)
}

let make_protocol ~tree ~requesting =
  let root = Tree.root tree in
  (* Route one descending token through node [v]: a balancer forwards
     it to the toggle's child with the (offset, stride) refined for
     that child's lane; a leaf assigns the count. The invariant is the
     balancer step property generalised to mixed degrees: a node
     entered with stride [s] by [b] tokens hands out exactly
     {offset_v + k*s + 1 : 0 <= k < b} across its subtree, so the root
     (offset 0, stride 1, |R| tokens) hands out exactly {1..|R|}. *)
  let descend v st (origin, offset, stride) =
    let kids = Tree.children tree v in
    let d = Array.length kids in
    if d = 0 then begin
      let count = offset + (st.exits * stride) + 1 in
      let st = { st with exits = st.exits + 1 } in
      if origin = v then (st, [ Engine.Complete (origin, count) ])
      else
        ( st,
          [ Engine.Send (Tree.next_hop tree v origin, Back { origin; count }) ]
        )
    end
    else begin
      let j = st.toggle in
      let st = { st with toggle = (j + 1) mod d } in
      ( st,
        [
          Engine.Send
            ( kids.(j),
              Down
                { origin; offset = offset + (j * stride); stride = stride * d }
            );
        ] )
    end
  in
  let launch v st =
    if v = root then descend v st (v, 0, 1)
    else (st, [ Engine.Send (Tree.parent tree v, Up v) ])
  in
  {
    Engine.name = "diffracting-tree";
    initial_state = (fun _ -> { toggle = 0; exits = 0 });
    on_start = (fun ~node s -> if requesting.(node) then launch node s else (s, []));
    on_receive =
      (fun ~round:_ ~node ~src:_ msg s ->
        match msg with
        | Up origin ->
            if node = root then descend node s (origin, 0, 1)
            else (s, [ Engine.Send (Tree.parent tree node, Up origin) ])
        | Down { origin; offset; stride } -> descend node s (origin, offset, stride)
        | Back { origin; count } ->
            if node = origin then (s, [ Engine.Complete (origin, count) ])
            else
              ( s,
                [
                  Engine.Send
                    (Tree.next_hop tree node origin, Back { origin; count });
                ] ));
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
  prepare ~tree ~requests "Diffracting.one_shot_protocol"

(* [name] prefixes the messages of rejected requests. *)
let instance ?config ?width ~tree ~requests name =
  {
    Countq_simnet.Oneshot.graph = Tree.to_graph tree;
    config =
      (match (config, width) with
      | Some c, _ -> c
      | None, Some w ->
          (* An adaptively chosen diffraction width: the expanded step
             is the balancer fan-in we are willing to pay for, not
             whatever degree the spanning tree happened to have. *)
          Engine.config_with_capacity (max 1 (min (Tree.max_degree tree) w))
      | None, None -> Engine.config_with_capacity (max 1 (Tree.max_degree tree)));
    protocol = prepare ~tree ~requests name;
    spec = Counts.spec ~requests;
    op_of_msg =
      (function
      | Up origin | Down { origin; _ } | Back { origin; _ } -> Some origin);
  }

let one_shot ?config ?width ~tree ~requests () =
  instance ?config ?width ~tree ~requests "Diffracting.one_shot"

let run ?config ?width ~tree ~requests () =
  Counts.of_engine ~requests
    (Countq_simnet.Oneshot.run
       (instance ?config ?width ~tree ~requests "Diffracting.run"))
