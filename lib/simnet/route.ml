(* Next-hop routing schemes. See route.mli. *)

module Graph = Countq_topology.Graph
module Tree = Countq_topology.Tree
module Hop_table = Countq_topology.Hop_table

type t = {
  next : int -> int -> int;
  dist : int -> int -> int option;
}

let next_hop r v dst = r.next v dst
let distance_hint r u v = r.dist u v

let of_tree tree =
  {
    next = (fun v dst -> Tree.next_hop tree v dst);
    dist = (fun u v -> Some (Tree.dist tree u v));
  }

let of_table g =
  if not (Graph.is_connected g) then
    invalid_arg "Route.of_table: disconnected graph";
  let hops = Hop_table.create g in
  let dist u v =
    let row = Hop_table.row hops v in
    let rec walk x d = if x = v then d else walk row.(x) (d + 1) in
    Some (walk u 0)
  in
  { next = (fun v dst -> Hop_table.next hops ~src:v ~dst); dist }

let complete =
  { next = (fun _v dst -> dst); dist = (fun u v -> Some (if u = v then 0 else 1)) }

let direct g =
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.has_edge g u v) then
        invalid_arg "Route.direct: graph is not complete"
    done
  done;
  complete

let of_fun next = { next; dist = (fun _ _ -> None) }

(* Builds the route the first time a hop or hint is asked for, as the
   table builds its rows. Routes are shared between domains, so the
   cache is an [Atomic]: domains that race each build an equal route
   and one of them is kept. *)
let on_first_use make =
  let cell = Atomic.make None in
  let get () =
    match Atomic.get cell with
    | Some r -> r
    | None ->
        let r = make () in
        Atomic.set cell (Some r);
        r
  in
  { next = (fun v dst -> (get ()).next v dst); dist = (fun u v -> (get ()).dist u v) }

let auto g =
  let n = Graph.n g and m = Graph.m g in
  if m = n * (n - 1) / 2 then complete
  else if m = n - 1 && Graph.is_connected g then
    on_first_use (fun () -> of_tree (Tree.of_graph g ~root:0))
  else of_table g
