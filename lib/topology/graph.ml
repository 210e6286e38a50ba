(* Immutable undirected graphs over [0 .. n-1], stored as sorted
   adjacency arrays. See graph.mli for the public documentation. *)

type t = {
  n : int;
  m : int;
  adj : int array array;
}

exception Invalid_edge of int * int

let n g = g.n
let m g = g.m

let check_edge n (u, v) =
  if u = v || u < 0 || v < 0 || u >= n || v >= n then raise (Invalid_edge (u, v))

(* Sorts and removes duplicates in place; returns a fresh array. The
   annotation makes [compare] and [<>] the int primitives. *)
let sorted_dedup (a : int array) =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to k - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

let create ~n:nv edges =
  if nv < 1 then invalid_arg "Graph.create: n must be >= 1";
  List.iter (check_edge nv) edges;
  let deg = Array.make nv 0 in
  let count (u, v) =
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  in
  List.iter count edges;
  let adj = Array.init nv (fun v -> Array.make deg.(v) (-1)) in
  let fill = Array.make nv 0 in
  let put u v =
    adj.(u).(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1
  in
  List.iter
    (fun (u, v) ->
      put u v;
      put v u)
    edges;
  let adj = Array.map sorted_dedup adj in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n = nv; m; adj }

let of_adjacency adj =
  let nv = Array.length adj in
  if nv < 1 then invalid_arg "Graph.of_adjacency: empty adjacency";
  let edges = ref [] in
  Array.iteri
    (fun u nbrs ->
      Array.iter
        (fun v ->
          check_edge nv (u, v);
          if u < v then edges := (u, v) :: !edges)
        nbrs)
    adj;
  let g = create ~n:nv !edges in
  (* Symmetry check: every (u, v) listed must also appear as (v, u). *)
  Array.iteri
    (fun u nbrs ->
      Array.iter
        (fun v ->
          let back = Array.exists (fun w -> w = u) adj.(v) in
          if not back then raise (Invalid_edge (u, v)))
        nbrs)
    adj;
  g

let neighbors g v = g.adj.(v)
let degree g v = Array.length g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let has_edge g u v =
  let a = g.adj.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let a = g.adj.(u) in
    for i = Array.length a - 1 downto 0 do
      if u < a.(i) then acc := (u, a.(i)) :: !acc
    done
  done;
  List.sort compare !acc

let iter_neighbors g v f = Array.iter f g.adj.(v)

let fold_vertices g ~init ~f =
  let acc = ref init in
  for v = 0 to g.n - 1 do
    acc := f !acc v
  done;
  !acc

let is_connected g =
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  Queue.push 0 queue;
  seen.(0) <- true;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          incr count;
          Queue.push v queue
        end)
      g.adj.(u)
  done;
  !count = g.n

let equal g1 g2 =
  g1.n = g2.n && g1.m = g2.m
  && Array.for_all2 (fun a b -> a = b) g1.adj g2.adj

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d)" g.n g.m

let pp_full ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" g.n g.m;
  Array.iteri
    (fun v nbrs ->
      Format.fprintf ppf "@,%4d ->" v;
      Array.iter (fun w -> Format.fprintf ppf " %d" w) nbrs)
    g.adj;
  Format.fprintf ppf "@]"
