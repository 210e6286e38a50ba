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

let check_edge n u v =
  if u = v || u < 0 || v < 0 || u >= n || v >= n then raise (Invalid_edge (u, v))

(* The sorted, duplicate-free rows of the graph whose arc lists are
   [raw]: row [a] is every [b] with [a] in [raw.(b)]. Each [b] is
   appended to its neighbours' rows in ascending order, so a row comes
   out sorted with any repeat next to its first copy ([last.(a)] is the
   newest entry of row [a]). The first pass checks every arc and sizes
   the rows, the second fills them: O(n + m), no sort. *)
let sorted_rows nv (raw : int array array) =
  let last = Array.make nv (-1) and len = Array.make nv 0 in
  for b = 0 to nv - 1 do
    let r = raw.(b) in
    for i = 0 to Array.length r - 1 do
      let a = r.(i) in
      check_edge nv b a;
      if last.(a) <> b then begin
        last.(a) <- b;
        len.(a) <- len.(a) + 1
      end
    done
  done;
  let rows = Array.map (fun k -> Array.make k 0) len in
  Array.fill last 0 nv (-1);
  Array.fill len 0 nv 0;
  for b = 0 to nv - 1 do
    let r = raw.(b) in
    for i = 0 to Array.length r - 1 do
      let a = r.(i) in
      if last.(a) <> b then begin
        last.(a) <- b;
        rows.(a).(len.(a)) <- b;
        len.(a) <- len.(a) + 1
      end
    done
  done;
  rows

let of_rows nv adj =
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n = nv; m; adj }

let create ~n:nv edges =
  if nv < 1 then invalid_arg "Graph.create: n must be >= 1";
  List.iter (fun (u, v) -> check_edge nv u v) edges;
  let deg = Array.make nv 0 in
  let count (u, v) =
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  in
  List.iter count edges;
  let raw = Array.map (fun k -> Array.make k 0) deg in
  let put u v =
    deg.(u) <- deg.(u) - 1;
    raw.(u).(deg.(u)) <- v
  in
  List.iter
    (fun (u, v) ->
      put u v;
      put v u)
    edges;
  of_rows nv (sorted_rows nv raw)

let of_adjacency adj =
  let nv = Array.length adj in
  if nv < 1 then invalid_arg "Graph.of_adjacency: empty adjacency";
  let rows = sorted_rows nv adj in
  (* [rows.(u)] holds every vertex that lists [u], so each listed
     (u, v) has its (v, u) iff [v] is in [rows.(u)]; then every row is
     its input row sorted and deduplicated. *)
  let mark = Array.make nv (-1) in
  for u = 0 to nv - 1 do
    let row = rows.(u) and listed = adj.(u) in
    for i = 0 to Array.length row - 1 do
      mark.(row.(i)) <- u
    done;
    for i = 0 to Array.length listed - 1 do
      if mark.(listed.(i)) <> u then raise (Invalid_edge (u, listed.(i)))
    done
  done;
  of_rows nv rows

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
