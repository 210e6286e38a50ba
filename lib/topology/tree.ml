(* Rooted trees with binary-lifting LCA and preorder intervals. See
   tree.mli. *)

type t = {
  n : int;
  root : int;
  parent : int array;
  children : int array array;
  depth : int array;
  up : int array array; (* up.(k).(v) = 2^k-th ancestor of v (clamped at root) *)
  order : int array; (* preorder *)
  tin : int array; (* tin.(v) = position of v in order *)
  size : int array; (* subtree sizes *)
}

let n t = t.n
let root t = t.root
let parent t v = t.parent.(v)
let children t v = t.children.(v)
let depth t v = t.depth.(v)

let of_parents ~root parent =
  let n = Array.length parent in
  if n = 0 then invalid_arg "Tree.of_parents: empty";
  if root < 0 || root >= n then invalid_arg "Tree.of_parents: bad root";
  if parent.(root) <> root then
    invalid_arg "Tree.of_parents: parent.(root) must be root";
  Array.iteri
    (fun v p ->
      if p < 0 || p >= n then invalid_arg "Tree.of_parents: parent out of range";
      if p = v && v <> root then invalid_arg "Tree.of_parents: multiple roots")
    parent;
  let parent = Array.copy parent in
  let child_count = Array.make n 0 in
  Array.iteri
    (fun v p -> if v <> root then child_count.(p) <- child_count.(p) + 1)
    parent;
  let children = Array.init n (fun v -> Array.make child_count.(v) (-1)) in
  let fill = Array.make n 0 in
  (* v ascends, so every row of [children] comes out sorted. *)
  for v = 0 to n - 1 do
    if v <> root then begin
      let p = parent.(v) in
      children.(p).(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1
    end
  done;
  (* Preorder and depths, iteratively (trees can be deep lists). Every
     vertex but the root has another vertex as its parent, so a vertex
     the walk from the root misses lies on a cycle. A vertex is pushed
     at most once, by its parent, so the stack needs n cells. *)
  let order = Array.make n 0 and depth = Array.make n 0 in
  let stack = Array.make n root and top = ref 1 and idx = ref 0 in
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    order.(!idx) <- v;
    incr idx;
    let cs = children.(v) in
    for i = Array.length cs - 1 downto 0 do
      depth.(cs.(i)) <- depth.(v) + 1;
      stack.(!top) <- cs.(i);
      incr top
    done
  done;
  if !idx <> n then invalid_arg "Tree.of_parents: cycle in parent array";
  let tin = Array.make n 0 and size = Array.make n 1 in
  Array.iteri (fun i v -> tin.(v) <- i) order;
  (* Children before parents; order.(0) is the root. *)
  for i = n - 1 downto 1 do
    let v = order.(i) in
    size.(parent.(v)) <- size.(parent.(v)) + size.(v)
  done;
  (* Binary-lifting ancestor table; row 0 is [parent] itself. *)
  let levels =
    let rec count k acc = if acc >= n then k else count (k + 1) (acc * 2) in
    max 1 (count 0 1)
  in
  let up = Array.make levels parent in
  for k = 1 to levels - 1 do
    let half = up.(k - 1) in
    up.(k) <- Array.map (fun a -> half.(a)) half
  done;
  { n; root; parent; children; depth; up; order; tin; size }

let of_graph g ~root =
  let n = Graph.n g in
  if Graph.m g <> n - 1 then invalid_arg "Tree.of_graph: not a tree (m <> n-1)";
  if not (Graph.is_connected g) then invalid_arg "Tree.of_graph: disconnected";
  of_parents ~root (Bfs.parents g root)

let height t = Array.fold_left max 0 t.depth

let degree t v =
  let c = Array.length t.children.(v) in
  if v = t.root then c else c + 1

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    best := max !best (degree t v)
  done;
  !best

let ancestor t v k =
  (* k-th ancestor of v, clamped at the root. *)
  let v = ref v and k = ref k and bit = ref 0 in
  while !k > 0 && !bit < Array.length t.up do
    if !k land 1 = 1 then v := t.up.(!bit).(!v);
    k := !k asr 1;
    incr bit
  done;
  !v

let lca t u v =
  let u, v =
    if t.depth.(u) >= t.depth.(v) then (u, v) else (v, u)
  in
  let u = ancestor t u (t.depth.(u) - t.depth.(v)) in
  if u = v then u
  else begin
    let u = ref u and v = ref v in
    for k = Array.length t.up - 1 downto 0 do
      if t.up.(k).(!u) <> t.up.(k).(!v) then begin
        u := t.up.(k).(!u);
        v := t.up.(k).(!v)
      end
    done;
    t.parent.(!u)
  end

let dist t u v =
  let a = lca t u v in
  t.depth.(u) + t.depth.(v) - (2 * t.depth.(a))

let is_leaf t v = Array.length t.children.(v) = 0

let leaves t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if is_leaf t v then acc := v :: !acc
  done;
  !acc

let subtree_size t v = t.size.(v)
let dfs_order t = Array.copy t.order

let path t u v =
  let a = lca t u v in
  let rec up_to acc x = if x = a then List.rev (a :: acc) else up_to (x :: acc) t.parent.(x) in
  let from_u = up_to [] u in
  let rec down acc x = if x = a then acc else down (x :: acc) t.parent.(x) in
  from_u @ down [] v

(* The last of the children [cs.(lo) .. cs.(hi - 1)] whose preorder
   position is at most [x], given that [cs.(lo)]'s is. *)
let rec last_at_or_before tin cs x lo hi =
  if hi - lo <= 1 then cs.(lo)
  else
    let mid = (lo + hi) / 2 in
    if tin.(cs.(mid)) <= x then last_at_or_before tin cs x mid hi
    else last_at_or_before tin cs x lo mid

(* v's subtree is the preorder interval [tin v, tin v + size v), and
   preorder visits v's children in their sorted order, so their [tin]
   ascend along [children v]: dst lies below the last child whose [tin]
   does not exceed dst's. *)
let next_hop t v dst =
  let x = t.tin.(dst) and lo = t.tin.(v) in
  if x = lo then v
  else if x < lo || x >= lo + t.size.(v) then t.parent.(v)
  else
    let cs = t.children.(v) in
    last_at_or_before t.tin cs x 0 (Array.length cs)

let to_graph t =
  let edges = ref [] in
  for v = 0 to t.n - 1 do
    if v <> t.root then edges := (v, t.parent.(v)) :: !edges
  done;
  Graph.create ~n:t.n !edges

let pp ppf t =
  Format.fprintf ppf "tree(n=%d, root=%d, height=%d)" t.n t.root (height t)
