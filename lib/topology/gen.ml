(* Topology generators. See gen.mli. *)

module Rng = Countq_util.Rng

let complete n =
  if n < 1 then invalid_arg "Gen.complete: n must be >= 1";
  (* Row u is 0 .. n-1 without u. A loop, not [Array.init]: K_1024 has
     a million entries. *)
  let row u =
    let r = Array.make (n - 1) 0 in
    for i = 0 to n - 2 do
      r.(i) <- (if i < u then i else i + 1)
    done;
    r
  in
  Graph.of_adjacency (Array.init n row)

let path n =
  if n < 1 then invalid_arg "Gen.path: n must be >= 1";
  let edges = List.init (max 0 (n - 1)) (fun i -> (i, i + 1)) in
  Graph.create ~n edges

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  let edges = (0, n - 1) :: List.init (n - 1) (fun i -> (i, i + 1)) in
  Graph.create ~n edges

let star n =
  if n < 2 then invalid_arg "Gen.star: n must be >= 2";
  Graph.create ~n (List.init (n - 1) (fun i -> (0, i + 1)))

(* Row-major mixed-radix coordinates for meshes and tori. *)
let strides dims =
  let k = List.length dims in
  let arr = Array.of_list dims in
  let s = Array.make k 1 in
  for i = k - 2 downto 0 do
    s.(i) <- s.(i + 1) * arr.(i + 1)
  done;
  (arr, s)

let mesh_like ~wrap ~dims =
  if dims = [] then invalid_arg "Gen.mesh: empty dimension list";
  List.iter (fun d -> if d < 1 then invalid_arg "Gen.mesh: side must be >= 1") dims;
  let sides, stride = strides dims in
  let k = Array.length sides in
  let n = Array.fold_left ( * ) 1 sides in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for i = 0 to k - 1 do
      let coord = v / stride.(i) mod sides.(i) in
      if coord + 1 < sides.(i) then edges := (v, v + stride.(i)) :: !edges
      else if wrap && sides.(i) > 2 then
        (* wrap edge back to coordinate 0 along dimension i *)
        edges := (v, v - (coord * stride.(i))) :: !edges
    done
  done;
  Graph.create ~n !edges

let mesh ~dims = mesh_like ~wrap:false ~dims
let torus ~dims = mesh_like ~wrap:true ~dims
let square_mesh s = mesh ~dims:[ s; s ]

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: d must be >= 1";
  if d > 24 then invalid_arg "Gen.hypercube: d too large";
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if v < u then edges := (v, u) :: !edges
    done
  done;
  Graph.create ~n !edges

let perfect_tree_root = 0

let perfect_tree_size ~arity ~height =
  if arity < 1 || height < 0 then
    invalid_arg "Gen.perfect_tree_size: bad arity/height";
  if arity = 1 then height + 1
  else begin
    let rec total acc level count =
      if level > height then acc else total (acc + count) (level + 1) (count * arity)
    in
    total 0 0 1
  end

(* BFS numbering: children of vertex v are v*arity + 1 ... v*arity + arity. *)
let balanced_tree_on ~arity n =
  if arity < 1 then invalid_arg "Gen.balanced_tree_on: arity must be >= 1";
  if n < 1 then invalid_arg "Gen.balanced_tree_on: n must be >= 1";
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, (v - 1) / arity) :: !edges
  done;
  Graph.create ~n !edges

let perfect_tree ~arity ~height =
  balanced_tree_on ~arity (perfect_tree_size ~arity ~height)

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Gen.caterpillar: bad parameters";
  let n = spine * (1 + legs) in
  let edges = ref [] in
  for i = 0 to spine - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for i = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      edges := (i, spine + (i * legs) + l) :: !edges
    done
  done;
  Graph.create ~n !edges

let random_tree rng n =
  if n < 1 then invalid_arg "Gen.random_tree: n must be >= 1";
  if n = 1 then Graph.create ~n []
  else if n = 2 then Graph.create ~n [ (0, 1) ]
  else begin
    (* Decode a uniformly random Prüfer sequence of length n-2. *)
    let prufer = Array.init (n - 2) (fun _ -> Rng.below rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) prufer;
    let module H = Set.Make (Int) in
    let leaves = ref H.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := H.add v !leaves
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = H.min_elt !leaves in
        leaves := H.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := H.add v !leaves)
      prufer;
    (match H.elements !leaves with
    | [ a; b ] -> edges := (a, b) :: !edges
    | _ -> assert false);
    Graph.create ~n !edges
  end

let random_binary_tree rng n =
  if n < 1 then invalid_arg "Gen.random_binary_tree: n must be >= 1";
  let deg = Array.make n 0 in
  let available = ref [ 0 ] in
  let edges = ref [] in
  for v = 1 to n - 1 do
    let avail = Array.of_list !available in
    let u = avail.(Rng.below rng (Array.length avail)) in
    edges := (u, v) :: !edges;
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1;
    available :=
      List.filter (fun w -> deg.(w) < 3) (v :: !available)
  done;
  Graph.create ~n !edges

let erdos_renyi rng ~n ~p =
  if n < 1 then invalid_arg "Gen.erdos_renyi: n must be >= 1";
  if p < 0. || p > 1. then invalid_arg "Gen.erdos_renyi: p out of range";
  if n > 1 && p *. float_of_int (n - 1) < 0.5 then
    invalid_arg "Gen.erdos_renyi: p too small for connectivity";
  let rec attempt k =
    if k = 0 then
      invalid_arg "Gen.erdos_renyi: failed to draw a connected graph"
    else begin
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.float rng < p then edges := (u, v) :: !edges
        done
      done;
      let g = Graph.create ~n !edges in
      if Graph.is_connected g then g else attempt (k - 1)
    end
  in
  attempt 1000

let de_bruijn d =
  if d < 1 || d > 24 then invalid_arg "Gen.de_bruijn: bad dimension";
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    let s0 = 2 * v mod n and s1 = ((2 * v) + 1) mod n in
    if s0 <> v then edges := (v, s0) :: !edges;
    if s1 <> v then edges := (v, s1) :: !edges
  done;
  Graph.create ~n !edges

let cube_connected_cycles d =
  if d < 3 then invalid_arg "Gen.cube_connected_cycles: d must be >= 3";
  if d > 20 then invalid_arg "Gen.cube_connected_cycles: d too large";
  let cube = 1 lsl d in
  let n = d * cube in
  (* vertex (w, i) with w in [0, 2^d) and cycle position i in [0, d). *)
  let id w i = (w * d) + i in
  let edges = ref [] in
  for w = 0 to cube - 1 do
    for i = 0 to d - 1 do
      (* cycle edge to (w, i+1) *)
      edges := (id w i, id w ((i + 1) mod d)) :: !edges;
      (* hypercube edge across dimension i *)
      let w' = w lxor (1 lsl i) in
      if w < w' then edges := (id w i, id w' i) :: !edges
    done
  done;
  Graph.create ~n !edges

let butterfly d =
  if d < 1 || d > 20 then invalid_arg "Gen.butterfly: bad dimension";
  let cols = 1 lsl d in
  let n = (d + 1) * cols in
  let id level w = (level * cols) + w in
  let edges = ref [] in
  for level = 0 to d - 1 do
    for w = 0 to cols - 1 do
      edges := (id level w, id (level + 1) w) :: !edges;
      edges := (id level w, id (level + 1) (w lxor (1 lsl level))) :: !edges
    done
  done;
  Graph.create ~n !edges

let random_regular rng ~n ~degree =
  if degree < 2 then invalid_arg "Gen.random_regular: degree must be >= 2";
  if n <= degree then invalid_arg "Gen.random_regular: need n > degree";
  if n * degree mod 2 <> 0 then
    invalid_arg "Gen.random_regular: n * degree must be even";
  (* Configuration model with rejection: pair up half-edge stubs
     uniformly; retry on self loops, multi-edges or disconnection. *)
  let attempt () =
    let stubs = Array.make (n * degree) 0 in
    for v = 0 to n - 1 do
      for j = 0 to degree - 1 do
        stubs.((v * degree) + j) <- v
      done
    done;
    Rng.shuffle rng stubs;
    let edges = ref [] in
    let ok = ref true in
    let seen = Hashtbl.create (n * degree) in
    let half = Array.length stubs / 2 in
    for p = 0 to half - 1 do
      let u = stubs.(2 * p) and v = stubs.((2 * p) + 1) in
      if u = v || Hashtbl.mem seen (min u v, max u v) then ok := false
      else begin
        Hashtbl.replace seen (min u v, max u v) ();
        edges := (u, v) :: !edges
      end
    done;
    if not !ok then None
    else begin
      let g = Graph.create ~n !edges in
      if Graph.is_connected g then Some g else None
    end
  in
  let rec retry k =
    if k = 0 then
      invalid_arg "Gen.random_regular: failed to draw a simple connected graph"
    else match attempt () with Some g -> g | None -> retry (k - 1)
  in
  retry 5000

let lollipop ~clique ~tail =
  if clique < 1 || tail < 0 then invalid_arg "Gen.lollipop: bad parameters";
  let n = clique + tail in
  let edges = ref [] in
  for u = 0 to clique - 1 do
    for v = u + 1 to clique - 1 do
      edges := (u, v) :: !edges
    done
  done;
  if tail > 0 then begin
    edges := (clique - 1, clique) :: !edges;
    for i = clique to n - 2 do
      edges := (i, i + 1) :: !edges
    done
  end;
  Graph.create ~n !edges
