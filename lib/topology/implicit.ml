(* Implicit topology families. See implicit.mli. *)

type family =
  | List of int
  | Ring of int
  | Grid of {
      wrap : bool;
      sides : int array;
      stride : int array;  (* row-major, like Gen.strides *)
      total : int;
    }
  | Tree of { arity : int; total : int }
  | Materialised of { g : Graph.t; hops : Hop_table.t }

type t = { label : string; fam : family }

let label t = t.label

let n t =
  match t.fam with
  | List n | Ring n -> n
  | Grid { total; _ } | Tree { total; _ } -> total
  | Materialised { g; _ } -> Graph.n g

(* ------------------------------------------------------------------ *)
(* Constructors.                                                       *)

let list n =
  if n < 1 then invalid_arg "Implicit.list: n must be >= 1";
  { label = Printf.sprintf "list-%d" n; fam = List n }

let ring n =
  if n < 3 then invalid_arg "Implicit.ring: n must be >= 3";
  { label = Printf.sprintf "ring-%d" n; fam = Ring n }

let grid ~wrap ~dims =
  if dims = [] then invalid_arg "Implicit.mesh: empty dimension list";
  List.iter
    (fun d -> if d < 1 then invalid_arg "Implicit.mesh: side must be >= 1")
    dims;
  let sides = Array.of_list dims in
  let k = Array.length sides in
  let stride = Array.make k 1 in
  for i = k - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * sides.(i + 1)
  done;
  let total = Array.fold_left ( * ) 1 sides in
  let name = if wrap then "torus" else "mesh" in
  let dims_label = String.concat "x" (List.map string_of_int dims) in
  {
    label = Printf.sprintf "%s-%s" name dims_label;
    fam = Grid { wrap; sides; stride; total };
  }

let mesh ~dims = grid ~wrap:false ~dims
let torus ~dims = grid ~wrap:true ~dims

let tree ?(arity = 2) n =
  if arity < 1 then invalid_arg "Implicit.tree: arity must be >= 1";
  if n < 1 then invalid_arg "Implicit.tree: n must be >= 1";
  { label = Printf.sprintf "tree-%d-%d" arity n; fam = Tree { arity; total = n } }

let tree_arity t =
  match t.fam with Tree { arity; _ } -> Some arity | _ -> None

let of_graph ?label g =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "graph-%d" (Graph.n g)
  in
  { label; fam = Materialised { g; hops = Hop_table.create g } }

(* ------------------------------------------------------------------ *)
(* Neighbourhoods. Each family lists a vertex's neighbours in ascending
   order, matching the sorted adjacency its Gen twin materialises.     *)

let check_vertex who total v =
  if v < 0 || v >= total then
    invalid_arg (Printf.sprintf "Implicit.%s: vertex %d out of range" who v)

(* Insert [u] into the sorted prefix [a.(0 .. len - 1)] unless it is
   already there; returns the new length. *)
let insert_sorted a len u =
  let i = ref len in
  while !i > 0 && a.(!i - 1) > u do
    decr i
  done;
  if !i > 0 && a.(!i - 1) = u then len
  else begin
    Array.blit a !i a (!i + 1) (len - !i);
    a.(!i) <- u;
    len + 1
  end

(* Insert [v]'s neighbours along grid dimension [i] into the sorted
   prefix [a.(0 .. len - 1)]; returns the new length. Mirrors
   Gen.mesh_like: wrap edges only on sides > 2 (a side-2 wrap would
   duplicate the existing edge). *)
let grid_dim_neighbors ~wrap ~sides ~stride v i a len =
  let side = sides.(i) and st = stride.(i) in
  let coord = v / st mod side in
  let len = if coord > 0 then insert_sorted a len (v - st) else len in
  let len =
    if wrap && side > 2 && coord = 0 then insert_sorted a len (v + ((side - 1) * st))
    else len
  in
  let len = if coord + 1 < side then insert_sorted a len (v + st) else len in
  if wrap && side > 2 && coord = side - 1 then insert_sorted a len (v - (coord * st))
  else len

let neighbors t v =
  match t.fam with
  | List n ->
      check_vertex "neighbors" n v;
      if n = 1 then [||]
      else if v = 0 then [| 1 |]
      else if v = n - 1 then [| n - 2 |]
      else [| v - 1; v + 1 |]
  | Ring n ->
      check_vertex "neighbors" n v;
      let a = (v + n - 1) mod n and b = (v + 1) mod n in
      if a < b then [| a; b |] else [| b; a |]
  | Grid { wrap; sides; stride; total } ->
      check_vertex "neighbors" total v;
      let a = Array.make (2 * Array.length sides) 0 in
      let len = ref 0 in
      for i = 0 to Array.length sides - 1 do
        len := grid_dim_neighbors ~wrap ~sides ~stride v i a !len
      done;
      if !len = Array.length a then a else Array.sub a 0 !len
  | Tree { arity; total } ->
      check_vertex "neighbors" total v;
      let first_child = (v * arity) + 1 in
      let last_child = min (total - 1) (v * arity + arity) in
      let kids = max 0 (last_child - first_child + 1) in
      if v = 0 then Array.init kids (fun i -> first_child + i)
      else
        Array.init (kids + 1) (fun i ->
            if i = 0 then (v - 1) / arity else first_child + i - 1)
  | Materialised { g; _ } ->
      check_vertex "neighbors" (Graph.n g) v;
      Array.copy (Graph.neighbors g v)

let degree t v =
  match t.fam with
  | List n ->
      check_vertex "degree" n v;
      if n = 1 then 0 else if v = 0 || v = n - 1 then 1 else 2
  | Ring n ->
      check_vertex "degree" n v;
      2
  | Grid { wrap; sides; stride; total } ->
      check_vertex "degree" total v;
      let d = ref 0 in
      for i = 0 to Array.length sides - 1 do
        let side = sides.(i) in
        let coord = v / stride.(i) mod side in
        if coord > 0 then incr d;
        if coord + 1 < side then incr d;
        if wrap && side > 2 && (coord = 0 || coord = side - 1) then incr d
      done;
      !d
  | Tree { arity; total } ->
      check_vertex "degree" total v;
      let first_child = (v * arity) + 1 in
      let last_child = min (total - 1) (v * arity + arity) in
      let kids = max 0 (last_child - first_child + 1) in
      if v = 0 then kids else kids + 1
  | Materialised { g; _ } -> Graph.degree g v

let max_degree t =
  match t.fam with
  | List n -> if n <= 1 then 0 else if n = 2 then 1 else 2
  | Ring _ -> 2
  | Grid { sides; _ } ->
      (* Per dimension: an interior (or any torus) vertex has 2 links on
         a side >= 3, side 2 gives a single link, side 1 none — the same
         count whether the extremal links are wraps or not. *)
      Array.fold_left
        (fun acc side ->
          acc + if side >= 3 then 2 else if side = 2 then 1 else 0)
        0 sides
  | Tree { total; _ } ->
      (* Degrees only shrink with the index past v = 1 (parents keep
         full broods longest near the root), so the maximum is at the
         root or its first child. *)
      if total = 1 then 0
      else max (degree t 0) (degree t 1)
  | Materialised { g; _ } -> Graph.max_degree g

let neighbor t v k =
  let a = neighbors t v in
  if k < 0 || k >= Array.length a then
    invalid_arg
      (Printf.sprintf "Implicit.neighbor: slot %d out of range for vertex %d" k v);
  a.(k)

(* ------------------------------------------------------------------ *)
(* Greedy shortest-path routing.                                       *)

let next_hop t ~src ~dst =
  let total = n t in
  check_vertex "next_hop" total src;
  check_vertex "next_hop" total dst;
  if src = dst then invalid_arg "Implicit.next_hop: src = dst";
  match t.fam with
  | List _ -> if dst > src then src + 1 else src - 1
  | Ring n ->
      let fwd = (dst - src + n) mod n in
      if 2 * fwd <= n then (src + 1) mod n else (src + n - 1) mod n
  | Grid { wrap; sides; stride; _ } ->
      (* Correct the lowest differing dimension; on a wrapped side go
         the shorter way round (ties to the positive direction). *)
      let k = Array.length sides in
      let i = ref 0 in
      while
        !i < k && src / stride.(!i) mod sides.(!i) = dst / stride.(!i) mod sides.(!i)
      do
        incr i
      done;
      if !i >= k then invalid_arg "Implicit.next_hop: src = dst";
      let side = sides.(!i) and st = stride.(!i) in
      let sc = src / st mod side and dc = dst / st mod side in
      if not (wrap && side > 2) then if dc > sc then src + st else src - st
      else
        let fwd = (dc - sc + side) mod side in
        if 2 * fwd <= side then if sc + 1 = side then src - (sc * st) else src + st
        else if sc = 0 then src + ((side - 1) * st)
        else src - st
  | Tree { arity; _ } ->
      (* BFS numbering means every ancestor has a smaller index: climb
         from [dst]; if the walk lands on [src], [dst] is in [src]'s
         subtree and the last step is the child to take, otherwise the
         route goes through [src]'s parent. *)
      let rec climb a prev = if a <= src then (a, prev) else climb ((a - 1) / arity) a in
      let a, prev = climb dst dst in
      if a = src then prev else (src - 1) / arity
  | Materialised { hops; _ } ->
      let hop = Hop_table.next hops ~src ~dst in
      if hop = src then
        invalid_arg
          (Printf.sprintf "Implicit.next_hop: %d unreachable from %d" dst src);
      hop

(* ------------------------------------------------------------------ *)
(* Materialisation and parsing.                                        *)

let materialise t =
  match t.fam with
  | Materialised { g; _ } -> g
  | _ -> Graph.of_adjacency (Array.init (n t) (neighbors t))

let err fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt

(* Ceiling on parsed node counts. Implicit families themselves are
   O(1) memory at any size, but everything downstream of a spec — the
   sharded engine's dense state, partitions, load calendars — sizes
   something O(n), so a spec like [torus:100000x100000x100000] (10^15
   nodes) must be refused here with a real message instead of failing
   much later with a confusing allocation error. The product is folded
   with an overflow guard so it cannot wrap on the way to the check. *)
let max_spec_nodes = 1 lsl 30

let dims_product dims =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> None
      | Some p -> if d > 0 && p <= max_spec_nodes / d then Some (p * d) else None)
    (Some 1) dims

let parse spec =
  let spec = String.lowercase_ascii (String.trim spec) in
  let name, arg =
    match String.index_opt spec ':' with
    | None -> (spec, None)
    | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  let size =
    match arg with
    | None -> Ok (`N 1024)
    | Some s when String.contains s ':' -> (
        match List.filter_map int_of_string_opt (String.split_on_char ':' s) with
        | [ a; n ] when a >= 1 && n >= 1 ->
            if n > max_spec_nodes then
              err "%s: size %d exceeds the %d-node spec ceiling" name n
                max_spec_nodes
            else Ok (`Pair (a, n))
        | _ -> err "%s: bad arity:size pair %S" name s)
    | Some s when String.contains s 'x' -> (
        let parts = String.split_on_char 'x' s in
        let dims = List.filter_map int_of_string_opt parts in
        if List.length dims = List.length parts && List.for_all (fun d -> d >= 1) dims
        then
          match dims_product dims with
          | Some _ -> Ok (`Dims dims)
          | None ->
              err "%s: dimension product %s exceeds the %d-node spec ceiling"
                name s max_spec_nodes
        else err "%s: bad dimension list %S" name s)
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 ->
            if n > max_spec_nodes then
              err "%s: size %d exceeds the %d-node spec ceiling" name n
                max_spec_nodes
            else Ok (`N n)
        | _ -> err "%s: size %S is not a positive integer" name s)
  in
  match size with
  | Error e -> Error e
  | Ok size -> (
      let square of_dims n =
        let s = max 1 (int_of_float (Float.round (sqrt (float_of_int n)))) in
        of_dims [ s; s ]
      in
      match (name, size) with
      | ("list" | "path"), `N n -> Ok (list n)
      | ("list" | "path"), `Dims _ -> err "list: takes a length, not dimensions"
      | ("ring" | "cycle"), `N n -> Ok (ring (max 3 n))
      | ("ring" | "cycle"), `Dims _ -> err "ring: takes a length, not dimensions"
      | "mesh", `N n -> Ok (square (fun dims -> mesh ~dims) n)
      | "mesh", `Dims dims -> Ok (mesh ~dims)
      | "torus", `N n ->
          let s = max 3 (int_of_float (Float.round (sqrt (float_of_int n)))) in
          Ok (torus ~dims:[ s; s ])
      | "torus", `Dims dims ->
          if List.exists (fun d -> d < 3) dims then
            err "torus: every side must be >= 3"
          else Ok (torus ~dims)
      | ("tree" | "binary-tree"), `N n -> Ok (tree ~arity:2 n)
      | ("tree" | "binary-tree"), `Pair (arity, n) -> Ok (tree ~arity n)
      | ("tree" | "binary-tree"), `Dims _ ->
          err "tree: takes a size or ARITY:N (e.g. tree:64:1000), not dimensions"
      | _, `Pair _ -> err "%s: arity:size is only for tree" name
      | other, _ ->
          err "unknown implicit topology %S (try: list, ring, mesh, torus, tree)"
            other)
