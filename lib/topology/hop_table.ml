(* Destination-major next-hop rows, built on first use. See
   hop_table.mli. *)

type t = { g : Graph.t; rows : int array array }

(* [Bfs.parents] has length n >= 1, so [||] marks an unbuilt row. *)
let create g = { g; rows = Array.make (Graph.n g) [||] }

let fill t dst =
  let r = Bfs.parents t.g dst in
  t.rows.(dst) <- r;
  r

let row t dst =
  let r = t.rows.(dst) in
  if Array.length r = 0 then fill t dst else r

let next t ~src ~dst = (row t dst).(src)
