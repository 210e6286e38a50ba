(* BFS distances, diameter, shortest paths and parent trees. See bfs.mli. *)

let distances g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v queue
        end)
  done;
  dist

let distance g u v = (distances g u).(v)

let eccentricity g v =
  let dist = distances g v in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Bfs.eccentricity: disconnected graph"
      else max acc d)
    0 dist

let diameter g =
  let n = Graph.n g in
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := max !best (eccentricity g v)
  done;
  !best

let farthest_from g v =
  let dist = distances g v in
  let best = ref v and bestd = ref 0 in
  Array.iteri
    (fun u d ->
      if d > !bestd then begin
        bestd := d;
        best := u
      end)
    dist;
  (!best, !bestd)

let diameter_estimate g ~seed ~rounds =
  let n = Graph.n g in
  let state = ref (Int64.logxor seed 0x9e3779b97f4a7c15L) in
  let next_start () =
    (* splitmix64 step; local to avoid a dependency on Simnet.Rng. *)
    state := Int64.add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.logand z 0x3fffffffffffffffL) mod n
  in
  let best = ref 0 in
  for _ = 1 to max 1 rounds do
    let start = next_start () in
    let u, _ = farthest_from g start in
    let _, d = farthest_from g u in
    best := max !best d
  done;
  !best

(* Every vertex enters the queue at most once, so an n-slot array
   serves as the queue. This BFS builds every Hop_table row. *)
let parents g src =
  let n = Graph.n g in
  let parent = Array.init n (fun v -> v) in
  let seen = Bytes.make n '\000' in
  let queue = Array.make n src in
  let head = ref 0 and tail = ref 1 in
  Bytes.set seen src '\001';
  while !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    let nbrs = Graph.neighbors g u in
    for i = 0 to Array.length nbrs - 1 do
      let v = Array.unsafe_get nbrs i in
      if Bytes.unsafe_get seen v = '\000' then begin
        Bytes.unsafe_set seen v '\001';
        Array.unsafe_set parent v u;
        Array.unsafe_set queue !tail v;
        incr tail
      end
    done
  done;
  parent

let shortest_path g u v =
  let parent = parents g v in
  (* Walk from u toward v following parents of the BFS rooted at v. *)
  if u <> v && parent.(u) = u then raise Not_found;
  let rec walk acc x = if x = v then List.rev (v :: acc) else walk (x :: acc) parent.(x) in
  walk [] u
