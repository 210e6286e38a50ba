(* Node-set partitions for the sharded engine. See partition.mli. *)

type t =
  | Contiguous of { n : int; shards : int }
  | Table of { shards : int; owner : int array }

let contiguous ~n ~shards =
  if n < 0 then invalid_arg "Partition.contiguous: n < 0";
  if shards < 1 then invalid_arg "Partition.contiguous: shards < 1";
  Contiguous { n; shards }

let greedy ~graph ~shards =
  if shards < 1 then invalid_arg "Partition.greedy: shards < 1";
  let n = Graph.n graph in
  let owner = Array.make n (-1) and target = (n + shards - 1) / shards in
  (* BFS frontier as a simple queue; seeds and neighbour scans are in
     ascending id order, so the regions are a pure function of the
     graph. [next_seed] only moves forward: everything below it is
     assigned. *)
  let queue = Queue.create () and next_seed = ref 0 and assigned = ref 0 in
  for s = 0 to shards - 1 do
    Queue.clear queue;
    let size = ref 0 in
    let budget = if s = shards - 1 then n - !assigned else min target (n - !assigned) in
    while !size < budget do
      (if Queue.is_empty queue then begin
         while !next_seed < n && owner.(!next_seed) >= 0 do
           incr next_seed
         done;
         Queue.add !next_seed queue
       end);
      let v = Queue.take queue in
      if owner.(v) < 0 then begin
        owner.(v) <- s;
        incr size;
        incr assigned;
        Array.iter
          (fun u -> if owner.(u) < 0 then Queue.add u queue)
          (Graph.neighbors graph v)
      end
    done
  done;
  Table { shards; owner }

let shards = function Contiguous c -> c.shards | Table t -> t.shards
let size = function Contiguous c -> c.n | Table t -> Array.length t.owner

let owner = function
  | Contiguous { n; shards } ->
      (* The first [extra] ranges hold [base + 1] nodes, the rest [base]. *)
      let base = n / shards and extra = n mod shards in
      let split = extra * (base + 1) in
      fun v -> if v < split then v / (base + 1) else extra + ((v - split) / base)
  | Table t -> Array.get t.owner

let shard_sizes p =
  let sizes = Array.make (shards p) 0 and owner = owner p in
  for v = 0 to size p - 1 do
    let s = owner v in
    if s < 0 || s >= shards p then invalid_arg "Partition: owner out of range";
    sizes.(s) <- sizes.(s) + 1
  done;
  sizes

let cut_edges ~neighbors p =
  let owner = owner p and cut = ref 0 in
  for v = 0 to size p - 1 do
    Array.iter (fun u -> if u > v && owner u <> owner v then incr cut) (neighbors v)
  done;
  !cut

let validate p =
  if shards p < 1 then invalid_arg "Partition.validate: shards < 1";
  match p with
  | Contiguous c -> if c.n < 0 then invalid_arg "Partition.validate: n < 0"
  | Table _ -> ignore (shard_sizes p)
