(* Node-set partitions for the sharded engine. See partition.mli. *)

type t = { label : string; shards : int; owner : int array }

let contiguous ~n ~shards =
  if n < 0 then invalid_arg "Partition.contiguous: n < 0";
  if shards < 1 then invalid_arg "Partition.contiguous: shards < 1";
  (* The first [extra] ranges hold [base + 1] nodes, the rest [base]. *)
  let base = n / shards and extra = n mod shards in
  let split = extra * (base + 1) in
  let owner =
    Array.init n (fun v ->
        if v < split then v / (base + 1) else extra + ((v - split) / base))
  in
  { label = "contiguous"; shards; owner }

let greedy ~graph ~shards =
  if shards < 1 then invalid_arg "Partition.greedy: shards < 1";
  let n = Graph.n graph in
  let owner = Array.make n (-1) in
  let target = if n = 0 then 0 else (n + shards - 1) / shards in
  (* BFS frontier as a simple queue; seeds and neighbour scans are in
     ascending id order, so the regions are a pure function of the
     graph. [next_seed] only moves forward: everything below it is
     assigned. *)
  let queue = Queue.create () in
  let next_seed = ref 0 in
  let assigned = ref 0 in
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
  { label = "greedy"; shards; owner }

let shard_sizes p =
  let sizes = Array.make p.shards 0 in
  Array.iter (fun s -> sizes.(s) <- sizes.(s) + 1) p.owner;
  sizes

let cut_edges ~neighbors p =
  let cut = ref 0 in
  Array.iteri
    (fun v s ->
      Array.iter
        (fun u -> if u > v && p.owner.(u) <> s then incr cut)
        (neighbors v))
    p.owner;
  !cut

let validate p =
  if p.shards < 1 then invalid_arg "Partition.validate: shards < 1";
  Array.iter
    (fun o ->
      if o < 0 || o >= p.shards then
        invalid_arg "Partition.validate: owner out of range")
    p.owner
