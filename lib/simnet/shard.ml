(* Domain-sharded entry points into the round kernel. See shard.mli.
   Each picks a partition and hands it to Kernel.run, which runs the
   phases on one lane per shard and merges at the round barrier; a
   one-shard partition runs inline. *)

module Graph = Countq_topology.Graph
module Itopo = Countq_topology.Implicit
module Partition = Countq_topology.Partition

let auto_shards () = max 1 (Domain.recommended_domain_count ())

(* [partition] if given, else [make k] for the requested shard count —
   or no partition at all for one shard. *)
let pick_partition ~who ?shards ?partition make =
  match partition with
  | Some p -> Some p
  | None -> (
      let k =
        match shards with
        | Some k ->
            if k < 1 then invalid_arg (who ^ ": shards must be >= 1");
            k
        | None -> auto_shards ()
      in
      match k with 1 -> None | k -> Some (make k))

let run ?shards ?pool ?partition ?faults ?dynamic ?tap ~graph ~config ~protocol
    () =
  let part =
    pick_partition ~who:"Shard.run" ?shards ?partition (fun shards ->
        Partition.greedy ~graph ~shards)
  in
  Kernel.run ~who:"Shard.run" ?part ?pool ?faults ?dynamic ?tap
    ~n:(Graph.n graph)
    ~degree:(Graph.degree graph) ~neighbors:(Graph.neighbors graph) ~config
    ~protocol ()

let run_implicit ?shards ?pool ?partition ?faults ?dynamic ?tap ?sink
    ?injections ?halt_after ?stats ?starters ~topo ~config ~protocol () =
  let n = Itopo.n topo in
  let part =
    pick_partition ~who:"Shard.run_implicit" ?shards ?partition (fun shards ->
        Partition.contiguous ~n ~shards)
  in
  Kernel.run ~who:"Shard.run_implicit" ?part ?pool ?faults ?dynamic ?tap ?sink
    ?injections ?halt_after ?stats ?starters ~n
    ~degree:(Itopo.degree topo) ~neighbors:(Itopo.neighbors topo) ~config
    ~protocol ()
