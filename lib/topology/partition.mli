(** Node-set partitions for domain-sharded execution.

    {!Countq_simnet}'s sharded engine splits one run across OCaml
    domains by assigning every node to exactly one shard; cross-shard
    messages are exchanged at a per-round barrier. The partition is
    pure bookkeeping — any assignment yields a bit-identical result —
    but the {e edge cut} decides how much traffic crosses the barrier,
    so the two constructors trade generality for cut quality:
    {!contiguous} for the implicit families (index-local neighbour
    structure makes ranges near-optimal, and nothing needs the
    adjacency), {!greedy} for materialised graphs (deterministic
    BFS-grown regions keep most edges internal on meshes and trees).

    Empty shards are legal ([shards > n] simply leaves the tail empty);
    singleton shards are legal; both are exercised by the partition
    edge-case tests. *)

(** An assignment of nodes [0 .. n-1] to [shards >= 1] shards (some
    may be empty). *)
type t =
  | Contiguous of { n : int; shards : int }
      (** [0 .. n-1] in [shards] ranges (see {!contiguous}); a node's
          owner is worked out arithmetically, so the partition holds no
          per-node data. *)
  | Table of { shards : int; owner : int array }
      (** [owner.(v)] is the shard of node [v] (what {!greedy} builds;
          any hand-built placement is one too). *)

val contiguous : n:int -> shards:int -> t
(** Split [0 .. n-1] into [shards] contiguous ranges whose sizes differ
    by at most one (the first [n mod shards] ranges get the extra
    node). When [shards > n] the trailing shards are empty.
    @raise Invalid_argument if [n < 0] or [shards < 1]. *)

val greedy : graph:Graph.t -> shards:int -> t
(** Deterministic greedy edge-cut partition: regions of [ceil n/shards]
    nodes grown breadth-first from the lowest-id unassigned seed,
    preferring unassigned neighbours (so regions follow the graph's
    locality); a region whose frontier empties on a disconnected graph
    reseeds from the next lowest unassigned node. The last shard takes
    the remainder.
    @raise Invalid_argument if [shards < 1]. *)

val shards : t -> int
(** The number of shards. *)

val size : t -> int
(** The number of nodes the partition covers. *)

val owner : t -> int -> int
(** [owner p] maps a node in [0 .. size p - 1] to its shard. On a
    {!Contiguous} partition it is one division per call, with nothing
    built up front; apply [owner p] once and keep the function. *)

val shard_sizes : t -> int array
(** [shard_sizes p] is the node count per shard.
    @raise Invalid_argument if an owner is out of range. *)

val cut_edges : neighbors:(int -> int array) -> t -> int
(** Number of undirected edges whose endpoints live in different
    shards, reading adjacency through [neighbors] (works for both
    materialised graphs and implicit topologies). *)

val validate : t -> unit
(** Check internal consistency: at least one shard, and every node
    owned by a shard in [0 .. shards-1]. O(1) on a {!Contiguous}
    partition (its owners are in range by construction), O(n) on a
    {!Table}. The sharded engine calls it on entry.
    @raise Invalid_argument on any violation. *)
