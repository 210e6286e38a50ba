(** Implicit topologies: graph families defined by index arithmetic.

    The experiment ceilings have been bounded by {e materialisation}:
    [Graph.t] stores every adjacency list, so an n-node instance pays
    O(n + m) memory before a single message moves. The regular families
    the paper's separations are stated on (lists, rings, meshes, tori,
    complete m-ary trees) need none of that — a vertex's neighbourhood
    is a pure function of its index. An [Implicit.t] carries exactly
    that function: [degree], [neighbor], [neighbors] and a greedy
    distance-reducing [next_hop], with nothing allocated per node, so
    the event-driven engine ({!Countq_simnet.Event_engine}) can run
    million-node instances in which only the {e touched} nodes ever
    exist.

    Every family reproduces the vertex numbering of its materialised
    twin in {!Gen} exactly — [materialise] returns a graph equal to the
    corresponding generator's, and the property suite pins the
    agreement on all families — so results transfer verbatim between
    the two representations. *)

type t

val label : t -> string
(** Printable name, e.g. ["list-1000000"] or ["torus-100x100"]. *)

val n : t -> int
(** Number of vertices. *)

val degree : t -> int -> int
(** [degree t v] in O(dims) time and no allocation. *)

val max_degree : t -> int
(** Closed form (no scan) for the implicit families; O(n) BFS-free scan
    for {!of_graph} wrappers. *)

val neighbor : t -> int -> int -> int
(** [neighbor t v k] is the k-th neighbour (0-based) of [v] in
    ascending vertex order — the same order {!Graph.neighbors} stores.
    @raise Invalid_argument if [k] is out of range. *)

val neighbors : t -> int -> int array
(** Fresh sorted, duplicate-free array — allocate once per node you
    actually touch, exactly like reading {!Graph.neighbors} (which is
    zero-copy but forced the whole graph into memory up front). *)

val next_hop : t -> src:int -> dst:int -> int
(** The neighbour of [src] that strictly decreases the distance to
    [dst] (ties broken deterministically: lowest dimension first, then
    the positive direction). Greedy routing with [next_hop] follows a
    shortest path on every implicit family.
    @raise Invalid_argument if [src = dst] or [dst] is unreachable. *)

(** {1 Families} (vertex numbering identical to the {!Gen} twin) *)

val list : int -> t
(** The n-node path [0 — 1 — … — n-1]; twin of {!Gen.path}. *)

val ring : int -> t
(** The n-cycle, [n >= 3]; twin of {!Gen.cycle}. *)

val mesh : dims:int list -> t
(** Row-major mixed-radix mesh; twin of {!Gen.mesh}. *)

val torus : dims:int list -> t
(** As {!mesh} with wraparound on every side [> 2]; twin of
    {!Gen.torus} (side-2 wrap edges collapse, as there). *)

val tree : ?arity:int -> int -> t
(** Complete [arity]-ary (default binary) tree on exactly [n] vertices,
    BFS-numbered (children of [v] are [v*arity + 1 … v*arity + arity]);
    twin of {!Gen.balanced_tree_on}. *)

val tree_arity : t -> int option
(** [Some arity] when [t] is a {!tree} family instance — the
    index-arithmetic contract ([parent v = (v-1)/arity]) that the
    combining-funnel counter routes by — [None] for every other
    family. *)

val of_graph : ?label:string -> Graph.t -> t
(** Wrap an already-materialised graph (adjacency read through,
    [next_hop] from a {!Hop_table}, one BFS row per destination built on
    first use and safe to query from several domains at once) — the
    bridge the equivalence tests use to run the event engine on
    arbitrary topologies. *)

val materialise : t -> Graph.t
(** Force the adjacency into a {!Graph.t} — O(n + m) memory, intended
    for tests and small instances. For every family above,
    [Graph.equal (materialise t) (gen_twin …)] holds. *)

val parse : string -> (t, [ `Msg of string ]) result
(** Scenario-style spec: [family:size] with families [list] (alias
    [path]), [ring] (alias [cycle]), [mesh], [torus], [tree] (alias
    [binary-tree]). [size] is either a vertex count ([torus:4096] picks
    the nearest square side, like {!Scenario} in the core library) or
    an explicit [AxB…] dimension list ([torus:64x64]); [tree] also
    accepts [arity:size] ([tree:3:1093]). Default size 1024. Node
    counts (including dimension-list products, which are folded with an
    overflow guard) are validated up front against a 2{^30}-node
    ceiling — [torus:100000x100000x100000] is an [Error], not a
    later allocation failure. *)
