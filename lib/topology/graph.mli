(** Immutable undirected graphs over vertices [0 .. n-1].

    This is the interconnection-network substrate of the paper's model
    (Section 2.1): a connected undirected graph [G = (V, E)] whose
    vertices are processors and whose edges are reliable FIFO links.

    The representation is adjacency arrays (sorted, duplicate-free),
    built once and never mutated, so graphs can be shared freely across
    concurrent simulations. *)

type t
(** An undirected simple graph. *)

exception Invalid_edge of int * int
(** Raised by {!create} on a self loop or an out-of-range endpoint. *)

val create : n:int -> (int * int) list -> t
(** [create ~n edges] builds the graph on vertices [0 .. n-1] with the
    given undirected edges, in O(n + m) time with no sort. Duplicate
    edges are merged; self loops and out-of-range endpoints raise
    {!Invalid_edge}.

    @raise Invalid_argument if [n < 1]. *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] builds a graph from raw adjacency lists, in any
    order and with repeats allowed, in O(n + m). The input is validated
    for range and self loops, then for symmetry: the first offending
    entry [v] of row [u] (by [u], then position) raises
    [Invalid_edge (u, v)]. [adj] is not kept.
    @raise Invalid_argument if [adj] is empty. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges. *)

val neighbors : t -> int -> int array
(** [neighbors g v] is the sorted array of neighbours of [v]. The
    returned array is owned by the graph: do not mutate it. *)

val degree : t -> int -> int
(** [degree g v] is the number of neighbours of [v]. *)

val max_degree : t -> int
(** The maximum degree over all vertices. *)

val has_edge : t -> int -> int -> bool
(** [has_edge g u v] tests edge membership in [O(log (degree u))]. *)

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], in lexicographic order. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbour of [v]. *)

val fold_vertices : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Folds over all vertex ids in increasing order. *)

val is_connected : t -> bool
(** Whether the graph is connected (true for the empty 1-vertex graph). *)

val equal : t -> t -> bool
(** Structural equality (same vertex count and edge set). *)

val pp : Format.formatter -> t -> unit
(** Prints a compact description ["graph(n=…, m=…)"]. *)

val pp_full : Format.formatter -> t -> unit
(** Prints the full adjacency structure; intended for debugging. *)
