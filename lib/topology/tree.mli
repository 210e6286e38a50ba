(** Rooted trees on vertices [0 .. n-1].

    Spanning trees are the backbone of both sides of the paper: the
    arrow protocol runs path reversal over a spanning tree (Section 4),
    and the nearest-neighbour TSP bounds are stated for distances
    measured along the tree. This module provides rooted-tree structure
    with O(log n) tree-distance queries via binary-lifting LCA, and
    O(log deg) next hops from preorder intervals. *)

type t
(** A rooted tree. *)

val of_parents : root:int -> int array
  -> t
(** [of_parents ~root parent] builds a rooted tree where [parent.(v)] is
    the parent of [v] and [parent.(root) = root].

    @raise Invalid_argument if the parent array is not a tree rooted at
    [root] (cycle, forest, or bad root). *)

val of_graph : Graph.t -> root:int -> t
(** [of_graph g ~root] interprets a connected graph with [n-1] edges as
    a tree rooted at [root].
    @raise Invalid_argument if [g] is not a tree. *)

val n : t -> int
(** Number of vertices. *)

val root : t -> int
(** The root vertex. *)

val parent : t -> int -> int
(** [parent t v] is the parent of [v]; the root maps to itself. *)

val children : t -> int -> int array
(** [children t v] is the sorted array of children of [v] (owned by the
    tree, do not mutate). *)

val depth : t -> int -> int
(** [depth t v] is the distance from the root to [v]. *)

val height : t -> int
(** The maximum depth over all vertices. *)

val degree : t -> int -> int
(** Degree of [v] in the underlying undirected tree (children count plus
    one for the parent edge, except at the root). *)

val max_degree : t -> int
(** Maximum undirected degree; the arrow protocol assumes this is a
    constant (Section 4's "expanded time step"). *)

val lca : t -> int -> int -> int
(** Lowest common ancestor in O(log n). *)

val dist : t -> int -> int -> int
(** [dist t u v] is the number of tree edges between [u] and [v],
    computed as [depth u + depth v - 2 * depth (lca u v)]. *)

val is_leaf : t -> int -> bool
(** Whether [v] has no children. *)

val leaves : t -> int list
(** All leaves in increasing vertex order. *)

val subtree_size : t -> int -> int
(** Number of vertices in the subtree rooted at [v] (including [v]). *)

val dfs_order : t -> int array
(** Vertices in preorder (root first, children in sorted order). *)

val path : t -> int -> int -> int list
(** [path t u v] is the unique tree path [u; ...; v]. *)

val next_hop : t -> int -> int -> int
(** [next_hop t v dst] is the tree neighbour of [v] on the path toward
    [dst]; [v] itself when [v = dst]. [v]'s subtree is an interval of
    preorder positions, so one comparison tells whether [dst] lies
    below [v]; if it does not, the hop is [v]'s parent, and if it does,
    a binary search over [v]'s children (whose positions ascend) finds
    the one above [dst]. O(log (degree v)). *)

val to_graph : t -> Graph.t
(** The underlying undirected tree as a graph. *)

val pp : Format.formatter -> t -> unit
(** Compact printer ["tree(n=…, root=…, height=…)"]. *)
