(** Next-hop routing for multi-hop protocols.

    The counting protocols need to move a request from its origin to a
    distant node (a counter root, a balancer) across several links.
    Routing tables are computed during the free initialisation step
    (Section 2.2) and are therefore not charged any delay; only the
    per-hop message transmissions cost time. *)

type t
(** A routing function over a fixed graph. *)

val next_hop : t -> int -> int -> int
(** [next_hop r v dst] is the neighbour of [v] on the chosen path
    toward [dst]; [v] itself when [v = dst]. *)

val distance_hint : t -> int -> int -> int option
(** Hop count along the route, when the scheme knows it cheaply. *)

val of_tree : Countq_topology.Tree.t -> t
(** Route along a spanning tree (memory-light, O(log n) per hop). *)

val of_table : Countq_topology.Graph.t -> t
(** Shortest-path routing from a destination-major
    {!Countq_topology.Hop_table}: one O(n) row per destination actually
    routed to, built on first use. [distance_hint] walks the row.
    @raise Invalid_argument if the graph is disconnected. *)

val direct : Countq_topology.Graph.t -> t
(** One-hop routing for graphs where every pair is adjacent (K_n).
    @raise Invalid_argument if some pair is not adjacent. *)

val of_fun : (int -> int -> int) -> t
(** Wrap a custom next-hop function (e.g. dimension-order mesh
    routing); the function must return a neighbour strictly closer to
    the destination, and the destination itself once reached. *)

val auto : Countq_topology.Graph.t -> t
(** The cheapest adequate scheme: {!direct} when the graph is complete
    (recognised by its edge count alone, without {!direct}'s pairwise
    check), otherwise {!of_table}. This is what the protocols use by
    default. *)
