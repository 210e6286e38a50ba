(** Breadth-first search utilities: distances, eccentricities, diameter,
    shortest paths and BFS parent trees (the rows of {!Hop_table}).

    All link weights are 1 (the paper's synchronous unit-delay links), so
    BFS distances are exactly the information-propagation latencies used
    by the lower bound of Theorem 3.6. *)

val distances : Graph.t -> int -> int array
(** [distances g src] is the array of hop distances from [src]; vertices
    unreachable from [src] get [-1]. *)

val distance : Graph.t -> int -> int -> int
(** [distance g u v] is the hop distance between [u] and [v], or [-1] if
    disconnected. Runs a fresh BFS; use {!distances} for batch queries. *)

val eccentricity : Graph.t -> int -> int
(** [eccentricity g v] is the maximum distance from [v] to any vertex.
    @raise Invalid_argument if [g] is disconnected. *)

val diameter : Graph.t -> int
(** Exact diameter via [n] BFS runs.
    @raise Invalid_argument if [g] is disconnected. *)

val diameter_estimate : Graph.t -> seed:int64 -> rounds:int -> int
(** Lower bound on the diameter via repeated double-sweep BFS; cheap on
    large graphs. The result never exceeds the true diameter and is
    exact on trees. *)

val shortest_path : Graph.t -> int -> int -> int list
(** [shortest_path g u v] is a minimum-hop path [u; ...; v].
    @raise Not_found if [v] is unreachable from [u]. *)

val parents : Graph.t -> int -> int array
(** [parents g src] is the BFS parent of each vertex ([src] and
    unreachable vertices map to themselves), the standard BFS spanning
    tree used by protocols for request routing. *)
