(** Closed-form bounds from Section 4, made executable so experiments
    can print measured-vs-proved columns. *)

val list_bound : int -> int
(** Lemma 4.3: a nearest-neighbour tour on the list of [n] vertices
    costs at most [3n], for any request set and start. *)

val f : int -> int
(** The recurrence of Theorem 4.7: [f 0 = 0],
    [f k = 2 f (k-1) + 2k]. *)

val f_bound : int -> int
(** Lemma 4.8: [f k < 2^(k+2)]. *)

val perfect_binary_bound : n:int -> int
(** Theorem 4.7's explicit ceiling for the perfect binary tree on [n]
    vertices: [2d(d+1) + 8n] with [d = floor(log2 n)] — i.e. the
    [Θ(n)] bound with the paper's constants. *)

val rosenkrantz_ratio : int -> float
(** Rosenkrantz–Stearns–Lewis: the nearest-neighbour {e tour} (closed)
    on any [k]-point triangle-inequality metric costs at most
    [(ceil(log2 k) + 1) / 2] times the optimal tour (clamped below at
    1.0, where nearest-neighbour is exactly optimal). This is not a
    bound on open paths: see {!nn_path_ratio}. *)

val nn_path_ratio : int -> float
(** The guarantee for what E8 and the arrow analysis measure: an open
    nearest-neighbour {e path} from a fixed start over [k] requests,
    against the optimal open path from the same start. It costs at most
    [ceil(log2 (k + 1)) + 1] times the optimum:

    NN path <= NN tour over the [k + 1] points (the path is the tour
    minus its closing edge)
    <= [((ceil(log2 (k + 1)) + 1) / 2)] * OPT tour (Rosenkrantz–
    Stearns–Lewis on [k + 1] points)
    <= [(ceil(log2 (k + 1)) + 1)] * OPT path (closing the optimal path
    back to its start at most doubles it, by the triangle inequality).

    {!rosenkrantz_ratio}[ k] is not sound here: on the 8-node tree of
    seed 2720 with [k = 4] the NN path costs 11 against an optimum of 7,
    a ratio of 1.571 above its 1.5. *)

val constant_degree_tree_bound : n:int -> k:int -> int
(** Corollary 4.2's shape: on any tree with [n] vertices the
    nearest-neighbour path from a fixed start over [k] requests costs
    [O(n log k)], concretely at most [n * (ceil(log2 (k + 1)) + 1)]. The
    path visits [k + 1] points, so the chain of {!nn_path_ratio} gives
    NN path <= NN tour <= [((ceil(log2 (k + 1)) + 1) / 2)] * OPT tour,
    and OPT tour <= [2n] (an Euler tour walks each of the [n - 1] edges
    twice). [ceil(log2 k)] would undercount by one when [k] is a power
    of two. [0] when [k < 1]. *)

val log2_ceil : int -> int
(** [ceil(log2 k)] for [k >= 1]. *)
