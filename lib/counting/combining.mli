(** Combining-tree counter: upsweep/downsweep rank assignment.

    The classic software-combining scheme: a rooted spanning tree is
    fixed at initialisation; each node reports the number of requests
    in its subtree to its parent (upsweep), the root then assigns each
    subtree a contiguous range of ranks which is split on the way back
    down (downsweep). Ranks come out in DFS order, so the counts are
    exactly [{1..|R|}].

    On a constant-degree tree of depth [d] the per-operation delay is
    [O(d)] plus serialisation, giving total delay [O(n log n)] on a
    balanced binary spanning tree — the strongest practical counting
    upper bound in this repository, and still asymptotically above the
    arrow protocol's [O(n)] on the same topologies, as the paper's
    separation theorems predict. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for engine-level harnesses. *)

val machine :
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  increment:(int -> int) ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The one combining machine behind {!one_shot} and
    [Fetch_add.combining]: subtrees report the sum of [increment] over
    their requesters, and running sums come back down in DFS order to
    the subtrees that hold one. Requester [v] completes with [(v, sum)],
    the sum through its own increment: its rank when every increment is
    1.
    @raise Invalid_argument on out-of-range or duplicate requests. *)

val one_shot_protocol :
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol value ({!one_shot} without its spec and config:
    {!machine} with unit increments),
    for benchmarks and equivalence harnesses that need to drive the
    same protocol through several engines. Remember {!one_shot}'s
    default config expands the step to the tree's maximum degree;
    callers driving the engine directly must choose a config
    themselves. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec} on the given rooted
    spanning tree, for the {!Countq_simnet.Oneshot} drivers. The
    default config uses an expanded step of the tree's maximum degree,
    mirroring the courtesy Section 4 extends to tree protocols; pass
    [config] to force the base model. The upsweep waits for every
    child regardless of message timing, so the DFS ranks — and the
    exact count set — survive arbitrary link delays
    ([Oneshot.async]). Spans carry injection and completion only:
    reports combine whole subtrees.
    @raise Invalid_argument on out-of-range or duplicate requests. *)
