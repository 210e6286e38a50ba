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

val run :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  Counts.run_result
(** [run ~tree ~requests ()] executes the one-shot scenario on the
    given rooted spanning tree. The default config uses an expanded
    step of the tree's maximum degree, mirroring the courtesy Section 4
    extends to tree protocols; pass [config] to force the base model.
    @raise Invalid_argument on out-of-range or duplicate requests. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for engine-level harnesses. *)

val one_shot_protocol :
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol value ({!run} without the engine invocation), for
    benchmarks and equivalence harnesses that need to drive the same
    protocol through several engines. Remember {!run}'s default config
    expands the step to the tree's maximum degree; callers driving the
    engine directly must choose a config themselves. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec} with {!run}'s default
    config, for the {!Countq_simnet.Oneshot} drivers. The upsweep waits
    for every child regardless of message timing, so the DFS ranks —
    and the exact count set — survive arbitrary link delays
    ([Oneshot.async]). Spans carry injection and completion only:
    reports combine whole subtrees. *)
