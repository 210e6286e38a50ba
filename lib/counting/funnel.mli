(** Combining-funnel counter: exact batch combining on (implicit) trees.

    The third tree-shaped counter, and the one built for the million-node
    regime. {!Combining} aggregates but materialises the whole spanning
    tree; {!Diffracting} routes every token through the root. The funnel
    does neither: increments climb leaf-to-root along tree edges,
    {e combining} at every interior node they meet — a node forwards a
    single [Up] carrying its subtree's combined total — and the root
    answers with disjoint count ranges that {e decombine} on the way
    back down, each combiner splitting its range across the recorded
    batch. Per operation that is O(1) messages amortised (two per
    closure edge, and the closure has at most one edge per requester
    ancestor) and ~2·depth rounds, against Θ(depth) messages per token
    for the diffracting tree.

    {b The combining window} is structural, not timed: the on-path
    closure (requesters plus ancestors) is precomputed from the request
    set, so each node knows exactly how many on-path children will
    report ([expected]) and flushes upward the moment the last one has
    — no wakes, no timeouts, no engine hooks. That makes the protocol
    purely message-driven: the same transitions run unchanged under
    {!Countq_simnet.Engine.run}, {!Countq_simnet.Event_engine.run},
    {!Countq_simnet.Shard.run_implicit}, the asynchronous engine, and
    the {!Countq_simnet.Explore} model checker (which has no timers).

    {b The decombine invariant}: a node entered with range base [b] and
    batch total [t] hands out exactly [{b+1 .. b+t}] — own increments
    take one count each, child blocks take contiguous sub-ranges, in
    batch arrival order. The root's lane is [(0, |R|)], so the counts
    handed out are exactly [{1..|R|}] for {e any} arrival order —
    {!Diffracting}'s exactness contract, met by a different mechanism.

    The implicit entry points route by index arithmetic alone
    ([parent v = (v-1)/arity] on BFS-numbered
    {!Countq_topology.Implicit.tree} families): no materialised graph,
    and no per-node state off the closure — the live footprint scales
    with the request set, not the tree, which is what lets one-shot
    counting run at n = 10{^6} next to the queuing rows. *)

val adaptive_width :
  n:int -> concurrency:int -> int
(** [adaptive_width ~n ~concurrency] picks a balancer fan-in from the
    offered concurrency rather than the spanning-tree arity:
    [1 + sqrt concurrency] clamped to [[2, 64]] and to [n - 1]. Low
    concurrency gets narrow trees (less expansion to pay for), high
    concurrency gets wide ones (fewer serialised levels); the square
    root balances the expanded-step cost (∝ width) against tree depth
    (∝ 1/log width). Shared with the diffracting tree's width
    selection. *)

val run :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  Counts.run_result
(** [run ~tree ~requests ()] executes the one-shot scenario on a
    materialised rooted tree. The default config's expanded step is
    {!adaptive_width} capped by the tree's maximum degree; [width]
    overrides the adaptive choice (still degree-capped); an explicit
    [config] overrides both.
    @raise Invalid_argument on out-of-range or duplicate requests. *)

val run_implicit :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  ?shards:int ->
  ?pool:Countq_util.Parallel.pool ->
  ?stats:Countq_simnet.Event_engine.stats ->
  topo:Countq_topology.Implicit.t ->
  requests:int list ->
  unit ->
  Counts.run_result
(** [run_implicit ~topo ~requests ()] runs on an implicit tree family
    through {!Countq_simnet.Shard.run_implicit} with [shards] (default
    1) and [pool]; the result is bit-identical for every shard count.
    [stats] receives the kernel's counters (touched nodes, peak
    in-flight, executed rounds).
    @raise Invalid_argument if [topo] is not a {!Countq_topology.Implicit.tree}
    family, or on out-of-range or duplicate requests. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for engine-level harnesses. *)

val one_shot_protocol :
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol on a materialised tree ({!run} without the engine
    invocation), for model checking and equivalence harnesses. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec} with {!run}'s config
    rules, for the {!Countq_simnet.Oneshot} drivers. Batch contents
    depend only on per-node arrival order, so the count set stays
    exactly [{1..|R|}] under arbitrary link delays ([Oneshot.async]).
    Spans carry injection and completion only: batches combine whole
    subtrees. *)

val implicit_protocol :
  topo:Countq_topology.Implicit.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol routed by index arithmetic on an implicit tree
    family, for harnesses driving {!Countq_simnet.Event_engine.run} or
    {!Countq_simnet.Shard.run_implicit} directly (completion values are
    [(origin, count)] pairs; start it with [~starters] = the sorted
    request list).
    @raise Invalid_argument if [topo] is not a tree family. *)
