(** Diffracting-tree counter: toggle balancers over a spanning tree.

    The message-passing core of Shavit–Zemach diffracting trees: a
    rooted spanning tree whose interior nodes are {e balancers} — each
    holds a toggle that routes successive descending tokens to
    successive children round-robin — and whose leaves hold local exit
    counters. A request's token climbs to the root, descends through
    the balancers, and the leaf it exits at assigns its count; the
    count then routes back to the origin along tree edges.

    Counts are exact without any waiting: a token carries an
    [(offset, stride)] lane refined at every balancer (child [j] of a
    degree-[d] balancer maps a lane [(o, s)] to [(o + j*s, s*d)]), and
    a leaf's [m]-th exit in lane [(o, s)] is count [o + m*s + 1]. The
    balancer step property — generalised to mixed degrees — makes the
    union over a balancer's children exactly its own lane, so the root
    lane [(0, 1)] hands out exactly [{1..|R|}] for any arrival order.
    In the synchronous engine the "diffraction" is the expanded step
    itself: same-round arrivals at a balancer scatter across distinct
    children in one round instead of serialising (the shared-memory
    prism optimisation folded into the model; there is no separate
    prism array).

    Compared with {!Combining}: no upsweep, so nothing waits for
    sibling subtrees — a token's delay is at most three tree depths
    (up, down, back) plus contention — but every token crosses the
    root, so root congestion grows with [|R|] where the combining tree
    aggregates. Both are [O(depth)] per operation on constant-degree
    trees; which constant wins is measured, not argued — exactly the
    kind of trade the paper's lower bounds say no tree scheme can
    escape. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for engine-level harnesses. *)

val one_shot_protocol :
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol value ({!one_shot} without its spec and config),
    for benchmarks and equivalence harnesses driving several engines. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec} on the given rooted
    spanning tree, for the {!Countq_simnet.Oneshot} drivers. The
    default config uses an expanded step of the tree's maximum degree
    (as {!Combining.one_shot}); [width] caps that expanded step instead
    (the adaptive selection, {!Funnel.adaptive_width}, paying only for
    the fan-in the offered concurrency warrants); an explicit [config]
    overrides both. Toggle routing
    depends only on per-balancer arrival order, never on timing
    agreement between balancers, so the count set is exact under
    arbitrary link delays ([Oneshot.async]). Every token carries its
    origin, so spans follow each op hop by hop.
    @raise Invalid_argument on out-of-range or duplicate requests. *)
