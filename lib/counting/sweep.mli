(** Token-sweep counter: a token walks an Euler tour of a spanning
    tree, handing out ranks in first-visit (DFS preorder) order.

    The humblest counting algorithm that respects the model: one
    message in flight, one hop per round, no contention anywhere. Its
    total delay is Θ(n·|R|) in the worst case — yet on the list with
    all nodes counting it achieves Σ_i i = n²/2, matching Theorem 3.6's
    Ω(n²) lower bound up to the constant: the bound is {e tight} there,
    and experiment E3 uses this protocol to show it. *)

val euler_walk : Countq_topology.Tree.t -> int array
(** The Euler walk of a tree from its root as a vertex sequence whose
    consecutive entries are tree-adjacent, truncated after the last
    first visit. Exposed for reuse by the fetch&add sweep and for
    property tests (length [<= 2(n-1) + 1], covers every vertex). *)

val run :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  Counts.run_result
(** [run ~tree ~requests ()] walks the Euler tour of [tree] from its
    root. A requesting node completes (with the next rank) the round
    the token first reaches it; the root completes at time 0. The walk
    stops at the tour's last new vertex. Base-model config by default.
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
    protocol through several engines; completions are [(node, count)]
    pairs — validate with {!Counts.validate}. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec} (base-model config by
    default), for the {!Countq_simnet.Oneshot} drivers. The token's
    visit order — and so the rank assignment — is timing-independent,
    so the count set survives any delay model ([Oneshot.async]). The
    shared token serves every operation at once, so no hop belongs to
    a single operation: spans carry injection and completion only (the
    per-op delay is still exact), and under a fault plan a dropped
    token strands the whole sweep. *)
