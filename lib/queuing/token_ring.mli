(** Token-circulation queuing: a perpetual token walks an Euler tour of
    a spanning tree; every pending requester the token visits is
    appended to the queue (its predecessor is whoever held the token's
    "last appended" slot).

    This is the pre-Raymond folk solution to token-based mutual
    exclusion, and the reason Raymond's tree algorithm (the arrow
    protocol's ancestor) was worth inventing: circulating costs every
    op Θ(n) regardless of load or locality. On the list with all nodes
    requesting it matches the arrow's O(n) total — but with a single
    sparse requester it still pays a full sweep where the arrow pays
    one path. Experiment E24 tabulates the contrast. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for the exhaustive schedule explorer. *)

val one_shot_protocol :
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Countq_arrow.Types.op * Countq_arrow.Types.pred)
  Countq_simnet.Engine.protocol
(** The raw protocol value ({!one_shot} without the instance), for
    the model checker and engine-equivalence harnesses; completions are
    [(op, predecessor)] pairs — validate with
    {!Countq_arrow.Order.chain}.
    @raise Invalid_argument on out-of-range or duplicate requests. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Countq_arrow.Types.op * Countq_arrow.Types.pred)
  Countq_simnet.Oneshot.t
(** The one-shot instance over {!Countq_arrow.Order.spec}: the token
    starts at the tree root (the initial tail) and walks the Euler tour
    once, appending every requester at its first visit. Base-model
    config by default. Run it with [Countq_simnet.Oneshot.run] and read
    the order with [Countq_arrow.Protocol.of_engine].
    @raise Invalid_argument on out-of-range or duplicate requests. *)
