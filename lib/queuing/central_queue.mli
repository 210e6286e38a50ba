(** Centralised queuing baseline: a root node remembers the last queued
    operation and hands each arriving request its predecessor.

    Used for the Section 5 non-separation: on the star graph both this
    protocol and any counting protocol pay Θ(n²) total delay, because
    every message serialises through the centre — showing the paper's
    separation is a property of the topology, not of queuing being
    universally cheap. (On most topologies the arrow protocol is far
    better than this baseline; see the E11 experiment.) *)

type checker_state
type checker_msg
(** Abstract internals, exposed for the exhaustive schedule explorer. *)

val one_shot_protocol :
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Countq_arrow.Types.op * Countq_arrow.Types.pred)
  Countq_simnet.Engine.protocol
(** The raw protocol value ({!one_shot} without its spec and config), for
    the model checker and engine-equivalence harnesses; completions are
    [(op, predecessor)] pairs — validate with
    {!Countq_arrow.Order.chain}.
    @raise Invalid_argument on bad requests or root. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Countq_arrow.Types.op * Countq_arrow.Types.pred)
  Countq_simnet.Oneshot.t
(** The one-shot instance over {!Countq_arrow.Order.spec}, for the
    {!Countq_simnet.Oneshot} drivers (spans key an op by its origin; a
    Reply is attributed to its destination's op). Requests are served
    in root-arrival order. [root] defaults to 0; [route] to all-pairs
    shortest-path routing; config to the base model. Read the order
    with [Countq_arrow.Protocol.of_engine].
    @raise Invalid_argument on bad requests or root. *)
