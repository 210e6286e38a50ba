(** The arrow protocol (Raymond '89; Demmer–Herlihy '98) — the queuing
    algorithm whose concurrent one-shot complexity upper-bounds
    [C_Q(G)] in Section 4 of the paper.

    The protocol runs path reversal on a spanning tree [T]: every node
    keeps an arrow [link(v)] pointing at the tree neighbour in whose
    direction the current queue tail lies (or at itself if it is the
    tail). A node issuing operation [a] records [id(v) := a], fires a
    [queue(a)] message at its arrow and flips the arrow to itself; a
    node relaying [queue(a)] flips its arrow back toward the sender; a
    [queue(a)] arriving at a node whose arrow is self terminates — [a]
    is queued behind that node's last operation.

    Delay semantics: an operation's queuing delay is the round in which
    its [queue] message terminates (discovers the predecessor), the
    definition under which Herlihy, Tirthapura and Wattenhofer proved
    the nearest-neighbour-TSP bound that Theorem 4.1 cites.

    The simulation runs with an expanded-step receive capacity equal to
    the tree's maximum degree, exactly as Section 4 prescribes
    ("concurrent [queue()] messages are processed in the same expanded
    time step"); pass a custom [config] to override. *)

type run_result = {
  outcomes : Types.outcome list;
      (** one per issued operation; [round] is the per-op delay
          (completion round minus issue round). *)
  order : (Types.op list, Order.error) result;
      (** the reconstructed total order, or the validation failure. *)
  rounds : int;  (** makespan of the whole execution in rounds. *)
  messages : int;  (** total [queue()] messages delivered. *)
  total_delay : int;  (** Eq. (1)'s inner sum for this run. *)
  max_delay : int;
  expansion : int;  (** receive capacity used (tree degree by default). *)
}

type checker_state
type checker_msg
(** Abstract views of the protocol's internals, exposed only so the
    exhaustive schedule explorer ([Countq_simnet.Explore]) can drive
    the very same protocol value the runners use. *)

val one_shot_protocol :
  ?tail:int ->
  ?notify:bool ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Types.op * Types.pred) Countq_simnet.Engine.protocol
(** The raw one-shot protocol value (state pure and structural, so
    configurations memoise correctly). Completion values are
    [(op, predecessor)] pairs — validate them with {!Order.chain}. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?tail:int ->
  ?notify:bool ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Types.op * Types.pred) Countq_simnet.Oneshot.t
(** The concurrent one-shot scenario as an instance over {!Order.spec}:
    all nodes in [requests] issue at time 0. [tail] is the initial tail
    position (default: the tree root). Requests must be distinct node
    ids of the tree. The default config's receive capacity is the
    tree's maximum degree.

    [notify] (default [false]) appends a notification leg: after a
    [queue()] message terminates, the discovered predecessor identity
    is routed back to the operation's origin along the tree, and the
    delay is measured at the origin's receipt — the variant an
    application like ordered multicast needs, at roughly twice the
    message cost. With [notify = false] delays use the
    Herlihy–Tirthapura–Wattenhofer semantics (termination instant)
    that Theorem 4.1 is stated for.

    Read a run with {!of_engine}. The {!Countq_simnet.Oneshot} drivers
    run it plain, traced (the [countq trace] timeline of path
    reversal), observed (spans
    keyed by origin node), faulty (with the {!Countq_simnet.Reliable}
    layer, what lets a one-shot execution survive message drops),
    asynchronous and model-checked. The arrow's safety — a single valid
    total order — survives arbitrary link delays; its delay bounds need
    not.
    @raise Invalid_argument on bad requests or tail. *)

val of_engine :
  (Types.op * Types.pred) Countq_simnet.Engine.result -> run_result
(** Convert a one-shot run's result (every operation issued at round
    0) — the queuing twin of [Countq_counting.Counts.of_engine], shared
    by every queuing protocol. *)

val run_long_lived :
  ?config:Countq_simnet.Engine.config ->
  ?tail:int ->
  ?notify:bool ->
  tree:Countq_topology.Tree.t ->
  arrivals:(int * int) list ->
  unit ->
  run_result
(** [run_long_lived ~tree ~arrivals ()] executes the long-lived
    scenario of Kuhn–Wattenhofer: [arrivals] is a list of
    [(node, round)] pairs, [round >= 0]; a node may appear several
    times (its operations get increasing [seq] numbers in round
    order). Per-op delays are measured from each operation's issue
    round. The Theorem 4.1 comparison against the nearest-neighbour
    TSP bound lives in the [Countq] core library, which combines this
    module with [Countq_tsp]. *)
