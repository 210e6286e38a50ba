(** Centralised counter: the naive counting baseline.

    Every requester routes an increment request to a fixed root node,
    which holds the counter, assigns ranks in arrival order, and routes
    each reply back to its origin. Because the root can receive (and
    send) only one message per round, the requests serialise at the
    root: on the star this is the Θ(n²) behaviour of Section 5, and on
    any graph the total delay is Ω(k²) for [k = |R|] requesters — far
    above the arrow protocol and a concrete illustration of why
    counting concentrates contention. *)

type long_lived_outcome = {
  node : int;
  seq : int;  (** which of the node's operations (issue order). *)
  count : int;
  delay : int;  (** rounds from issue to receipt of the rank. *)
}

type long_lived_result = {
  outcomes : long_lived_outcome list;
  counts_exact : bool;  (** ranks handed out are exactly [{1 .. m}]. *)
  rounds : int;
  messages : int;
}

val run_long_lived :
  ?config:Countq_simnet.Engine.config ->
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  arrivals:(int * int) list ->
  unit ->
  long_lived_result
(** The long-lived scenario: [(node, round)] arrivals, nodes may repeat.
    The root assigns ranks in arrival order; because it serialises,
    per-op delay grows linearly with load — the baseline the long-lived
    arrow and counting network are compared against in E13.
    @raise Invalid_argument on bad arrivals. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for the exhaustive schedule explorer. *)

val one_shot_protocol :
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol value; completions are [(node, count)] pairs —
    validate with {!Counts.validate}. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec}, for the
    {!Countq_simnet.Oneshot} drivers (faulty, observed, traced,
    asynchronous, model-checked): counts stay exactly [{1..|R|}] under
    any fault-free schedule or delay pattern, and the heatmap of an
    observed run makes the root's Θ(k²) hot spot visible. Spans key an
    op by its origin (a Reply is attributed to its destination's op).
    [root] defaults to node 0; [route] to shortest-path routing from
    an all-pairs table (computed in the free initialisation step). The
    base model (capacities 1/1) unless [config] says otherwise.
    @raise Invalid_argument on out-of-range or duplicate requests. *)
