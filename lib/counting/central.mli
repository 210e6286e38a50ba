(** Centralised counter: the naive counting baseline.

    Every requester routes an increment request to a fixed root node,
    which holds the counter, assigns ranks in arrival order, and routes
    each reply back to its origin. Because the root can receive (and
    send) only one message per round, the requests serialise at the
    root: on the star this is the Θ(n²) behaviour of Section 5, and on
    any graph the total delay is Ω(k²) for [k = |R|] requesters — far
    above the arrow protocol and a concrete illustration of why
    counting concentrates contention. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for the exhaustive schedule explorer. *)

val machine :
  root:int ->
  route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  issue_rounds:(int -> int list) ->
  increment:(int -> int) ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The one central machine behind {!one_shot}, {!long_lived} and
    [Fetch_add.central]. Node [v] issues at the rounds
    [issue_rounds v] (ascending; a one-shot requester's are [[0]]),
    naming its operation [seq] by [Counts.op]. The root adds
    [increment op] to its running sum in arrival order and hands out
    the new sum, which is the op's rank when every increment is 1; the
    op completes at its origin as [(op, sum)]. The root reads an op's
    increment by its id rather than from the request, which the
    per-message cost model cannot tell apart.
    @raise Invalid_argument on a root out of range. *)

val one_shot_protocol :
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** {!machine} with one issue at round 0 per requester and unit
    increments; completions are [(node, count)] pairs — validate with
    {!Counts.validate}. *)

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

val long_lived :
  ?config:Countq_simnet.Engine.config ->
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  schedule:int array array ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** {!machine} over an issue [schedule]
    ([Countq_simnet.Engine.schedule]) with unit increments, as an
    instance over {!Counts.long_lived_spec}; defaults as {!one_shot}.
    Because the root serialises, per-op delay grows linearly with load:
    E13's baseline for the long-lived arrow and counting network.
    @raise Invalid_argument on a schedule without one row per node. *)
