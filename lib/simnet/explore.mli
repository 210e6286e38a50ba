(** Bounded model checker: exhaustive schedule exploration for
    protocols.

    The property tests sample random schedules; this module tries
    {e all} of them. Execution is modelled with fully asynchronous
    interleaving semantics — at each step the scheduler picks any one
    enabled event: transmit the head of some node's outbox onto its
    link, or deliver the head of some link's FIFO queue — which
    over-approximates every schedule the synchronous and event-driven
    engines (and any arbiter or delay oracle) can produce, because both
    only ever transmit and deliver in FIFO order per link. A safety
    predicate checked on every reachable quiescent configuration
    therefore holds under {e every} schedule of either engine. The
    test suite pins this on random 3–5 node instances of every
    one-shot protocol but the dynamic queue (whose flooding outgrows
    the default budget at 5 nodes): runs under the round-robin,
    lowest-sender and a seeded custom arbiter, and asynchronous runs
    under seeded uniform delays, each end with the completions of an
    explored terminal.

    The claim presumes handlers that return a new state and never
    mutate the one they are given: a protocol that updates its state
    in place corrupts the configurations the checker branches from,
    and exploring it reports spurious {!Violation}s. {!run} cannot
    detect such mutation. The test suite checks every protocol of the
    portfolio for it instead, by marshalling each state before and
    after every handler call ([Helpers.pure]); the counting network
    keeps its balancer toggles and exit counters in persistent sets
    and maps for this reason.

    {2 How the state space is kept small}

    {b Interned configurations, exact keys.} Every component of a
    configuration is interned to a dense int: each node state, each
    link's FIFO queue (one per directed edge, in [(src, dst)] order),
    each outbox (unreduced mode only) and the completion sequence
    without its round stamps, kept as a chain of [(parent, node,
    value)] entries. A configuration's identity is its id vector,
    packed as varints into a short byte string, so deduplication is
    exact: two configurations share a key iff every component is
    structurally equal. Intern lookups hash the whole component (the
    polymorphic hash reads only a bounded prefix, so deep states that
    share one would fall into a single probe chain). The visited set is
    one byte arena of keys indexed by open addressing, and a frontier
    entry holds only its key's position, its stamped completion list
    and its event counter; states and queues are read back from the
    intern tables when it is expanded.

    {b Partial-order reduction.} A transmit event commutes with every
    other enabled event: it pops one outbox head and appends to one
    link tail, while any other event either pops that same link's head
    (FIFO queues make pop-head and append-tail commute) or touches
    disjoint state, and nothing can disable it. Each singleton
    {transmit at the lowest busy node} is therefore a persistent set,
    so exploring only that event whenever any transmit is enabled
    preserves every reachable quiescent configuration — including its
    completion sequence, because transmits complete nothing and
    delivery interleavings are not restricted. The checker goes one
    step further and collapses the whole canonical transmit chain:
    configurations are kept {e drained} (all outboxes empty, every sent
    message already on its link), and a successor is one delivery
    followed by re-draining. Since eager transmission only makes
    deliveries enabled earlier, and FIFO constraints are identical
    either way, the drained graph reaches {e exactly} the terminal
    completion sequences of the full interleaving graph (a property the
    test suite pins by comparing against the unreduced explorer on
    random small instances). Pass [~reduce:false] to explore the full
    transmit/deliver branching instead.

    {b Parallel frontier.} Exploration is breadth-first, layer by
    layer; passing [~pool] evaluates each layer's handler calls and
    terminal checks on the shared domain pool. Workers only read the
    intern tables: interning, packing, dedup and counting happen
    sequentially in the caller in input order, so stats, the visited
    set and the reported violation are bit-identical for every jobs
    count. Violations are deterministic regardless of schedule: the
    whole layer is expanded and, of its failing quiescent
    configurations, the one whose canonical structural serialisation
    ([Marshal] without sharing of its states, outboxes, links and
    unstamped completions) is lowest wins. That serialisation is
    computed only for failing configurations.

    State spaces still explode with concurrency: intended for instances
    with a handful of nodes (the test suite and [countq check] verify
    the arrow protocol's total-order safety and the central counter's
    count-set property on all schedules of 4–7 node instances). *)

type stats = {
  explored : int;  (** distinct configurations visited. *)
  terminal : int;  (** quiescent configurations checked. *)
  max_frontier : int;  (** peak BFS frontier width. *)
  dedup_hits : int;
      (** successor configurations that were already in the visited
          set — the deduplication's work, visible. *)
}

type outcome =
  | Exhaustive of stats
      (** every reachable configuration was visited and every quiescent
          one passed the check: a proof by exhaustion. *)
  | Budget_exhausted of stats
      (** the [max_configs] budget ran out first; the stats cover the
          explored prefix and every quiescent configuration inside it
          passed, but unexplored schedules remain — a partial result,
          not an error. *)

exception Violation of string
(** Raised by {!run} when the predicate rejects some reachable
    quiescent configuration; carries the predicate's message (from the
    lowest-canonical failing configuration of the earliest failing
    layer, so the report is deterministic). *)

val run :
  graph:Countq_topology.Graph.t ->
  protocol:('s, 'm, 'r) Engine.protocol ->
  check:('r Engine.completion list -> (unit, string) result) ->
  ?max_configs:int ->
  ?reduce:bool ->
  ?pool:Countq_util.Parallel.pool ->
  unit ->
  outcome
(** [run ~graph ~protocol ~check ()] explores every interleaving of the
    protocol's one-shot execution ([on_start] at time 0; there is no
    timer model, so any [Wake] action is rejected) and applies [check]
    to the completion list of each quiescent configuration. Completions
    are stamped with a monotone event counter as their [round] (each
    transmit or delivery is one event), taken from the representative
    execution that first reached the configuration — stamps are
    monotone along that path but carry no timing meaning, so check
    {e values}, not times. [reduce] (default [true]) applies the
    partial-order reduction described above; [pool] parallelises each
    frontier layer (the outcome is identical with or without it).
    [max_configs] (default 1_000_000) bounds the visited set;
    exceeding it yields {!Budget_exhausted} with the partial stats
    rather than an error.
    @raise Invalid_argument if [max_configs < 1], if a handler asks for
    a [Wake], or if a state, message or completion value holds a
    closure, lazy value or object.
    @raise Violation on a failing quiescent configuration (checked
    before the budget verdict, so a violation inside the explored
    prefix is always reported). *)
