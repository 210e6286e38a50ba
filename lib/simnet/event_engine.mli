(** The implicit-topology front of the round kernel: idle nodes hold
    no live state.

    On a materialised graph, setup pays O(n + m) before the first
    message moves: per-node state, incoming queues and outboxes for the
    whole graph. This front runs on an {!Countq_topology.Implicit}
    topology — adjacency as index arithmetic, never materialised — and,
    when [?starters] is given, the kernel ({!Kernel}) assigns a node its
    slot at first touch (a start action, a delivered message, an
    injection) through a dense node → slot map (a hash table
    above 2{^22} nodes). Messages sit in a pool of cells shared by all
    queues, so a quiet node holds no message buffers. A million-node
    one-shot arrow run touches a handful of nodes at any instant, plus
    one O(n)-int slot map. Without [?starters] every node starts at time 0
    and slots are pre-assigned, exactly as in {!Engine.run}.

    Time advances round by round with {!Engine.run}'s phase order
    (bit-for-bit — see below); the open-loop injection schedule and
    fault-delayed deliveries are what the quiescent-gap jump aims at,
    so simulated horizons cost only the rounds in which something
    happens.

    {b Pinned semantics.} On any materialisable topology a run here is
    bit-identical to {!Reference.run} on the materialised twin — same
    completions, rounds, messages, backlog, tap streams, fault
    tallies and {!Engine.Round_limit_exceeded} payloads (the
    qcheck property in [test/test_equiv.ml]). Wakes cost O(log w) each
    for w pending, so timer protocols pay only for the nodes that
    asked. One contract makes laziness sound:

    - {b Declared starters.} [on_start] fires eagerly only on the
      [?starters] nodes (default: all nodes, which is drop-in but
      materialises everything). Any other node's [on_start] runs
      lazily at first touch and must return no actions — a sleeping
      node that would have spoken at time 0 was never asleep. The
      engine raises [Invalid_argument] if the contract is violated, so
      a wrong starter set fails loudly instead of dropping actions. *)

type ('s, 'm, 'r) injection = ('s, 'm, 'r) Kernel.injection = {
  at : int;  (** round the injection fires, [>= 1]. *)
  node : int;
  inject : 's -> 's * ('m, 'r) Engine.action list;
}
(** One scheduled event: at the tick position of round [at] (after the
    round's deliveries and after that round's wakes, see
    {!Engine.protocol.on_wake}), [inject] is applied to [node]'s current
    state; sends it issues enter the network in round [at + 1].
    Equivalent to — and pinned against — an [on_wake] handler that
    fires the same closures at the same rounds. Under faults or churn
    an injection into a node that is crashed or down at round [at] is
    dropped (a wake would wait for the node instead). *)

type stats = Kernel.stats = {
  mutable touched : int;  (** nodes materialised over the whole run. *)
  mutable peak_in_flight : int;
      (** max simultaneous outstanding + queued + held messages. *)
  mutable executed_rounds : int;
      (** rounds actually simulated (quiescent gaps are jumped, not
          spun — compare with {!Engine.result.rounds}). *)
}
(** Cost counters for the laziness itself — what the benchmark reports
    as [engine.touched], [engine.peak_in_flight] and
    [engine.executed_rounds]. Pass a fresh record via [?stats] to
    collect them. *)

val fresh_stats : unit -> stats

val run :
  ?faults:Faults.runtime ->
  ?dynamic:Dynamic.runtime ->
  ?tap:'r Engine.tap ->
  ?sink:('r Engine.completion -> unit) ->
  ?injections:('s, 'm, 'r) injection array ->
  ?halt_after:int ->
  ?stats:stats ->
  ?starters:int list ->
  topo:Countq_topology.Implicit.t ->
  config:Engine.config ->
  protocol:('s, 'm, 'r) Engine.protocol ->
  unit ->
  'r Engine.result
(** Run [protocol] on the implicit topology, on one shard. All
    optional hooks keep their {!Engine.run} meaning ([tap] as in
    {!Engine.tap}).

    [injections] must be sorted by [(at, node)] (duplicates allowed,
    fired in order). [halt_after] ends the run cleanly at the end of
    round [halt_after] — the open-loop harness's horizon for saturated
    runs that would never drain; unlike a halting tap it keeps
    gap-jumping enabled. [starters] must be strictly ascending node
    ids.

    [sink] streams completions out as they happen instead of retaining
    them: when present, each completion is passed to [sink] exactly
    when it would have been recorded (same order), and the returned
    [result.completions] is [[]]. Rounds/messages/backlog aggregates
    are unaffected. This removes the last O(completed) memory term for
    long-horizon open-loop runs; the sink must not assume completions
    arrive sorted by node (they arrive in execution order: ascending
    round, arbitrary node order within a round).

    @raise Invalid_argument on unsorted injections or starters, or a
    non-starter whose [on_start] emits actions.
    @raise Engine.Round_limit_exceeded as {!Engine.run}, with the
    [busiest] summary built from the touched nodes. *)
