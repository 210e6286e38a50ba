(** Domain-sharded execution of one synchronous run.

    Every prior engine made a single core faster; this module makes a
    single {e run} use several. The node set is split by a
    {!Countq_topology.Partition} (contiguous ranges for implicit
    families, greedy edge-cut for materialised graphs); each shard runs
    the round's phases on its own domain; cross-shard messages are
    buffered during the send phase and merged at a per-round barrier in
    a deterministic order (sorted by [(src, dst, seq)]) before any
    shard starts receiving.

    {b Determinism argument.} The synchronous model makes this exact,
    not approximate: within a phase, nodes interact only through
    per-link FIFO queues keyed by [(src, dst)], and a message's queue
    position depends only on its sender's outbox order — so any
    cross-shard apply order that preserves per-link FIFO yields the
    same queue contents, the same arbiter decisions and the same
    protocol states as the sequential engine. Completions and tap
    events are tagged with their phase and node and replayed at the
    barrier in [(round, phase, node)] order (see {!Engine.tap}), which
    is the sequential engine's chronological order. The result is
    {e bit-identical} to the reference engine ([test/reference.ml]) for
    every shard count —
    qcheck-pinned in [test_equiv.ml] with [?tap], [?faults] and
    [?dynamic] attached and with protocols that ask for wakes, and
    against the single-shard run for [?sink], [?injections] and
    [?stats] in [test_shard.ml].

    When a fault plan or dynamic schedule is attached, the send phase
    runs sequentially on the coordinator (the fault decision stream is
    a single mutable sequence whose global transmission order is
    observable), while the receive/wake/injection phases — where the
    protocol work happens — stay parallel; crash/churn guards for those
    phases are precomputed by the coordinator each round, so schedule
    queries never race. Each shard keeps its own nodes' wakes in its
    own heap (a node only wakes itself), so wakes add no cross-shard
    traffic and no barrier.

    Both functions are fronts of the round kernel ({!Kernel}). Sharded
    runs pre-assign node slots (arrays sized [n] up front); with an
    effective shard count of 1 every phase runs inline on the calling
    domain, with {!Event_engine.run}'s store, so nothing is ever lost
    by threading [--shards] through unconditionally. *)

val auto_shards : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — a sensible
    default shard count. *)

val run :
  ?shards:int ->
  ?pool:Countq_util.Parallel.pool ->
  ?partition:Countq_topology.Partition.t ->
  ?faults:Faults.runtime ->
  ?dynamic:Dynamic.runtime ->
  ?tap:('m, 'r) Engine.tap ->
  graph:Countq_topology.Graph.t ->
  config:Engine.config ->
  protocol:('s, 'm, 'r) Engine.protocol ->
  unit ->
  'r Engine.result
(** Sharded {!Engine.run} on a materialised graph. [shards] defaults to
    {!auto_shards}; [partition] defaults to
    [Partition.greedy ~graph ~shards] (pass one to control placement —
    any partition of the right size is bit-identical). Worker domains
    come from [pool]'s remaining lane budget when given (reserved for
    the whole run, released at the end), else up to
    [Domain.recommended_domain_count () - 1] are spawned directly;
    with no budget the run degrades to the sharded data path on the
    calling domain alone. [shards = 1] runs exactly as {!Engine.run}.

    Protocols that ask for wakes are supported (each shard wakes its
    own nodes). A [Custom] arbiter and the protocol's handlers must not
    share unsynchronised mutable state across nodes: handlers
    for different shards run concurrently on several domains.
    @raise Invalid_argument if [shards < 1] or the partition does not
    cover the graph's nodes. *)

val run_implicit :
  ?shards:int ->
  ?pool:Countq_util.Parallel.pool ->
  ?partition:Countq_topology.Partition.t ->
  ?faults:Faults.runtime ->
  ?dynamic:Dynamic.runtime ->
  ?tap:('m, 'r) Engine.tap ->
  ?sink:('r Engine.completion -> unit) ->
  ?injections:('s, 'm, 'r) Event_engine.injection array ->
  ?halt_after:int ->
  ?stats:Event_engine.stats ->
  ?starters:int list ->
  topo:Countq_topology.Implicit.t ->
  config:Engine.config ->
  protocol:('s, 'm, 'r) Engine.protocol ->
  unit ->
  'r Engine.result
(** Sharded {!Event_engine.run} on an implicit topology, with the same
    optional machinery (completion [sink] — invoked in chronological
    order, drained at each round barrier; [tap]; scheduled
    [injections];
    [halt_after]; [stats]; [starters]). [partition] defaults to
    [Partition.contiguous]. [shards = 1] runs exactly as
    {!Event_engine.run}, including its on-first-touch store when
    [starters] is given, until the run touches more than n/8 nodes.

    [stats] fields ([touched], [peak_in_flight], [executed_rounds])
    are bit-identical for every shard count.
    @raise Invalid_argument as {!run}, or on malformed
    [injections]/[starters]. *)
