(** Adversarial dynamic-topology schedules and churn models.

    The paper's model (Section 2.1) fixes one static interconnection
    graph for the whole execution. The dynamic-network setting asks
    what survives when the graph moves: Sharma–Busch's dynamic
    distributed queuing (PAPERS.md) works under a {e T-interval
    connectivity} adversary (some spanning subgraph survives every
    window of [T] consecutive rounds), and churn studies replace
    fail-stop crashes with nodes and links that leave and rejoin.

    A {!schedule} describes, for every round [t >= 1], which nodes and
    which links of a base graph are {e up}. Schedules are pure
    functions of [(base graph, parameters, seed)] — querying them has
    no side effects, any round may be queried in any order and from
    several domains at once (the per-epoch memo is locked), so the
    engines, the routing helpers and the diagnosis helpers below all
    see one consistent topology history.

    Both {!Engine.run} and the reference engine ([test/reference.ml])
    accept a started schedule via [?dynamic]. Semantics, chosen to
    generalise the PR 1 [Faults.crash] plans into time-varying
    topology:

    - a {e down node} neither sends, receives nor wakes; its local
      state, outbox, queued incoming messages and pending wakes are
      preserved (a wake that falls due fires on its first round back
      up; a schedule cannot say a node never returns, so one that
      keeps a node out forever keeps its wake pending), and
      messages transmitted to it while down are dropped (tallied as
      node drops, and as crash drops in [Metrics]) — exactly a crash
      with [recover_at], except driven by the schedule;
    - a transmission over a {e down link} in round [t] is dropped at
      the sender's end (tallied as a link drop, and as a plain drop in
      [Metrics]); the fault plan's decision stream is {e not}
      consumed for it, so attaching the same [Faults] plan with and
      without a schedule keeps the plan's per-transmission indices
      aligned on the transmissions that actually reach the link;
    - the identity schedule ({!identity}) is bit-identical to not
      passing [?dynamic] at all — pinned by qcheck in
      [test/test_dynamic.ml], including with a {!Metrics.tap} and [?faults]
      attached. *)

module Graph = Countq_topology.Graph

type schedule
(** A per-round up/down assignment for the nodes and links of a base
    graph. Rounds below 1 are clamped to 1. *)

val label : schedule -> string
(** Human-readable name encoding the constructor and its parameters —
    stable, so it is safe to use in sweep point names (cache keys). *)

val base : schedule -> Graph.t
(** The underlying static graph; the schedule never adds edges. *)

val node_up : schedule -> round:int -> node:int -> bool
val link_up : schedule -> round:int -> u:int -> v:int -> bool
(** [link_up] is symmetric in [u]/[v] and meaningful only for edges of
    {!base}. *)

val usable : schedule -> round:int -> u:int -> v:int -> bool
(** Link up {e and} both endpoints up: a transmission entering the
    link in round [round] would be delivered. *)

(** {1 Constructors} *)

val identity : Graph.t -> schedule
(** Everything up forever — the static network as a schedule. *)

val of_fun :
  label:string ->
  ?node_up:(round:int -> node:int -> bool) ->
  ?link_up:(round:int -> u:int -> v:int -> bool) ->
  Graph.t ->
  schedule
(** Escape hatch for bespoke adversaries (tests, experiments). Omitted
    components default to always-up. *)

val link_flaps :
  seed:int64 -> rate:float -> ?epoch:int -> ?protect:int list -> Graph.t -> schedule
(** Seeded link-flap process: time is cut into epochs of [epoch]
    rounds (default 8); in each epoch every edge is independently down
    with probability [rate]. Edges incident to a node in [protect]
    never flap. No connectivity guarantee — at high rates the graph
    partitions, which is the point. *)

val node_churn :
  seed:int64 -> rate:float -> ?epoch:int -> ?protect:int list -> Graph.t -> schedule
(** Seeded churn: in each epoch of [epoch] rounds (default 8) every
    node not in [protect] is independently down (left) with
    probability [rate], rejoining with state intact in the next up
    epoch — the crash→rejoin generalisation of [Faults.crash_only]. *)

val t_interval : seed:int64 -> t:int -> Graph.t -> schedule
(** The worst-case oblivious T-interval-connected adversary of the
    dynamic-queuing literature: in each window of [t] rounds only a
    (seeded, per-window random) spanning tree of the base graph is up;
    every other edge is down. Connectivity is preserved in every
    round, but the surviving structure changes completely between
    windows. *)

val periodic_rewire : seed:int64 -> period:int -> ?keep:float -> Graph.t -> schedule
(** Milder periodic rewiring: each window of [period] rounds keeps a
    fresh random spanning tree plus each remaining edge independently
    with probability [keep] (default 0.5). Always connected. *)

val tree_attack : ?period:int -> tree:Graph.t -> Graph.t -> schedule
(** Worst-case spanning-structure attack: cycles through the edges of
    [tree] (the protocol's spanning structure, e.g.
    [Tree.to_graph]), severing one tree edge per epoch of [period]
    rounds (default 8). On a graph richer than the tree the network
    stays connected and a repairing protocol can route around the cut;
    run on the tree itself it disconnects the network every epoch. *)

val partition : at:int -> island:int list -> Graph.t -> schedule
(** From round [at] on, every edge between [island] and the rest of
    the graph is permanently down (nodes stay up) — the adversary that
    walls off the token holder. *)

(** {1 Topology queries}

    Used by churn-tolerant protocols ("a node knows its current
    neighbourhood" — the standard dynamic-graph assumption) and by
    stall diagnosis. *)

val up_neighbors : schedule -> round:int -> int -> int list
(** Neighbours reachable over a usable link in [round], ascending.
    Empty if the node itself is down. *)

val reachable : schedule -> round:int -> from:int -> bool array
(** Nodes reachable from [from] over usable links in round [round]
    (BFS on the up-graph). [from] is reachable from itself even while
    down. *)

val next_hop : schedule -> round:int -> src:int -> dst:int -> int option
(** First hop of a shortest usable path from [src] to [dst] in round
    [round] ([None] if disconnected, down, or [src = dst]).
    Deterministic: BFS visiting neighbours in ascending order. *)

val describe_cut : schedule -> round:int -> from:int -> string
(** One-line partition description as seen from [from] — which nodes
    it can still reach and which are cut off — for [Stalled]
    verdicts. *)

(** {1 Runtime} *)

type runtime
(** A schedule attached to one engine run, accumulating drop tallies.
    Create a fresh one per run. *)

type stats = { link_drops : int; node_drops : int }

val start : schedule -> runtime
val sched : runtime -> schedule
val note_link_drop : runtime -> unit
val note_node_drop : runtime -> unit
val stats : runtime -> stats

val no_stats : stats
val pp_stats : Format.formatter -> stats -> unit
