(** Distributed queuing that survives a moving graph.

    Two protocols, spanning the robustness frontier that Sharma–Busch
    ("Distributed Queuing in Dynamic Networks") and Ghodselahi–Kuhn
    (dynamic arrow analysis) map out:

    {b 1. The dynamic queue} — a Sharma–Busch-style protocol that
    assumes nothing about the topology except eventual usable links.
    Every node maintains a monotone {e knowledge} value: the longest
    known prefix of the global operation chain plus the set of pending
    (announced but unchained) operations. Knowledge floods between
    current neighbours as {e deltas} — the chain suffix above what the
    neighbour is believed to hold plus the unseen pending ops, never
    the full monotone state, so a growth step costs traffic
    proportional to what changed rather than O(chain) per link. Only
    the origin of the chain's last entry (or the designated leader
    while the chain is empty) may extend it, and it extends at most
    once per chain value, so all chains anyone ever holds are prefixes
    of one global chain — which is also what makes the suffix splice
    exact, and safety unconditional under any disconnection pattern. Liveness needs only recurring
    connectivity (e.g. T-interval connectivity): each time the current
    holder hears of a pending operation the chain grows, so total cost
    degrades gracefully with the connectivity interval instead of
    collapsing the way a fixed spanning structure does.

    {b 2. The churn-tolerant arrow} — the unmodified arrow protocol on
    its spanning tree, run over a routing layer that {e repairs} the
    tree's edges: every logical tree-edge message travels as a
    sequenced envelope that is forwarded along the current up-graph
    (shortest usable path, recomputed every round), retransmitted on
    ack timeout, and deduplicated/reordered at the logical receiver so
    the arrow still sees reliable FIFO tree links. Where plain arrow
    stalls the moment one tree edge flaps, the repaired arrow keeps
    the total order and completes as long as the adversary leaves
    {e some} path between tree neighbours often enough.

    Both runners attach {!Countq_simnet.Monitor} verdicts (chain
    consistency, completion, progress with a partition-naming
    diagnosis) and report the schedule's drop tallies. *)

module Engine = Countq_simnet.Engine
module Dynamic = Countq_simnet.Dynamic
module Monitor = Countq_simnet.Monitor
module Graph = Countq_topology.Graph
module Types = Countq_arrow.Types

type report = {
  result : Countq_arrow.Protocol.run_result;
      (** outcomes of whatever completed, with the reconstructed total
          order (or its validation failure). *)
  monitors : Monitor.report;
      (** chain consistency (safety), completion and progress
          (liveness) verdicts. *)
  topo : Dynamic.stats;  (** what the schedule dropped. *)
}

(** {1 The dynamic queue} *)

type checker_state
type checker_msg
(** Abstract views of the flooding protocol's internals for the
    exhaustive schedule explorer. *)

val one_shot_protocol :
  ?leader:int ->
  graph:Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Types.op * Types.pred) Engine.protocol
(** The receive-driven core of the dynamic queue on a static graph:
    deltas are re-flooded the instant knowledge grows, with no timers,
    so the protocol is a pure message-driven flooding process — state
    is pure and structural (per-neighbour beliefs update by copy), and
    [Countq_simnet.Explore] (which has no timer model) can model-check
    the single-extender safety argument over every interleaving.
    Completion values are [(op, pred)] pairs; validate with
    [Order.chain]. *)

val one_shot :
  ?leader:int ->
  graph:Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, Types.op * Types.pred) Countq_simnet.Oneshot.t
(** {!one_shot_protocol} as a one-shot instance over [Order.spec] with
    {!run}'s default config, for the [Countq_simnet.Oneshot] drivers
    ([countq check] explores it). Spans carry injection and completion
    only: a delta carries knowledge of many ops at once. *)

val run :
  ?config:Engine.config ->
  ?leader:int ->
  ?sched:Dynamic.schedule ->
  ?refresh:int ->
  ?progress_budget:int ->
  graph:Graph.t ->
  requests:int list ->
  unit ->
  report
(** The wake-driven dynamic variant under topology schedule [sched]
    (default: the identity schedule). From its first knowledge on, a
    node wakes every round until every request has completed; at each
    wake it offers the
    delta it owes to each usable neighbour that has not seen its
    current knowledge version, and forgets its per-neighbour beliefs
    every [refresh] rounds (default 8) — a full re-send — so deltas
    lost to a mid-flight topology change are recovered;
    the run halts when all [requests] have completed, or when the
    completion-progress monitor declares a stall after
    [progress_budget] completion-free rounds (default 256). [config]
    defaults to receive/send capacity [max_degree graph] (reported as
    [expansion], like the arrow runners). *)

(** {1 The churn-tolerant arrow} *)

type route_stats = {
  forwarded : int;  (** physical hops taken by envelopes. *)
  rerouted : int;  (** hops that detoured off the direct link. *)
  retransmits : int;  (** timeout-driven re-sends. *)
  gave_up : int;  (** envelopes abandoned after [max_retries]. *)
}

type ('s, 'm) routed
(** Wrapper state: the inner ['s] plus routing and sequencing tables. *)

type 'm envelope
(** Wrapper message: a sequenced payload or an end-to-end ack. *)

type route_handle
(** Shared bookkeeping for one run of a routed protocol. *)

val wrap_route :
  ?ack_timeout:int ->
  ?max_retries:int ->
  sched:Dynamic.schedule ->
  graph:Graph.t ->
  live:(unit -> bool) ->
  ('s, 'm, 'r) Engine.protocol ->
  (('s, 'm) routed, 'm envelope, 'r) Engine.protocol * route_handle
(** [wrap_route ~sched ~graph p] (named ["<name>+route"]) runs [p]
    over the repairing envelope layer described above: logical sends
    become per-destination sequenced envelopes routed hop-by-hop along
    the current up-graph of [sched] (shortest usable path, recomputed
    each round; envelopes wait out total disconnection at whichever
    node holds them), acknowledged end-to-end, retransmitted with
    exponential backoff after [ack_timeout] rounds (default 4, up to
    [max_retries] retries, default 8), and released to [p] in FIFO
    order exactly once. Completion values pass through unchanged. A
    node that has had an envelope to route wakes every round from then
    on (routing, retry timers and the inner protocol's own wakes all
    run there), for as long as any envelope awaits its ack or [live ()]
    holds — pass the caller's "operations still pending" test. The
    wrapped state carries mutable tables: wrap afresh per run and keep
    it away from the [Explore] checker.

    Single-shard runs only: the handle's counters are plain fields and
    [live] is read in the wake handlers, which a sharded run calls on
    several domains before it replays the tap at the barrier. *)

val route_stats : route_handle -> route_stats

val run_arrow :
  ?config:Engine.config ->
  ?tail:int ->
  ?ack_timeout:int ->
  ?max_retries:int ->
  ?progress_budget:int ->
  ?sched:Dynamic.schedule ->
  graph:Graph.t ->
  tree:Countq_topology.Tree.t ->
  requests:int list ->
  unit ->
  report * route_stats
(** The arrow one-shot scenario on spanning [tree], with its tree
    links repaired over [graph] under [sched] (default identity).
    [config] defaults to capacity [max_degree graph]. The progress
    monitor's budget defaults to comfortably above the longest
    retransmit backoff, and its stall diagnosis names the partition
    around the last completion's origin. *)
