(** Distributed queuing that survives a moving graph.

    A Sharma–Busch-style protocol ("Distributed Queuing in Dynamic
    Networks") that assumes nothing about the topology except eventual
    usable links.
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

    {!run} attaches {!Countq_simnet.Monitor} verdicts (chain
    consistency, completion, progress with a partition-naming
    diagnosis) and reports the schedule's drop tallies. The
    churn-tolerant arrow, the other side of the robustness frontier
    (Ghodselahi–Kuhn's dynamic arrow analysis), is the plain arrow
    over [Countq_simnet.Reliable.wrap ~next_hop:(Dynamic.next_hop
    sched)]: [Countq.Run.run_churn]'s [`Arrow_routed] arm. *)

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

val holder_tap :
  from:int ->
  expected:int ->
  ('m, Types.op * Types.pred) Engine.tap * int ref * int ref
(** A monitor-free tap for a queuing run: it tracks the origin of the
    latest completion (starting at [from]), the node around which a
    stall is diagnosed, counts completions, and halts the run at the
    [expected]-th. Returns the tap, the latest holder and the count.
    {!run} and [Countq.Run.run_churn]'s arrow arms attach it. *)
