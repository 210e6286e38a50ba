(** Per-node and per-edge execution metrics for the synchronous
    engines.

    The paper's entire argument is about {e measured cost} — concurrent
    delay, message contention, information propagation — yet a bare
    {!Engine.result} only reports aggregates. A [Metrics.t] is a
    mutable recorder attached to a run through {!tap}: it tallies, per
    node and per directed edge, every transmission, delivery, fault
    decision (drops / duplicates / delay spikes from {!Faults}), crash
    drop, peak link backlog and busy rounds. The tap is passive (see
    {!Engine.tap}): a run with it attached is bit-identical to the same
    run without, and idle-round fast-forward stays enabled — an idle
    round by definition records nothing.

    Cost: a hook is a short search of the receiver's neighbour array
    and a few array increments (edge counters are CSR-indexed off the
    graph); no hashing, no allocation.

    Create one recorder per run: {!create} sizes every array from the
    graph. *)

type t

val create : graph:Countq_topology.Graph.t -> t
(** A fresh all-zero recorder for runs on [graph]. *)

val n : t -> int
(** Number of nodes the recorder was created for. *)

val tap : t -> ('m, 'r) Engine.tap
(** The passive tap that records into [t]: a transmit counts a send
    and marks the sender busy in its round, a delivery counts a
    receive and marks the receiver busy, backlogs keep the per-node
    peak, and each fault outcome counts against its edge (a crash or
    churn drop against the receiver).
    @raise Invalid_argument from a hook naming a pair that is not an
    edge of the graph. *)

(** {1 Snapshots} *)

type node_stats = {
  node : int;
  sends : int;  (** messages that left this node's outbox. *)
  receives : int;  (** messages delivered to this node's protocol. *)
  drops : int;  (** fault drops of this node's transmissions. *)
  dups : int;  (** fault duplications of this node's transmissions. *)
  delays : int;  (** fault delay spikes on this node's transmissions. *)
  crash_drops : int;  (** messages lost because this node was down. *)
  peak_backlog : int;  (** largest single-link incoming queue seen. *)
  busy_rounds : int;  (** rounds in which the node sent or received. *)
}

type edge_stats = {
  src : int;
  dst : int;
  e_sends : int;
  e_receives : int;
  e_drops : int;
  e_dups : int;
  e_delays : int;
}

val node_stats : t -> int -> node_stats
(** Snapshot of one node's counters. *)

val per_node : t -> node_stats list
(** All nodes, in id order. *)

val per_edge : t -> edge_stats list
(** Directed edges with at least one recorded event, in [(src, dst)]
    order. *)

val total_sends : t -> int
val total_receives : t -> int

val hottest_nodes : ?k:int -> t -> (int * int) list
(** Top [k] (default 5) [(node, sends + receives)] pairs with positive
    traffic, heaviest first, ties to the lower id — the same shape as
    {!Engine.top_loaded}. *)

val hottest_edges : ?k:int -> t -> ((int * int) * int) list
(** Top [k] (default 5) [((src, dst), traffic)] directed edges. *)

(** {1 Rendering and export} *)

val render_heatmap : ?per_row:int -> t -> string
(** ASCII congestion heatmap: one cell per node (rows of [per_row],
    default 64, cells in id order), intensity scaled to the busiest
    node's [sends + receives] over the ramp [" .:-=+*#%@"]. A legend
    line gives the scale. *)

val to_jsonl : t -> string
(** One JSON object per line: [{"type":"node", …}] for every node with
    any recorded activity, then [{"type":"edge", …}] for every active
    directed edge — the export the [countq observe --json] subcommand
    appends to its span dump. Each line parses with
    {!Countq_util.Json.of_string}. *)
