(** Per-node and per-edge execution metrics for both simulation engines.

    The paper's entire argument is about {e measured cost} — concurrent
    delay, message contention, information propagation — yet a bare
    {!Engine.result} only reports aggregates. A [Metrics.t] is a
    mutable recorder threaded through a run via the engines' [?metrics]
    argument: it tallies, per node and per directed edge, every
    transmission, delivery, fault decision (drops / duplicates / delay
    spikes from {!Faults}), crash drop, retransmission (from
    {!Reliable}), peak link backlog and busy rounds. The recorder is
    {e passive}: it never influences the execution, so a run with
    metrics attached is bit-identical to the same run without (a qcheck
    property pins this), and the engines' idle-round fast-forward stays
    enabled — an idle round by definition records nothing.

    Cost: recording is a handful of array increments per message (edge
    counters are CSR-indexed off the graph like the engine's own rings;
    no hashing, no allocation).

    Create one recorder per run: {!create} sizes every array from the
    graph. The [note_*] functions are the engines' recording hooks —
    protocol or harness code normally only reads the snapshot
    accessors. *)

type t

val create : graph:Countq_topology.Graph.t -> t
(** A fresh all-zero recorder for runs on [graph]. *)

val n : t -> int
(** Number of nodes the recorder was created for. *)

val create_like : t -> t
(** A fresh all-zero recorder with the same shape (graph) as the
    argument — what the sharded engine hands each shard, without
    needing the materialised graph again. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src]'s tallies into [into]: counters
    (including [busy_rounds]) add, peaks ([peak_backlog], the internal
    last-busy round) take the max. Correct for [busy_rounds] only when
    each node's transmit/deliver marks live in at most one of the two
    recorders — the sharded engine's per-shard recorders satisfy this
    by ownership (a node's sends and receives are always recorded by
    its owning shard).
    @raise Invalid_argument if the recorders' shapes differ. *)

(** {1 Recording hooks} — called by {!Engine.run}, {!Reference.run},
    {!Async.run} and {!Reliable.wrap}; rounds are event times under the
    asynchronous engine. *)

val note_transmit : t -> src:int -> dst:int -> round:int -> unit
(** A message left [src]'s outbox towards [dst] (before any fault
    decision). Counts a send and marks [src] busy this round. *)

val note_deliver : t -> src:int -> dst:int -> round:int -> unit
(** A message was handed to the protocol at [dst]. Counts a receive
    and marks [dst] busy this round. *)

val note_transmit_at : t -> slot:int -> src:int -> round:int -> unit
(** Fast-path {!note_transmit} for callers that already hold the edge's
    CSR slot: [slot] must be the receiver-row index of the directed
    edge [src -> dst] — the receiver's CSR base plus the position of
    [src] in the receiver's sorted neighbour array. {!Engine.run}'s
    incoming rings use the identical layout (both are prefix sums of
    [Graph.neighbors] lengths in node order), so the engine passes the
    slot it computed anyway and skips the neighbour search. *)

val note_deliver_at : t -> slot:int -> dst:int -> round:int -> unit
(** Fast-path {!note_deliver}; [slot] as in {!note_transmit_at}. *)

val note_drop : t -> src:int -> dst:int -> unit
(** The fault layer dropped the transmission. *)

val note_duplicate : t -> src:int -> dst:int -> unit
(** The fault layer duplicated the transmission. *)

val note_delay : t -> src:int -> dst:int -> unit
(** The fault layer postponed the transmission. *)

val note_crash_drop : t -> dst:int -> unit
(** A message was discarded because the receiver was down. *)

val note_retransmit : t -> node:int -> unit
(** The {!Reliable} layer retransmitted a payload from [node]. *)

val note_backlog : t -> node:int -> backlog:int -> unit
(** [node] has [backlog] messages queued on one incoming link; the
    per-node peak is retained (contention proxy). *)

(** {1 Snapshots} *)

type node_stats = {
  node : int;
  sends : int;  (** messages that left this node's outbox. *)
  receives : int;  (** messages delivered to this node's protocol. *)
  drops : int;  (** fault drops of this node's transmissions. *)
  dups : int;  (** fault duplications of this node's transmissions. *)
  delays : int;  (** fault delay spikes on this node's transmissions. *)
  crash_drops : int;  (** messages lost because this node was down. *)
  retransmits : int;  (** {!Reliable} retransmissions from this node. *)
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
