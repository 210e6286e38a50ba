(** Synchronous message-passing simulator implementing the paper's
    model of computation (Section 2.1).

    The distributed system is a connected undirected graph whose links
    are reliable FIFO channels of delay one. In each round, every
    processor may (in this order): send at most [send_capacity]
    message(s) to neighbours, receive at most [receive_capacity]
    message(s), and compute locally. The default capacities are 1/1 —
    the paper's base model. Capacities [> 1] model the "expanded time
    step" of Section 4 that lets a tree protocol absorb up to
    degree-many concurrent messages; the paper notes a step of capacity
    [c] is simulable by [c] base steps, so reported delays can be scaled
    by {!field-expansion} to translate back.

    Rounds are numbered from 1. A message handed to the engine during
    round [t] (or at start) is transmitted in the send phase of some
    round [t' > t] (first-come-first-served per sender) and received in
    the receive phase of round [t']; each hop therefore costs exactly
    one time unit, so information travels distance [d] in [d] rounds —
    the latency semantics used by Theorem 3.6.

    When several neighbours have messages pending for the same node,
    an {!arbiter} admits [receive_capacity] of them per round and the
    rest wait on their FIFO links: this queueing is the network
    contention that makes the star graph cost Θ(n²) (Section 5).

    {b Performance model.} [run] is the materialised-graph front of
    the round kernel ({!Kernel}), which {!Event_engine} and {!Shard}
    share: a round costs O(number of nodes that send, receive or tick)
    plus O(messages moved), not O(n) — see DESIGN.md §4 for the full
    cost model. Every node starts at time 0, so node slots are
    pre-assigned (arrays sized [n], adjacency aliased from the graph).
    Runs with no tick handler, the {!null_observer} and the default
    [keep_alive] additionally {e fast-forward} across idle rounds
    (quiescent network, or everything parked by a fault delay) in O(1),
    so a protocol that is busy for R of its [min_rounds] horizon costs
    O(R), not O(horizon). Semantics are unaffected: {!Reference.run}
    keeps the dense O(n)-per-round engine and qcheck properties pin
    every front to bit-identical results.

    The types below are {!Kernel}'s, re-exported under the names user
    code has always used. *)

type arbiter = Kernel.arbiter =
  | Round_robin
      (** Cycle fairly over incoming links (deterministic default). *)
  | Lowest_sender_first
      (** Always prefer the smallest sender id (starves high ids;
          useful as an adversarial schedule in tests). *)
  | Custom of (round:int -> node:int -> candidates:int list -> int)
      (** [candidates] is the non-empty list of sender ids with a
          deliverable message, in increasing order; return the chosen
          sender (must be a member). *)

type config = Kernel.config = {
  receive_capacity : int;  (** messages processed per node per round. *)
  send_capacity : int;  (** messages emitted per node per round. *)
  arbiter : arbiter;
  max_rounds : int;  (** safety cut-off; exceeded runs raise. *)
  min_rounds : int;
      (** Run at least this many rounds even if the network is quiescent
          — needed by protocols whose [on_tick] injects work at later
          rounds (the long-lived scenario of Kuhn–Wattenhofer). *)
}

val default_config : config
(** Capacities 1/1, round-robin arbitration, [max_rounds = 10_000_000],
    [min_rounds = 0]. *)

val config_with_capacity : int -> config
(** [config_with_capacity c] is {!default_config} with both capacities
    set to [c] (an expanded step of width [c]). *)

type ('m, 'r) action = ('m, 'r) Kernel.action =
  | Send of int * 'm
      (** [Send (dst, msg)]: enqueue [msg] for neighbour [dst]. The
          engine checks adjacency and raises on non-neighbours. *)
  | Complete of 'r
      (** Record an operation completion at this node, this round. *)

type ('s, 'm, 'r) protocol = ('s, 'm, 'r) Kernel.protocol = {
  name : string;
  initial_state : int -> 's;
      (** Per-node state before round 1. Must be pure, as it may run on
          any lane of a sharded run. Runs that start every node at time
          0 call it once per node up front; lazily started runs
          ([?starters]) call it only for the nodes they touch, at first
          touch, plus once for node 0 in a sharded run (the filler of
          untouched slots). *)
  on_start : node:int -> 's -> 's * ('m, 'r) action list;
      (** Invoked once per node at time 0 (the instant the one-shot
          requests are issued). Completions here have delay 0. *)
  on_receive :
    round:int -> node:int -> src:int -> 'm -> 's -> 's * ('m, 'r) action list;
      (** Invoked for each delivered message. Multiple messages admitted
          to a node in one round are processed sequentially, each seeing
          the state left by the previous one (the paper's sequential
          processing within an expanded step). *)
  on_tick : (round:int -> node:int -> 's -> 's * ('m, 'r) action list) option;
      (** If set, invoked for every node at the end of every round [t];
          sends it produces are transmitted in round [t + 1], i.e. the
          tick models an operation issued at time [t]. Use [None] for
          one-shot protocols. *)
}

val no_tick : (round:int -> node:int -> 's -> 's * ('m, 'r) action list) option
(** [None], for readability at protocol definition sites. *)

type 'r completion = 'r Kernel.completion = {
  node : int;
  round : int;
  value : 'r;
}

type 'r result = 'r Kernel.result = {
  completions : 'r completion list;  (** in chronological, then node, order. *)
  rounds : int;  (** number of the last round with any activity. *)
  messages : int;  (** total messages delivered. *)
  max_link_backlog : int;  (** peak FIFO queue length: contention proxy. *)
  expansion : int;  (** the [receive_capacity] the run used. *)
}

exception Not_a_neighbor of { node : int; dst : int }
(** Raised when a protocol tries to send to a non-adjacent node. *)

exception
  Round_limit_exceeded of {
    limit : int;  (** the [max_rounds] (or async [max_events]) bound. *)
    outstanding : int;  (** messages queued in sender outboxes. *)
    queued : int;  (** messages waiting on receiver FIFO links. *)
    held : int;  (** messages parked by a fault-injected delay. *)
    busiest : (int * int) list;
        (** the top (at most) five [(node, load)] pairs, heaviest
            first (ties to the lower id), where a node's load counts
            its queued incoming messages, its unsent outbox and any
            fault-delayed messages addressed to it — i.e. {e where}
            the pending traffic sits, not just how much there is. *)
  }
(** Raised when [max_rounds] elapses with messages still in flight. The
    payload summarises where the pending messages sit, so a genuine
    engine blow-up is distinguishable from a protocol that merely
    stalled (the latter is better detected — and reported as a
    structured verdict — by a [Monitor.progress] liveness monitor). *)

val top_loaded : ?k:int -> int array -> (int * int) list
(** [top_loaded loads] summarises a per-node load array into the
    [busiest] payload shape: the top [k] (default 5) [(node, load)]
    pairs with positive load, heaviest first, ties to the lower id.
    Exposed for the engines and monitors that build the payload. *)

val top_loaded_pairs : ?k:int -> (int * int) list -> (int * int) list
(** As {!top_loaded} for callers that track loads sparsely as
    [(node, load)] pairs rather than a dense per-node array — the
    kernel, whose on-first-touch layout never materialises idle nodes,
    builds its [busiest] payload through this helper. Pairs must be
    unique per node. *)

type 'r observer = 'r Kernel.observer = {
  on_deliver : round:int -> src:int -> dst:int -> unit;
      (** called for every message handed to a protocol. *)
  on_complete : round:int -> node:int -> value:'r -> unit;
      (** called for every [Complete] action, including round 0. *)
  on_round_end : round:int -> in_flight:int -> [ `Continue | `Halt ];
      (** called once at the end of every round with the number of
          messages still in flight; returning [`Halt] stops the run
          gracefully (the result reflects progress so far). *)
}
(** Execution hooks, invoked synchronously during the run — the
    attachment point for {!Monitor} invariant checking. Observers must
    not mutate protocol state; they cannot affect the execution except
    through the [`Halt] directive. *)

val null_observer : 'r observer
(** Hooks that do nothing and always continue. Passing this exact
    value (the default) tells the engine no execution hook can fire,
    which is one of the conditions for idle-round fast-forwarding; a
    hand-rolled do-nothing observer is honoured but disables the
    optimisation. *)

val no_keep_alive : unit -> bool
(** The default [keep_alive]: always [false]. As with
    {!null_observer}, the engine recognises this exact function (by
    physical equality) when deciding whether idle rounds may be
    fast-forwarded. *)

val run :
  ?faults:Faults.runtime ->
  ?dynamic:Dynamic.runtime ->
  ?observer:'r observer ->
  ?keep_alive:(unit -> bool) ->
  ?metrics:Metrics.t ->
  ?telemetry:Telemetry.t ->
  graph:Countq_topology.Graph.t ->
  config:config ->
  protocol:('s, 'm, 'r) protocol ->
  unit ->
  'r result
(** Execute the protocol to quiescence (no queued, in-flight or
    fault-delayed messages). Deterministic: same inputs (including the
    fault plan's seed), same result; with no [faults] (or a started
    {!Faults.none}) the execution is identical to the fault-free
    engine's.

    [faults] injects per-transmission drop/duplicate/delay decisions
    and node crashes (see {!Faults}); query the runtime afterwards for
    the injection tally. [keep_alive] is polled once per round: while
    it returns [true] the engine keeps running rounds (ticking
    protocols) even when the network is quiescent — the hook a
    timeout-and-retransmit layer ({!Reliable}) uses to wait out its
    retry timers. [max_rounds] still bounds the run.

    [dynamic] attaches a started {!Dynamic} topology schedule: in each
    round only the schedule's up nodes send, receive and tick (down
    nodes keep their state, outbox and queued messages — crash with
    rejoin), and a transmission over a down link is dropped at the
    sender's end without consuming the fault plan's decision stream.
    The identity schedule is bit-identical to passing no [dynamic] at
    all, including the metrics recording and the fault plan's
    transmission indices (pinned by qcheck in [test/test_dynamic.ml]).

    [metrics] attaches a per-node / per-edge counter recorder (see
    {!Metrics}). The recorder is passive: the run's result, observer
    stream and fault tallies are bit-identical with or without it
    (pinned by a qcheck property), and — unlike a custom observer or
    keep_alive — it does {e not} disable idle-round fast-forwarding,
    because an idle round records nothing. Absent (the default), the
    hot paths pay a single predictable branch per message.

    [telemetry] attaches a windowed time-series recorder (see
    {!Telemetry}): sends, deliveries, completions, drops, peak backlog
    and peak in-flight are folded into fixed-width round windows.
    Passive exactly like [metrics] — bit-identical runs (same qcheck
    pin), fast-forward stays enabled, jumped-over windows stay zero. *)

val total_delay : 'r result -> int
(** Sum of completion rounds — the paper's concurrent delay complexity
    contribution of this run (Eq. (1)/(3)). *)

val max_delay : 'r result -> int
(** Largest completion round (the alternative metric discussed in
    Section 2.2). *)

val completion_count : 'r result -> int
(** Number of completions recorded. *)
