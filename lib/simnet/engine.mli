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

    Time passes for a node only when it asks: a handler returns
    [Wake t] to have its {!field-on_wake} called at the tick position
    of round [t] — after that round's receives, in ascending node
    order, once per node however many wakes name the round. A run
    stays alive while any wake is pending. A wake that falls due while
    its node is down (crashed by {!Faults}, churned out by
    {!Dynamic}) moves to the next round, so it fires on the node's
    first round back up; one due on a node crashed for good
    ({!Faults.crashed_for_good}) is dropped.

    When several neighbours have messages pending for the same node,
    an {!arbiter} admits [receive_capacity] of them per round and the
    rest wait on their FIFO links: this queueing is the network
    contention that makes the star graph cost Θ(n²) (Section 5).

    {b Performance model.} [run] is the materialised-graph front of
    the round kernel ({!Kernel}), which {!Event_engine} and {!Shard}
    share: a round costs O(number of nodes that send, receive or wake)
    plus O(messages moved), not O(n) — see DESIGN.md §4 for the full
    cost model. Every node starts at time 0, so node slots are
    pre-assigned (arrays sized [n], adjacency aliased from the graph).
    Runs with no {!tap}, or a passive one, additionally
    {e fast-forward} across idle rounds (quiescent network, everything parked by a fault delay
    or waiting for a wake) in O(1), so a protocol that is busy for R
    rounds of a long schedule costs O(R), not O(horizon). Semantics
    are unaffected: {!Reference.run} keeps the dense O(n)-per-round
    engine and qcheck properties pin every front to bit-identical
    results.

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
}

val default_config : config
(** Capacities 1/1, round-robin arbitration, [max_rounds = 10_000_000]. *)

val config_with_capacity : int -> config
(** [config_with_capacity c] is {!default_config} with both capacities
    set to [c] (an expanded step of width [c]). *)

type ('m, 'r) action = ('m, 'r) Kernel.action =
  | Send of int * 'm
      (** [Send (dst, msg)]: enqueue [msg] for neighbour [dst]. The
          engine checks adjacency and raises on non-neighbours. *)
  | Complete of 'r
      (** Record an operation completion at this node, this round. *)
  | Wake of int
      (** [Wake t]: call this node's [on_wake] in round [t], which must
          be >= 1 from [on_start], >= the current round from
          [on_receive] (it fires later that round) and > it from
          [on_wake] or an injection, else every engine raises. *)

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
  on_wake : round:int -> node:int -> 's -> 's * ('m, 'r) action list;
      (** Invoked at the tick position of every round [t] the node asked
          for with [Wake t] (see {!action}); sends it produces are
          transmitted in round [t + 1], i.e. the wake models an
          operation issued at time [t]. Use {!no_wake} for protocols
          that never ask. *)
}

val no_wake : round:int -> node:int -> 's -> 's * ('m, 'r) action list
(** The [on_wake] of a protocol that never asks for a wake: returns
    the state unchanged and does nothing. *)

val wake_next : int list -> ('m, 'r) action list
(** [[Wake r]] for the head [r] of a sorted issue schedule, [[]] for an
    empty one: what a long-lived protocol asks to issue on time. *)

type inner_wakes = int list ref
(** For a wrapper whose own timers also wake the node: the rounds its
    inner protocol asked to be woken in ({!note_wake} each inner
    [Wake]), ascending, so {!forward_wake} runs the inner [on_wake] only
    then. One [ref []] per wrapped node state. *)

val note_wake : inner_wakes -> int -> unit

val forward_wake :
  inner_wakes -> ('s, 'm, 'r) protocol -> round:int -> node:int -> 's ->
  's * ('m, 'r) action list
(** The inner [on_wake] if a noted wake is due by [round] (those are
    then forgotten), else the state unchanged and no actions. *)

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

type 'r tap = 'r Kernel.tap = {
  passive : bool;
      (** the tap never halts and needs no call for an idle round. *)
  on_transmit : round:int -> src:int -> dst:int -> unit;
      (** a message left [src]'s outbox towards [dst], before any fault
          decision. *)
  on_backlog : round:int -> node:int -> backlog:int -> unit;
      (** a message joined an incoming link of [node], which now holds
          [backlog] messages. *)
  on_deliver : round:int -> src:int -> dst:int -> unit;
      (** a message was handed to [dst]'s protocol. *)
  on_complete : round:int -> node:int -> value:'r -> unit;
      (** a [Complete] action, including at round 0. *)
  on_inject : round:int -> node:int -> unit;
      (** an {!Event_engine.injection} fired at [node]. *)
  on_drop : round:int -> src:int -> dst:int -> unit;
      (** the fault plan dropped the transmission, or the dynamic
          schedule had its link down. *)
  on_duplicate : round:int -> src:int -> dst:int -> unit;
      (** the fault plan duplicated it. *)
  on_delay : round:int -> src:int -> dst:int -> unit;
      (** the fault plan held it back; its backlog event comes in the
          round it is released. *)
  on_down_drop : round:int -> src:int -> dst:int -> unit;
      (** it reached [dst] while [dst] was crashed or churned out, and
          was discarded. *)
  on_round_end : round:int -> in_flight:int -> [ `Continue | `Halt ];
      (** the end of a round, with the messages still in flight;
          [`Halt] stops the run gracefully (the result reflects
          progress so far). *)
}
(** Execution hooks: the one way every engine front ({!run},
    {!Event_engine.run}, {!Shard}, {!Reference.run}) lets a caller
    watch a run. {!Metrics.tap} and {!Telemetry.tap} build passive
    taps, {!Monitor.tap} an active one, and {!both} composes two. A tap
    must not mutate protocol state and cannot affect the execution
    except through [`Halt]; its callbacks always run on the calling
    domain.

    {b Passivity.} A round is {e idle} when it starts with no message
    in an outbox or on a link and no held message, wake or injection
    due. A run without a tap, or with a passive one, skips idle rounds
    in O(1) and calls no hook for them; an active tap sees every round.
    [passive] alone decides this, and a passive tap must answer
    [`Continue]. Attaching a passive tap changes nothing in the run:
    result, fault tallies and what the tap records are the same with or
    without it, at every shard count and on {!Reference.run}
    (qcheck-pinned).

    {b Order.} Within a round the callbacks follow the phase order:
    transmissions with their fault outcomes and backlogs, deliveries
    with the completions their handlers produce, wake completions,
    injections, then [on_round_end]. On one shard each fires as it
    happens. A sharded run's lanes tag their events [(phase, node)] and
    the coordinator replays them at the round barrier in that order, so
    the [on_deliver]/[on_complete] stream is the one-shard stream at
    every shard count and each round carries the same events; only
    transmit and backlog events may come in another order within a
    round. *)

val no_tap : 'r tap
(** A passive tap whose callbacks do nothing: the base for a tap that
    overrides a few ([{ Engine.no_tap with on_complete = ... }]). *)

val both : 'r tap -> 'r tap -> 'r tap
(** Both taps see every event, [a]'s callback first; the result is
    passive only if both are, and halts when either does. *)

val run :
  ?faults:Faults.runtime ->
  ?dynamic:Dynamic.runtime ->
  ?tap:'r tap ->
  graph:Countq_topology.Graph.t ->
  config:config ->
  protocol:('s, 'm, 'r) protocol ->
  unit ->
  'r result
(** Execute the protocol to quiescence (no queued, in-flight or
    fault-delayed messages and no pending wake). Deterministic: same
    inputs (including the fault plan's seed), same result; with no
    [faults] (or a started {!Faults.none}) the execution is identical
    to the fault-free engine's.

    [faults] injects per-transmission drop/duplicate/delay decisions
    and node crashes (see {!Faults}); query the runtime afterwards for
    the injection tally. A timeout-and-retransmit layer ({!Reliable})
    waits out its retry timers with wakes. [max_rounds] still bounds
    the run.

    [dynamic] attaches a started {!Dynamic} topology schedule: in each
    round only the schedule's up nodes send, receive and wake (down
    nodes keep their state, outbox, queued messages and wakes — crash
    with rejoin), and a transmission over a down link is dropped at the
    sender's end without consuming the fault plan's decision stream.
    The identity schedule is bit-identical to passing no [dynamic] at
    all, including the tap's events and the fault plan's transmission
    indices (pinned by qcheck in [test/test_dynamic.ml]).

    [tap] watches the run (see {!tap}). Absent (the default), the hot
    paths pay a single predictable branch per message. *)

val total_delay : 'r result -> int
(** Sum of completion rounds — the paper's concurrent delay complexity
    contribution of this run (Eq. (1)/(3)). *)

val max_delay : 'r result -> int
(** Largest completion round (the alternative metric discussed in
    Section 2.2). *)

val completion_count : 'r result -> int
(** Number of completions recorded. *)
