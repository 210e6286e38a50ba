(** Uniform one-shot drivers over every protocol in the portfolio.

    The fault, churn and observe reports run each protocol's
    [one_shot] instance through the {!Countq_simnet.Oneshot} drivers,
    so they check the same specification ([Counts.spec] or
    [Order.spec]) as [countq check] and the tests.

    The normalisation rule makes cross-protocol comparison honest: a
    protocol run with an expanded step of width [c] (receive capacity
    [c] > 1, used by the tree protocols exactly as Section 4 allows) has
    its delays multiplied by [c], because one expanded step is
    simulable by [c] base-model steps. Base-model runs ([c = 1]) are
    unchanged. All separations reported by the experiments use the
    normalised totals. *)

type kind = Counting | Queuing

type counting_protocol =
  [ `Central | `Combining | `Diffracting | `Funnel | `Network | `Sweep ]

type queuing_protocol = [ `Arrow | `Arrow_notify | `Central | `Token_ring ]

val counting_protocol_name : counting_protocol -> string
val queuing_protocol_name : queuing_protocol -> string

type summary = {
  protocol : string;
  kind : kind;
  n : int;  (** vertices in the graph. *)
  k : int;  (** number of requests. *)
  total_delay : int;  (** raw, in (possibly expanded) rounds. *)
  normalized_delay : int;  (** [total_delay * expansion]. *)
  max_delay : int;
  rounds : int;
  messages : int;
  expansion : int;
  valid : bool;  (** output met the problem specification. *)
}

val counting :
  ?tree:Countq_topology.Tree.t ->
  ?width:int ->
  graph:Countq_topology.Graph.t ->
  protocol:counting_protocol ->
  requests:int list ->
  unit ->
  summary
(** Run a counting protocol. [tree] (for [`Combining], [`Diffracting]
    and [`Funnel]) defaults to the
    BFS spanning tree rooted at 0 and (for [`Sweep]) to the arrow
    protocol's preferred spanning tree (a Hamilton path where one is
    known, which makes the sweep a single pass); [width] caps the
    balancer fan-in (the expanded step) for [`Diffracting] and
    [`Funnel], and (for [`Network]) defaults to
    [Network.default_width]. *)

val queuing :
  ?tree:Countq_topology.Tree.t ->
  graph:Countq_topology.Graph.t ->
  protocol:queuing_protocol ->
  requests:int list ->
  unit ->
  summary
(** Run a queuing protocol. [tree] (for the arrow variants and the
    token ring) defaults to [Spanning.best_for_arrow graph]. *)

type faulty_protocol = [ `Arrow | `Central_count | `Central_queue ]
(** The protocols in the fault-degradation report (the arrow and the
    two centralised baselines). *)

val faulty_protocol_name : faulty_protocol -> string

type fault_summary = {
  protocol : string;
  plan : string;  (** the fault plan's label. *)
  retry : bool;  (** whether the retransmit layer was on. *)
  expected : int;  (** requests issued. *)
  completed : int;  (** operations that completed. *)
  valid : bool;  (** completed output met the problem spec. *)
  rounds : int;
  extra_rounds : int;  (** rounds minus the fault-free baseline's. *)
  messages : int;
  extra_messages : int;  (** messages minus the baseline's. *)
  injected : Countq_simnet.Faults.stats;
  monitors : Countq_simnet.Monitor.report;
  retry_stats : Countq_simnet.Reliable.stats option;
  safe : bool;  (** every safety monitor passed. *)
  live : bool;  (** every liveness monitor passed. *)
}
(** Degradation report: the faulty run next to its fault-free baseline
    on the same instance, plus the runtime monitor verdicts. *)

val run_faulty :
  ?pool:Countq_util.Parallel.pool ->
  ?tree:Countq_topology.Tree.t ->
  ?retry:bool ->
  ?ack_timeout:int ->
  ?max_retries:int ->
  ?progress_budget:int ->
  graph:Countq_topology.Graph.t ->
  protocol:faulty_protocol ->
  plan:Countq_simnet.Faults.plan ->
  requests:int list ->
  unit ->
  fault_summary
(** Run [protocol] on [graph] under fault plan [plan] through
    [Oneshot.faulty] (with the timeout-and-retransmit layer when
    [retry], default false), run the fault-free baseline with identical
    parameters, and report the degradation. With [pool], the faulty arm
    and its baseline evaluate as two jobs on the shared pool. [tree]
    (for [`Arrow]) defaults to [Spanning.best_for_arrow graph]. *)

type churn_protocol =
  [ `Dynamic_queue | `Arrow_static | `Arrow_routed | `Central_count ]
(** The protocols comparable under a dynamic topology schedule: the
    Sharma–Busch-style dynamic queue, the unmodified arrow left to die
    on its spanning tree, the arrow over the route-repair layer, and
    the centralised counter with hop-by-hop retransmission. *)

val churn_protocol_name : churn_protocol -> string

type churn_summary = {
  c_protocol : string;
  schedule : string;  (** the {!Countq_simnet.Dynamic} schedule label. *)
  c_expected : int;  (** requests issued. *)
  c_completed : int;  (** operations that completed. *)
  c_valid : bool;  (** completed output met the problem spec. *)
  c_rounds : int;
  c_extra_rounds : int;  (** rounds minus the identity-schedule baseline's. *)
  c_messages : int;
  c_extra_messages : int;  (** messages minus the baseline's. *)
  topo : Countq_simnet.Dynamic.stats;  (** what the schedule dropped. *)
  c_monitors : Countq_simnet.Monitor.report;
  c_safe : bool;  (** every safety monitor passed. *)
  c_live : bool;  (** every liveness monitor passed. *)
  c_stalled : bool;  (** a progress monitor halted the run. *)
  route : Countq_queuing.Dynamic_queue.route_stats option;
      (** repair-layer tally; [`Arrow_routed] only. *)
  c_retry : Countq_simnet.Reliable.stats option;
      (** retransmit tally; [`Central_count] only. *)
}
(** Degradation report under a moving graph: the run under the
    adversarial schedule next to the identity-schedule baseline on the
    same instance. *)

val run_churn :
  ?pool:Countq_util.Parallel.pool ->
  ?tree:Countq_topology.Tree.t ->
  ?ack_timeout:int ->
  ?max_retries:int ->
  ?progress_budget:int ->
  graph:Countq_topology.Graph.t ->
  protocol:churn_protocol ->
  sched:Countq_simnet.Dynamic.schedule ->
  requests:int list ->
  unit ->
  churn_summary
(** Run [protocol] on [graph] under topology schedule [sched], run the
    identity-schedule baseline with identical parameters, and report
    the degradation. With [pool], the two arms evaluate as two jobs on
    the shared pool. [tree] (for the arrow variants) defaults to
    [Spanning.best_for_arrow graph]; [ack_timeout]/[max_retries] tune
    the repair and retransmit layers where present. *)

type observed_protocol =
  [ `Arrow | `Arrow_notify | `Central_count | `Central_queue | `Sweep ]
(** The protocols [countq observe] offers (metrics + spans). *)

val observed_protocol_name : observed_protocol -> string

type observation = {
  o_protocol : string;
  o_kind : kind;
  completed : int;  (** operations that completed. *)
  o_valid : bool;  (** completed output met the problem spec. *)
  o_rounds : int;
  o_messages : int;
  o_total_delay : int;  (** raw, in (possibly expanded) rounds. *)
  o_expansion : int;
  metrics : Countq_simnet.Metrics.t;  (** per-node/per-edge counters. *)
  spans : Countq_simnet.Span.t list;  (** one per operation, op order. *)
  o_injected : Countq_simnet.Faults.stats option;
      (** fault tally; [None] when no plan was given. *)
}
(** One fully-observed run: the aggregate numbers every summary has,
    plus the recorder and the causal spans to drill into them. *)

val observe :
  ?tree:Countq_topology.Tree.t ->
  ?plan:Countq_simnet.Faults.plan ->
  graph:Countq_topology.Graph.t ->
  protocol:observed_protocol ->
  requests:int list ->
  unit ->
  observation
(** Run [protocol] on [graph] through [Oneshot.observed], with a fresh
    {!Countq_simnet.Metrics} recorder and span instrumentation
    attached; [plan] optionally injects faults. [tree] (for the tree protocols) defaults to
    [Spanning.best_for_arrow graph]. Drives the [countq observe]
    subcommand and the observability experiments. *)

val best_counting :
  ?pool:Countq_util.Parallel.pool ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  summary
(** The cheapest (by normalised total delay) of the counting portfolio
    on this instance — what the experiments compare against: the
    Section 3 lower bounds must sit below it, and on the separation
    topologies the arrow protocol's cost must sit below it too. The
    balancer protocols ([`Diffracting], [`Funnel]) run at the adaptive
    width ({!Countq_counting.Funnel.adaptive_width}) rather than the
    spanning tree's natural arity. With [pool], the candidates evaluate
    in parallel; [pool_map] preserves candidate order, so the result is
    identical either way. *)

val observe_many :
  ?pool:Countq_util.Parallel.pool ->
  ?tree:Countq_topology.Tree.t ->
  ?plan:Countq_simnet.Faults.plan ->
  graph:Countq_topology.Graph.t ->
  protocols:observed_protocol list ->
  requests:int list ->
  unit ->
  observation list
(** {!observe} over several protocols on the same instance, in input
    order — in parallel when [pool] is given. Each observation gets its
    own metrics recorder, so runs are independent. *)
