(** Open-loop traffic generation: latency vs offered load.

    The experiment suite's one-shot scenarios measure a {e closed}
    system — everyone requests at time 0 and the run drains. This
    module drives the {e open-loop} view a real shared counter or
    distributed queue faces: operations arrive by an exogenous process
    (Poisson, bursty, diurnal) whether or not the network has digested
    the previous ones, and the observable is the distribution of
    per-operation delay as the offered rate approaches the service
    capacity. Queuing (arrow path reversal, whose work stays near the
    moving tail) saturates far later than counting (every operation
    round-trips through one central counter), which is the paper's
    separation restated as a saturation curve.

    Workloads run on the event-driven engine over an implicit topology
    — millions of operations on a million-node graph are in scope —
    with the arrival schedule precompiled into the engine's injection
    calendar. Everything is a pure function of [(topology, workload,
    arrival, seed)]. *)

type arrival =
  | Poisson of float
      (** memoryless arrivals at the given mean ops/round (whole
          network; origins uniform). *)
  | Bursty of { rate : float; on : int; off : int }
      (** on/off process: bursts of [on] rounds at the rate that makes
          the long-run mean [rate], separated by [off] silent rounds. *)
  | Diurnal of { rate : float; period : int }
      (** sinusoidal modulation of a Poisson process with mean [rate]:
          λ(t) = rate·(1 + sin 2πt/period). *)

val arrival_label : arrival -> string
(** Stable name encoding the constructor and parameters (cache keys,
    table rows). *)

val schedule :
  seed:int64 -> arrival -> n:int -> horizon:int -> (int * int) array
(** The compiled arrival calendar: [(round, node)] pairs sorted by
    [(round, node)], rounds in [1 .. horizon], origins uniform over
    [0 .. n-1]. Deterministic in [seed]. *)

type workload =
  | Queuing  (** arrow path reversal over the implicit topology. *)
  | Counting
      (** central fetch-and-add: requests route to the centre node,
          responses route back; completion at the origin's receipt. *)
  | Funnel
      (** combining funnel on an implicit tree family
          ({!Countq_counting.Funnel} generalised to the open loop):
          same-round arrivals form a cohort that combines leaf-to-root
          over its on-path closure and decombines root-to-leaf, with
          the root folding cohort totals into one global counter —
          counts stay exact across the run, and every run checks it:
          the completed operations hold distinct counts in
          [1 .. injected], exactly [{1 .. injected}] when nothing is
          left unfinished. O(1) messages per op
          against the central counter's O(distance-to-centre), which
          moves the counting saturation knee. Requires a
          {!Countq_topology.Implicit.tree} topology
          (@raise Invalid_argument otherwise). *)

val workload_label : workload -> string

type summary = {
  workload : string;
  topology : string;
  arrival : string;
  horizon : int;  (** arrival window in rounds. *)
  injected : int;
  completed : int;
  unfinished : int;  (** still in flight when the run was cut off. *)
  offered : float;  (** injected / horizon, ops per round. *)
  throughput : float;  (** completed / horizon, ops per round. *)
  mean_delay : float;  (** over completed operations. *)
  p50 : float;
  p95 : float;
  p99 : float;
  max_delay : int;
  max_backlog : int;  (** peak FIFO link queue — the backpressure. *)
  peak_in_flight : int;
  touched : int;  (** nodes ever materialised. *)
  executed_rounds : int;  (** rounds actually simulated. *)
  rounds : int;  (** last round with activity. *)
  messages : int;
  saturated : bool;
      (** more than 5% of the injected operations never completed
          within the drain window — the knee of the latency curve. *)
  spans : Countq_simnet.Span.t list;
      (** one per operation when [keep_spans] was set (injection and
          completion instants; individual hops are not traced), else
          []. *)
  sketched : bool;
      (** the delay statistics ([mean_delay], [p50]/[p95]/[p99]) were
          estimated by a streaming {!Countq_util.Sketch} rather than
          computed exactly — true only for [streaming] runs whose
          completion count exceeded the sketch's exact-mode limit, and
          then accurate to {!Countq_util.Sketch.relative_error}. *)
  exemplars : (string * Countq_simnet.Span.t) list;
      (** reservoir-kept exemplar spans from a [streaming] run, tagged
          ["first"] / ["slowest"] / ["sample"] (see
          {!Countq_simnet.Telemetry.Reservoir}); [[]] otherwise. *)
}

val run :
  ?seed:int64 ->
  ?config:Countq_simnet.Engine.config ->
  ?tail:int ->
  ?center:int ->
  ?drain:int ->
  ?keep_spans:bool ->
  ?streaming:bool ->
  ?shards:int ->
  ?pool:Countq_util.Parallel.pool ->
  ?telemetry:Countq_simnet.Telemetry.t ->
  topo:Countq_topology.Implicit.t ->
  workload:workload ->
  arrival:arrival ->
  horizon:int ->
  unit ->
  summary
(** Compile the arrival schedule, run it, summarise. Arrivals land in
    rounds [1 .. horizon]; the run is cut off at [horizon + drain]
    (default [drain = horizon]), so a saturated workload reports
    [unfinished > 0] instead of running away. [tail] seeds the arrow's
    initial queue tail (default 0); [center] hosts the counter
    (default [n / 2]). [telemetry] attaches a windowed time-series
    recorder through {!Countq_simnet.Telemetry.tap} (any size — it is
    O(windows)).

    [streaming] (default false) folds every completion into a
    {!Countq_util.Sketch} and a {!Countq_simnet.Telemetry.Reservoir}
    as it happens instead of retaining the completion list: memory is
    O(1) in the operation count, [spans] is [[]] (and [keep_spans] is
    ignored), [exemplars] carries the reservoir's picks and [sketched]
    reports whether the percentiles are estimates. While the sketch is
    still in exact mode (small runs) the summary is bit-identical to
    the retained path's.

    [shards] (default 1) partitions the run across domains via
    {!Countq_simnet.Shard.run_implicit}; the summary is bit-identical
    for every shard count. Worker domains come from [pool]'s spare
    lanes when given, else are spawned directly (see {!Countq_simnet.Shard}).
    @raise Invalid_argument if [horizon < 1], [shards < 1] or a node
    argument is out of range.
    @raise Failure if a [Funnel] run hands out a count twice or one
    outside [1 .. injected]; the message names the first bad count. *)

type one_shot_summary = {
  os_requests : int;
  os_completed : int;
  os_rounds : int;  (** makespan. *)
  os_messages : int;
  os_max_backlog : int;
  os_total_delay : int;  (** Eq. (1)'s inner sum (issue at time 0). *)
  os_max_delay : int;
}

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?tail:int ->
  ?center:int ->
  ?shards:int ->
  ?pool:Countq_util.Parallel.pool ->
  ?stats:Countq_simnet.Event_engine.stats ->
  topo:Countq_topology.Implicit.t ->
  workload:workload ->
  requests:int list ->
  unit ->
  one_shot_summary
(** The closed one-shot scenario (everyone in [requests] issues at
    time 0) on nodes materialised at first touch — E30's scenario.
    Requests must be strictly ascending node ids; pass [stats] to collect the
    laziness counters. [shards]/[pool] as in {!run}. *)
