(** One-shot instances and the drivers that run them.

    The paper has two correctness specifications (Section 2.2):
    counting hands out exactly the counts [{1 .. |R|}], queuing builds
    a single total order. Each is written once, as a {!spec}
    ([Countq_counting.Counts.spec] and [Countq_arrow.Order.spec]), and
    each protocol contributes a machine: a [one_shot] constructor
    that packs its graph, default config and protocol value with its
    family's spec into an instance {!t}. The drivers below combine the
    two per run, so a new protocol gets the plain, faulty, asynchronous
    and model-checked runs for free, and any {!Engine.tap} on the plain
    one — {!Metrics}, {!Span} and {!Trace} watch a run that way:
    {[
      let inst = Central.one_shot ~graph ~requests () in
      let plain = Oneshot.run inst in
      let tap, events = Trace.tap () in
      let traced = Oneshot.run ~tap inst in
      let faulty = Oneshot.faulty ~retry:true ~plan inst in
      let outcome = Oneshot.explore inst in
      ...
    ]}
    Every driver returns the raw {!Engine.result}; the family's
    converter ([Counts.of_engine], [Protocol.of_engine]) turns it into
    outcomes and a verdict. *)

type 'r spec = {
  expected : int;  (** operations issued: the liveness target. *)
  injects : (int * int) list;
      (** [(op, round)] injection times for {!Span.tap}; one-shot
          specs pass [(v, 0)] per requester. *)
  op_of_completion : 'r -> int option;  (** the op a completion answers. *)
  check : 'r Engine.completion list -> (unit, string) result;
      (** the terminal check: every operation completed and the output
          meets the specification; the error names the first fault. *)
  monitors : unit -> 'r Monitor.t list;
      (** fresh incremental safety monitors, checked as the run goes. *)
}
(** A one-shot correctness specification over completion values ['r]. *)

type ('s, 'm, 'r) t = {
  graph : Countq_topology.Graph.t;  (** what the protocol runs on. *)
  config : Engine.config;  (** the protocol's default config. *)
  protocol : ('s, 'm, 'r) Engine.protocol;
  spec : 'r spec;
  op_of_msg : 'm -> int option;
      (** the op a message belongs to, for spans; [None] for messages
          that serve no single op (a shared token). *)
}
(** One protocol on one instance, paired with its spec. *)

val run :
  ?faults:Faults.runtime ->
  ?tap:('m, 'r) Engine.tap ->
  ('s, 'm, 'r) t ->
  'r Engine.result
(** The instance on {!Engine.run}, with its [faults] and [tap]. *)

type 'r report = {
  result : 'r Engine.result;  (** whatever completed (may be partial). *)
  injected : Faults.stats;  (** what the plan actually did. *)
  monitors : Monitor.report;
      (** the spec's safety monitors, then full completion and progress
          (liveness). *)
  retry : Reliable.stats option;
      (** retransmit-layer tally; [None] when [retry] was off. *)
}

val faulty :
  ?retry:bool ->
  ?ack_timeout:int ->
  ?max_retries:int ->
  ?next_hop:(round:int -> src:int -> dst:int -> int option) ->
  ?progress_budget:int ->
  ?dynamic:Dynamic.runtime ->
  ?tap:(unit, 'r) Engine.tap ->
  ?diagnose:(round:int -> string option) ->
  plan:Faults.plan ->
  ('s, 'm, 'r) t ->
  'r report
(** {!run} on an unreliable substrate with runtime monitors attached.
    [plan] is the fault schedule; [dynamic] an optional started topology
    schedule. With [retry] (default [false]) every send runs under
    {!Reliable.wrap} with [ack_timeout], [max_retries] and [next_hop]
    (which only [retry] reads). The progress monitor halts a stalled
    run after [progress_budget] silent rounds (default
    {!Reliable.progress_budget}) and asks [diagnose] for the cause.
    [tap] watches the run beside the monitors, with every message shown
    as [()] (under [retry] they are {!Reliable}'s envelopes). With
    [plan = Faults.none] and [retry = false] the result equals
    {!run}'s. *)

val async : ?delay:Async.delay_model -> ('s, 'm, 'r) t -> 'r Engine.result
(** The instance on the asynchronous engine with link delays [delay]
    (default [Constant 1]); the config is not used. [rounds] is the
    finish time, [expansion] 1 (event-time nodes already serialise at
    one message per time unit) and [max_link_backlog] 0. *)

val explore :
  ?max_configs:int ->
  ?pool:Countq_util.Parallel.pool ->
  ('s, 'm, 'r) t ->
  Explore.outcome
(** Every schedule of the instance on {!Explore.run}, with the spec's
    [check] on each quiescent configuration.
    @raise Explore.Violation as {!Explore.run} does. *)
