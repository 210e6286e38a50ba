(** Asynchronous (discrete-event) execution of the same protocols.

    Section 2.1 notes that the paper's lower bounds carry over to the
    general asynchronous model, where link delays have no fixed bound;
    upper bounds degrade because an adversary can sequentialise
    everything. This engine runs the very same {!Engine.protocol}
    values under per-message link delays instead of lockstep rounds,
    so safety properties (total orders, exact count sets) can be
    checked — and delay sensitivity measured — far outside the
    synchronous model the bounds were proved in.

    Model: each message sent on a link receives a delay from the
    {!delay_model}; links stay FIFO (a message never overtakes an
    earlier one on the same link); each node still processes at most
    one message per time unit and emits at most one message per time
    unit (the Section 2.1 constraint, translated to event time). With
    [Constant 1] delays the timing rules coincide with the synchronous
    engine's; only tie-breaking among simultaneous arrivals differs
    (FIFO event order here, round-robin there), so delay {e totals} of
    contention-bound protocols match while individual interleavings may
    not — the test suite pins down both facts. *)

type delay_model =
  | Constant of int  (** every link delay is the given value (>= 1). *)
  | Uniform of { min : int; max : int; seed : int64 }
      (** i.i.d. integer delays in [[min, max]], deterministic in
          [seed]. *)
  | Per_message of (src:int -> dst:int -> send_time:int -> int)
      (** arbitrary (adversarial) delay oracle; result clamped to
          [>= 1]. *)

type 'r result = {
  completions : 'r Engine.completion list;
      (** [round] is the event time of completion. *)
  finish_time : int;  (** time of the last event. *)
  messages : int;
}

val run :
  graph:Countq_topology.Graph.t ->
  delay:delay_model ->
  ?max_events:int ->
  ?faults:Faults.runtime ->
  protocol:('s, 'm, 'r) Engine.protocol ->
  unit ->
  'r result
(** [run ~graph ~delay ~protocol ()] executes to quiescence: no message
    in flight and no wake pending. A [Wake t] action is an event at
    time [t]: the node's [on_wake] runs at [max t (f + 1)], where [f]
    is the last time the node processed an event, once per node however
    many wakes name [t]; a wake that falls due while its node is
    crashed moves to the next time unit, or is dropped if the node is
    crashed for good. Wakes must name a time at or
    after the handler's own, as in the synchronous engine (1 from
    [on_start], [now] from a receive, after [now] from a wake).
    [max_events] (default 10M) guards against livelock.

    [faults] injects the same per-transmission decisions as the
    synchronous engine: fault rounds are read as event times, a Delay
    spike adds to the link delay {e before} the FIFO no-overtake clamp
    (so delays slow a link without reordering it), and arrivals at a
    crashed node are discarded. With no [faults] (or a started
    {!Faults.none}) the execution is identical to the fault-free
    engine's.
    @raise Invalid_argument on a bad delay model or a wake that names
    a time before the handler's own. *)
