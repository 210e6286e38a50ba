(** A timeout-and-retransmit recovery layer over any protocol, direct
    or routed.

    [wrap protocol] returns a protocol that speaks the same logic over
    unreliable links. Every inner send becomes one envelope
    [(origin, dest, seq, payload)], numbered per (origin, dest) pair.
    Envelopes travel hop by hop along a next-hop function of the round:
    by default the direct link, so every envelope is one transmission
    and this is the classic hop-by-hop layer; given
    [Dynamic.next_hop sched], each envelope follows the shortest path
    usable in the round it travels in. A node that is not an
    envelope's [dest] forwards it at once, or parks it and tries again
    the next round while no hop exists. Only the [dest] acknowledges
    (the ack is routed back the same way), discards duplicates and
    releases payloads to the inner protocol strictly in sequence
    order. Unacknowledged payloads are retransmitted by their origin
    with exponential backoff (in rounds) up to a retry bound. The
    wrapped protocol therefore sees exactly the reliable FIFO channels
    of the paper's Section 2.1 model even while the {!Faults} layer is
    dropping, duplicating, delaying and reordering the physical
    messages underneath, or a {!Dynamic} schedule is cutting links.

    Costs are real and measurable: every payload earns an ack (≈2× the
    message count), and every retransmit timer is a [Wake] at its due
    round, which keeps the run alive until the timer fires — also when
    the ack came first, so a run may end with a few idle rounds after
    its last ack. Run the wrapped protocol like this:

    {[
      let protocol, h = Reliable.wrap inner in
      let res = Engine.run ~faults ~graph ~config ~protocol () in
      let overhead = Reliable.stats h in
      ...
    ]}

    Node state is structural: immutable maps keyed by peer and
    [(peer, seq)], immutable lists, and the inner protocol's pending
    wakes as a plain list. No handler mutates the state it is given,
    and a node that never sends or receives costs one small record. It
    runs under every front of the round kernel — {!Engine.run},
    {!Event_engine.run} or {!Shard}, at any shard count (the handle's
    counters are atomic, and the next-hop function must be safe to call
    from several domains, as {!Dynamic.next_hop} is). Wrap afresh for
    every run: the handle counts one run. The exhaustive [Explore]
    checker still rejects the layer, because it does not model wakes. *)

type ('s, 'm) state
(** Wrapper state: the inner ['s] plus per-peer sequencing maps. *)

type 'm msg
(** Wrapper message: an envelope holding a numbered payload or an ack. *)

type stats = {
  data_sent : int;  (** first transmissions of a payload. *)
  retransmits : int;
  acks_sent : int;
  duplicates_ignored : int;  (** payload copies discarded by dedup. *)
  gave_up : int;
      (** payloads abandoned after the retry budget; each one is a
          potential liveness violation for a {!Monitor.completes}
          monitor to catch. *)
  relayed : int;
      (** hops that did not go straight to the envelope's [dest]: 0 on
          the direct link. *)
}

type handle
(** Shared bookkeeping for one run of a wrapped protocol. *)

val wrap :
  ?ack_timeout:int ->
  ?max_retries:int ->
  ?next_hop:(round:int -> src:int -> dst:int -> int option) ->
  ('s, 'm, 'r) Engine.protocol ->
  (('s, 'm) state, 'm msg, 'r) Engine.protocol * handle
(** [wrap protocol] names the result ["<name>+retry"]. [ack_timeout]
    (default 8) is the number of rounds a sender waits for an ack
    before the first retransmit; retry [k] waits [ack_timeout * 2^k]
    rounds (exponential backoff), and after [max_retries] (default 5)
    unacknowledged retransmits the payload is abandoned. [next_hop
    ~round ~src ~dst] is the neighbour of [src] an envelope for [dst]
    should take when it travels in [round], or [None] if there is
    none yet (default: [Some dst], the direct link). Completion values
    pass through unchanged; {!stats} counts the retransmissions.
    @raise Invalid_argument if [ack_timeout < 1] or [max_retries < 0]. *)

val progress_budget : ?ack_timeout:int -> ?max_retries:int -> unit -> int
(** The silence a {!Monitor.progress} budget must outlast over a run
    wrapped with these knobs (at {!wrap}'s defaults unless given): a
    full backoff ladder with slack for round-trips,
    [max 512 (4 * ack_timeout * 2^max_retries)] rounds. *)

val stats : handle -> stats

val pp_stats : Format.formatter -> stats -> unit
(** The tally on one line; the relayed count is printed only when it
    is not 0. *)
