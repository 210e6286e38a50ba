(** A timeout-and-retransmit recovery layer over any protocol.

    [wrap protocol] returns a protocol that speaks the same logic over
    unreliable links: every payload is numbered per (sender, receiver)
    link and acknowledged hop-by-hop; unacknowledged payloads are
    retransmitted with exponential backoff (in rounds) up to a retry
    bound; receivers discard duplicates and release payloads to the
    inner protocol strictly in sequence order. The wrapped protocol
    therefore sees exactly the reliable FIFO channels of the paper's
    Section 2.1 model even while the {!Faults} layer is dropping,
    duplicating, delaying and reordering the physical messages
    underneath — the classic end-to-end argument, one hop at a time.

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

    It runs under every front of the round kernel — {!Engine.run},
    {!Event_engine.run} or {!Shard}, at any shard count (the handle's
    counters are atomic). The handle and the node states carry mutable
    tables: wrap afresh for every run (and do not
    feed a wrapped protocol to the exhaustive [Explore] checker, which
    assumes structural state). *)

type ('s, 'm) state
(** Wrapper state: the inner ['s] plus link sequencing tables. *)

type 'm msg
(** Wrapper message: a numbered payload or an ack. *)

type stats = {
  data_sent : int;  (** first transmissions of a payload. *)
  retransmits : int;
  acks_sent : int;
  duplicates_ignored : int;  (** payload copies discarded by dedup. *)
  gave_up : int;
      (** payloads abandoned after the retry budget; each one is a
          potential liveness violation for a {!Monitor.completes}
          monitor to catch. *)
}

type handle
(** Shared bookkeeping for one run of a wrapped protocol. *)

val wrap :
  ?ack_timeout:int ->
  ?max_retries:int ->
  ('s, 'm, 'r) Engine.protocol ->
  (('s, 'm) state, 'm msg, 'r) Engine.protocol * handle
(** [wrap protocol] names the result ["<name>+retry"]. [ack_timeout]
    (default 8) is the number of rounds a sender waits for an ack
    before the first retransmit; retry [k] waits [ack_timeout * 2^k]
    rounds (exponential backoff), and after [max_retries] (default 5)
    unacknowledged retransmits the payload is abandoned. Completion
    values pass through unchanged; {!stats} counts the
    retransmissions.
    @raise Invalid_argument if [ack_timeout < 1] or [max_retries < 0]. *)

val progress_budget : ?ack_timeout:int -> ?max_retries:int -> unit -> int
(** The silence a {!Monitor.progress} budget must outlast over a run
    wrapped with these knobs (at {!wrap}'s defaults unless given): a
    full backoff ladder with slack for round-trips,
    [max 512 (4 * ack_timeout * 2^max_retries)] rounds. *)

val stats : handle -> stats

val pp_stats : Format.formatter -> stats -> unit
