(** Causal operation spans: the per-operation view of a run.

    The paper's cost measure (Section 2.2) charges each operation its
    {e individual} delay — the rounds from injection to completion —
    and the Ω(n²)/O(n) separation between counting and queuing is a
    statement about how those delays distribute. A [span] reconstructs
    that per-operation story from a run: the round the operation was
    injected, every message hop it caused (with the queueing wait each
    hop suffered on its FIFO link), and the round it completed.

    Like {!Trace}, spans come from a passive {!Engine.tap}, so they
    work on every engine front and at every shard count, and the run is
    the same with or without them. The caller says which operation (if
    any) a message or completion belongs to via [op_of_msg] /
    [op_of_completion], and the tap stitches each enqueue to a delivery
    per directed link in FIFO order: the k-th delivery of an
    operation's messages on a link is matched with its k-th send. That
    is exact while links are FIFO. A delay fault can let a later send
    overtake a held one on the same link, and a duplicate adds a
    delivery no send matches; an operation with several messages on
    that link then gets approximate hop waits. Protocols whose messages
    genuinely serve no single operation (e.g. the sweep protocol's
    shared token) return [None] from [op_of_msg] and get spans with
    injection and completion only.

    Operation ids must be unique per run; for the one-shot scenarios
    every node issues exactly one operation, so the origin node id
    serves. *)

type hop = {
  h_src : int;
  h_dst : int;
  queued_round : int;
      (** round in which the send joined the sender's outbox ([0] = at
          issue time). The message leaves it the following round at the
          earliest. *)
  delivered_round : int;
      (** round in which the receiver's protocol processed it. *)
}

type t = {
  op : int;
  inject_round : int;
      (** round of the first action attributed to the operation. *)
  hops : hop list;  (** in delivery order. *)
  completion_round : int option;
      (** [None] if the run ended (crash, drop, halt) before the
          operation completed. *)
}

val hop_wait : hop -> int
(** [delivered_round - queued_round - 1]: the rounds the message spent
    queued behind link contention (or parked by a fault delay) beyond
    the model's one-round transit. 0 on an uncontended hop. *)

val delay : t -> int option
(** [completion_round - inject_round], the operation's delay in the
    paper's sense; [None] for an incomplete span. *)

val tap :
  ?injects:(int * int) list ->
  op_of_msg:('m -> int option) ->
  op_of_completion:('r -> int option) ->
  unit ->
  ('m, 'r) Engine.tap * (unit -> t list)
(** [tap ~op_of_msg ~op_of_completion ()] is [(t, spans)]: [t] is a
    passive tap ({!Engine.both} composes it with others); [spans ()]
    returns the spans reconstructed so far, in operation-id order, hops
    chronological.

    [injects] pre-registers [(op, round)] pairs as known injection
    times — one-shot runners pass [(v, 0)] per requester. Without it
    an operation's injection is inferred as the round of the first
    action attributed to it, which is correct for protocols that send
    (or complete) at issue time but degenerates for ops whose only
    attributed event is a late completion (e.g. the sweep, whose
    shared token maps to no single op). Pre-registered ops also
    surface as incomplete spans when a faulty run strands them.

    A fault-duplicated copy has no matching send; its hop is recorded
    with [queued_round = delivered_round - 1] (zero wait). The tap
    accumulates across the runs it is attached to: make one per run. *)

val to_jsonl : t list -> string
(** One [{"type":"span", …}] object per line: fields [op], [inject],
    [complete] (absent on incomplete spans), [delay] (likewise), and
    [hops] — an array of [{"src","dst","queued","delivered","wait"}].
    Each line parses with {!Countq_util.Json.of_string}. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: op, inject → completion, hop count, worst
    hop wait. *)
