(** Composable runtime invariant monitors.

    The test suites mostly validate executions post-hoc
    ([Order.chain], [Counts.validate]); under fault injection that is
    not enough — a protocol can be wrong long before it terminates, or
    never terminate at all. A monitor watches the execution {e as it
    runs} through an {!Engine.tap} and maintains a verdict:

    - {b safety} monitors ([rank_monotonic], [distinct_ranks],
      [unique_completion], [chain_consistent]) flag a violation the
      instant a completion breaks the problem specification;
    - {b liveness} monitors ([progress], [completes]) detect the
      absence of good events: [progress] halts the engine with a
      structured [Stalled] verdict when nothing has been delivered or
      completed for a configurable round budget — instead of the
      engine's generic {!Engine.Round_limit_exceeded} blow-up — and
      [completes] fails at the end of the run if completions are
      missing.

    Monitors are generic in the completion value ['r]; extractors
    ([rank], [op], [pred]) adapt them to a concrete protocol. A
    monitor holds hidden mutable state: create fresh monitors for
    every run. *)

type kind = Safety | Liveness

type status =
  | Pass
  | Violated of string  (** a safety property broke; the message says how. *)
  | Stalled of { round : int; last_progress : int; detail : string option }
      (** liveness verdict: no progress since [last_progress] when the
          budget ran out at [round]. [detail], when present, names the
          cause a diagnosis hook identified at the stall — e.g. the
          network partition that walled off the token holder. *)

type outcome = { name : string; kind : kind; status : status }

type report = outcome list

type 'r t
(** One named monitor over completions of type ['r]. *)

val name : 'r t -> string
val kind : 'r t -> kind

(** {1 Safety monitors} *)

val rank_monotonic : rank:('r -> int) -> 'r t
(** ["safety-rank-monotonicity"]: at every node, successive completed
    ranks must strictly increase (the long-lived counter rule; trivial
    for one-shot runs where each node completes once). *)

val distinct_ranks : rank:('r -> int) -> 'r t
(** ["safety-distinct-ranks"]: no rank value may be handed out twice
    across the whole system — the heart of the counting
    specification. *)

val unique_completion : node_of:(node:int -> 'r -> int) -> 'r t
(** ["safety-unique-completion"]: no logical requester may complete
    twice in a one-shot run. [node_of] maps a completion (delivered at
    engine node [node]) to the requester it answers — [fun ~node _ ->
    node] when completions surface at the requester itself. *)

val chain_consistent :
  op:('r -> int * int) -> pred:('r -> (int * int) option) -> 'r t
(** ["safety-chain-consistency"]: the online fragment of the total
    order check for queuing — no operation completes twice, no two
    operations claim the same predecessor (including the initial
    token, [pred = None]), and no operation is its own predecessor.
    Operations are [(origin, seq)] pairs. The full chain coverage
    check still runs post-hoc via [Order.chain]. *)

(** {1 Liveness monitors} *)

val progress : ?budget:int -> ?diagnose:(round:int -> string option) -> unit -> 'r t
(** ["liveness-progress"]: if [budget] (default 512) consecutive
    rounds pass with no delivery and no completion while the run is
    still alive, the verdict becomes [Stalled] and the monitor asks
    the engine to halt. Pick a budget larger than the longest
    legitimate silent wait — e.g. a retransmit layer's maximum backoff
    — or the monitor will kill a run that was about to recover.
    [diagnose] is invoked once, at the stall, to attach a cause to the
    verdict (e.g. [Dynamic.describe_cut] of the token holder). *)

val completion_progress :
  ?budget:int -> ?diagnose:(round:int -> string option) -> unit -> 'r t
(** ["liveness-completion-progress"]: like {!progress}, but only
    completions count as progress — the stall detector for gossiping
    protocols whose periodic re-flooding never lets the network go
    silent even when a partition has frozen the logical queue. *)

val completes : expected:int -> 'r t
(** ["liveness-completion"]: at the end of the run, fewer than
    [expected] completions is a violation — the monitor that fires
    when a dropped message silently starves an operation and the
    network simply goes quiet. *)

(** {1 Attaching and reporting} *)

val tap : 'r t list -> 'r Engine.tap
(** Fuse the monitors into one active engine tap (it sees every round:
    [progress] counts idle ones). The tap requests [`Halt] as soon as
    any monitor does. *)

val finalise : 'r t list -> report
(** End-of-run verdicts, in the order given. Run this after the engine
    returns; it triggers the end-of-run checks ([completes]). *)

val all_pass : report -> bool
val safety_ok : report -> bool
val liveness_ok : report -> bool
val stalled : report -> bool
(** Whether any monitor reported [Stalled]. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
