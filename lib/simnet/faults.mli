(** Deterministic fault injection for both simulation engines.

    The paper's model (Section 2.1) assumes perfectly reliable FIFO
    links; every theorem-shape check in the experiment suite is
    therefore validated on a fault-free substrate. This module supplies
    the misbehaving substrate: a {!plan} describes, ahead of time and as
    a pure function of its seed, which transmissions are dropped,
    duplicated or delayed and which nodes crash (and possibly recover)
    at which rounds. Both {!Engine.run} and {!Async.run} accept a
    started plan through their [?faults] argument; with no plan — or
    with {!none} — their behaviour is bit-identical to the fault-free
    engines (a regression test pins this down).

    Determinism contract: a plan consults only its own seeded generator
    and the per-run transmission counter, so the same (topology,
    protocol, plan) triple always yields the same execution. Plans are
    replayable across engines, though the transmission order (and hence
    which concrete message a probabilistic fault hits) naturally
    differs between the synchronous and asynchronous engines. *)

type decision =
  | Deliver  (** transmit normally. *)
  | Drop  (** the message vanishes. *)
  | Duplicate  (** the receiver gets two copies. *)
  | Delay of int
      (** delivery is postponed by the given number of rounds (>= 1);
          later traffic on the same link may overtake it, so a delay
          spike also injects reordering into the synchronous engine. *)

type crash = {
  node : int;
  at_round : int;  (** first round the node is down. *)
  recover_at : int option;
      (** first round it is back up; [None] = crashed forever. While
          down a node neither sends, receives nor wakes — a wake that
          falls due waits for its first round back up, or is dropped
          if it never comes back; messages addressed to it are dropped
          (its local state survives). *)
}

type plan
(** A named, immutable fault schedule. *)

val none : plan
(** The empty plan: every decision is [Deliver], nobody crashes. *)

val is_none : plan -> bool
val label : plan -> string
val crashes : plan -> crash list

val random :
  label:string ->
  seed:int64 ->
  ?drop:float ->
  ?duplicate:float ->
  ?delay:float ->
  ?delay_max:int ->
  ?crashes:crash list ->
  unit ->
  plan
(** Independent per-transmission faults: with probability [drop] the
    message is lost, else with probability [duplicate] it is doubled,
    else with probability [delay] it is postponed by a uniform spike in
    [1 .. delay_max] (default 5). All probabilities default to 0 and
    must lie in [0, 1]. Driven by a splitmix64 stream from [seed]: the
    plan is a pure function of its seed.
    @raise Invalid_argument on a probability outside [0, 1] or
    [delay_max < 1]. *)

val drop_nth : ?label:string -> int -> plan
(** [drop_nth i] drops exactly the [i]-th transmission of the run
    (0-based) and delivers everything else — the sharpest single-fault
    probe: one lost message, otherwise a perfect network. *)

val dup_nth : ?label:string -> int -> plan
(** Duplicate exactly the [i]-th transmission. *)

val delay_nth : ?label:string -> by:int -> int -> plan
(** Postpone exactly the [i]-th transmission by [by] rounds. *)

val crash_only : label:string -> crash list -> plan
(** Perfect links, but the given nodes crash. *)

val oracle :
  label:string ->
  ?crashes:crash list ->
  (src:int -> dst:int -> round:int -> index:int -> decision) ->
  plan
(** Fully adversarial plan: the function sees the link, the round and
    the global 0-based transmission index and returns the decision. It
    must be pure — the engines may be re-run for baselines. *)

val named : (string * plan) list
(** The registry the CLI exposes ([countq faults --plan NAME]):
    [none], [drop-first], [lossy] (5% drops), [very-lossy] (20%),
    [dup] (10% duplicates), [jitter] (30% delay spikes up to 5),
    [chaos] (drops + duplicates + jitter), [crash-root] (node 0 dies at
    round 3) and [crash-restart] (node 0 down for rounds 3–39). *)

val find : string -> plan option
(** Case-insensitive lookup in {!named}. *)

(** {1 Runtime} *)

type stats = {
  transmissions : int;  (** decisions taken (crash drops excluded). *)
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_dropped : int;
      (** messages discarded because the receiver was down. *)
}

val no_stats : stats

type runtime
(** Mutable per-run state: the plan's RNG stream position, the
    transmission counter and the tallies. Create one per execution. *)

val start : plan -> runtime

val plan : runtime -> plan

val decide : runtime -> src:int -> dst:int -> round:int -> decision
(** Consume the next transmission decision. Called by the engines once
    per message leaving a sender (duplicates injected by the plan do
    not themselves re-enter [decide]). *)

val crashed : runtime -> node:int -> round:int -> bool

val crashed_for_good : runtime -> node:int -> round:int -> bool
(** Down in [round] by a crash with [recover_at = None]: the node never
    comes back, so the engines drop a wake that falls due on it instead
    of moving it to the next round. *)

val note_crash_drop : runtime -> unit
(** Engines record a message discarded at a crashed receiver. *)

val stats : runtime -> stats

val pp_stats : Format.formatter -> stats -> unit
