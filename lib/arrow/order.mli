(** Validation of queuing outcomes: do the reported predecessors form a
    single total order?

    A correct queuing execution over request set [R] must deliver, for
    each operation, a distinct predecessor, with exactly one operation
    queued behind the initial tail, and following successor links from
    the initial tail must enumerate all of [R] (Section 2.2). This is
    the safety property every queuing protocol in this repository is
    tested against. *)

type error =
  | Duplicate_op of Types.op  (** an operation has two outcomes. *)
  | Duplicate_pred of Types.pred  (** two operations share a predecessor. *)
  | Missing_op of Types.op
      (** an outcome names a predecessor that is not itself queued and
          is not [Init]. *)
  | No_head  (** no operation is queued behind [Init] (with [R] ≠ ∅). *)
  | Broken_chain of { covered : int; total : int }
      (** successor links from [Init] reach only [covered] of [total]. *)

val pp_error : Format.formatter -> error -> unit

val chain : Types.outcome list -> (Types.op list, error) result
(** [chain outcomes] reconstructs the total order (first queued
    operation first). [Ok []] for no outcomes. *)

val of_completions :
  (Types.op * Types.pred) Countq_simnet.Engine.completion list ->
  Types.outcome list
(** One outcome per [(op, predecessor)] completion, found at the
    completing node; [round] is the completion round (the one-shot
    delay: every operation issues at round 0). *)

val spec :
  requests:int list -> (Types.op * Types.pred) Countq_simnet.Oneshot.spec
(** The queuing specification over one-shot requests [requests], for
    every queuing protocol's [one_shot] instance: the terminal check is
    "every request completed and {!chain} succeeds"; the safety
    monitor is [Monitor.chain_consistent], {!chain}'s online fragment.
    Completions name their op by its origin node. *)

val long_lived_spec :
  schedule:int array array -> (Types.op * Types.pred) Countq_simnet.Oneshot.spec
(** {!spec} over every operation of an issue schedule
    ([Countq_simnet.Engine.schedule]), for [Protocol.long_lived]: all
    of them complete, in one chain. Operation [seq] of [origin] is
    named [seq * n + origin] and injected at its issue round. *)

val is_valid : Types.outcome list -> bool
(** Whether {!chain} succeeds. *)

val total_delay : Types.outcome list -> int
(** Sum of per-operation queuing delays (Eq. (1)'s inner sum). *)

val max_delay : Types.outcome list -> int
(** Largest per-operation delay. *)

val respects_real_time :
  issue:(Types.op -> int) ->
  complete:(Types.op -> int) ->
  Types.op list ->
  bool
(** [respects_real_time ~issue ~complete order] checks the
    linearizability-style condition for a long-lived execution: if
    operation [a] completed strictly before operation [b] was issued
    (their executions did not overlap), then [a] precedes [b] in the
    total order.

    The arrow protocol does {e not} guarantee this — Raymond-style path
    reversal is famously non-FIFO: a node near (or holding) the current
    tail can issue late and still slot in ahead of remote operations
    whose [queue()] messages are still propagating, even ones that
    already discovered {e their} predecessors. The test suite pins a
    concrete counterexample, and this checker lets experiments quantify
    how often inversions happen. (Safety — one total order — is
    unaffected; this is a fairness property.) *)
