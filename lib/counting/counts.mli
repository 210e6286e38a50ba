(** Shared result and validation machinery for counting protocols.

    A correct one-shot counting execution over request set [R] must
    hand each requester exactly one count, the counts received must be
    exactly [{1, 2, …, |R|}], and non-requesters receive nothing
    (Section 2.2). *)

(** {2 Long-lived runs}

    A long-lived counter issues operations over time from an issue
    schedule ({!Countq_simnet.Engine.schedule}); a one-shot run is the
    schedule in which every requester issues once, at round 0. Every
    counting machine with a schedule names an operation by one int,
    {!op}, and completes it with [(op, count)] at its origin. *)

val op : n:int -> node:int -> seq:int -> int
(** [seq * n + node]: node [node]'s operation [seq] (its issue order)
    on an [n]-node graph. A one-shot operation ([seq = 0]) is named by
    its origin, so one-shot messages carry what they always did. *)

val origin : n:int -> int -> int
(** The node that issued an {!op}, where its result is due. *)

type long_lived_outcome = {
  node : int;  (** the issuing processor. *)
  seq : int;  (** which of the node's operations (issue order). *)
  count : int;  (** the rank received. *)
  delay : int;  (** rounds from issue to receipt of the rank. *)
}

type long_lived_result = {
  outcomes : long_lived_outcome list;  (** one per completion, in order. *)
  counts_exact : bool;
      (** every scheduled operation completed exactly once, nothing
          else completed, and the ranks are exactly
          [{1 .. |arrivals|}]. *)
  rounds : int;
  messages : int;
  total_delay : int;
  max_delay : int;
}

val of_long_lived :
  schedule:int array array ->
  (int * int) Countq_simnet.Engine.result ->
  long_lived_result
(** Convert a long-lived run of [schedule] (as built by
    {!Countq_simnet.Engine.schedule}) whose completion values are
    [(op, count)]. Each delay is measured from the op's issue round,
    an O(1) lookup; an op the schedule does not name makes
    [counts_exact] false and has its delay measured from round 0. *)

val long_lived_spec :
  schedule:int array array -> (int * int) Countq_simnet.Oneshot.spec
(** The counting specification over every {!op} of [schedule], each
    injected at its issue round: the terminal check is
    {!of_long_lived}'s [counts_exact], the safety monitors
    [Monitor.distinct_ranks] and [unique_completion] per op (a node's
    ops may overlap, so its ranks need not rise). *)

(** {2 One-shot runs} *)

type outcome = {
  node : int;  (** the requesting processor. *)
  count : int;  (** the rank it received. *)
  round : int;  (** its counting delay [ℓ_C] in rounds. *)
}

type error =
  | Unrequested_count of int  (** a non-requester received a count. *)
  | Duplicate_node of int  (** a requester received two counts. *)
  | Missing_node of int  (** a requester received no count. *)
  | Bad_count_set  (** counts are not exactly [{1 .. |R|}]. *)

val pp_error : Format.formatter -> error -> unit

val validate : requests:int list -> outcome list -> (unit, error) result
(** Check the Section 2.2 counting specification. *)

type run_result = {
  outcomes : outcome list;
  valid : (unit, error) result;
  rounds : int;  (** makespan in rounds. *)
  messages : int;
  total_delay : int;  (** Eq. (3)'s inner sum for this run. *)
  max_delay : int;
  expansion : int;
}

val of_engine :
  requests:int list -> (int * int) Countq_simnet.Engine.result -> run_result
(** Convert an engine result whose completion values are
    [(requesting node, count)] pairs. The completion may be recorded at
    any node (protocols complete at the requester, but this is not
    assumed here). Asynchronous runs convert the same way: see
    [Countq_simnet.Oneshot.async]. *)

val spec : requests:int list -> (int * int) Countq_simnet.Oneshot.spec
(** The counting specification over one-shot requests [requests], for
    every counting protocol's [one_shot] instance: the terminal check
    is {!validate}; the safety monitors are [Monitor.distinct_ranks],
    [rank_monotonic] and [unique_completion]. Completions name their
    op by the requesting node. *)

val pp_outcome : Format.formatter -> outcome -> unit
