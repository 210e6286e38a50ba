(** Shared result and validation machinery for counting protocols.

    A correct one-shot counting execution over request set [R] must
    hand each requester exactly one count, the counts received must be
    exactly [{1, 2, …, |R|}], and non-requesters receive nothing
    (Section 2.2). *)

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
