(** Execution tracing: record a run's events through a passive
    {!Engine.tap}, and render them as an ASCII timeline.

    {!tap} logs every delivery, queued send and completion, on any
    engine front and at any shard count, without changing the run.
    Intended for small runs — demos, debugging, and the [countq trace]
    CLI subcommand that shows the arrow protocol's path reversal
    happening round by round. *)

type event =
  | Received of { round : int; node : int; src : int }
  | Queued_send of { round : int; node : int; dst : int }
  | Completed of { round : int; node : int }

val tap : unit -> ('m, 'r) Engine.tap * (unit -> event list)
(** [tap ()] is [(t, events)]: [t] is a passive tap recording
    [Queued_send] at each [on_enqueue], [Received] at each
    [on_deliver] and [Completed] at each [on_complete];
    [events ()] returns everything recorded so far in the tap's
    callback order, which is chronological. The log accumulates across
    the runs [t] is attached to: make one per run. *)

val render : n:int -> event list -> string
(** [render ~n events] draws a node-by-round timeline: rows are nodes
    [0 .. n-1], columns are rounds; cell characters are [*] (completed),
    [R] (received), [s] (queued a send), [+] (received and queued),
    [.] (idle). Multiple events in one cell favour the most
    informative character. *)

val to_jsonl : event list -> string
(** One JSON object per line, in input order: [{"type":"recv","round":…,
    "node":…,"src":…}], [{"type":"send",…,"dst":…}] or
    [{"type":"complete","round":…,"node":…}]. *)

val of_jsonl : string -> (event list, string) result
(** Parse {!to_jsonl} output (blank lines ignored); inverse of
    {!to_jsonl}, so [of_jsonl (to_jsonl es) = Ok es]. [Error] carries
    a message naming the first offending line. *)

val pp_event : Format.formatter -> event -> unit
