(** Distributed fetch-and-add: the "adding networks" direction the
    paper's conclusion raises (its reference [5], Fatourou–Herlihy).

    Each participating processor contributes a non-negative increment;
    operations are arranged into a total order and every processor
    receives the {e sum of the increments ordered before its own} (the
    classic fetch&add return value). Distributed counting is the
    special case where every increment is 1 and the return value is
    the rank minus one — so comparing the delays of fetch&add against
    counting and queuing probes exactly the Section 5 question of how
    coordination problems of different strength separate.

    Three implementations mirror the counting portfolio: a central
    accumulator, a combining tree (upsweep sums, downsweep prefix
    bases), and a token sweep: the counting machines themselves
    ({!Central.machine}, {!Combining.machine}, {!Sweep.machine}) fed
    the callers' increments, as [Countq_simnet.Oneshot] instances over
    the specification below:
    {[
      Fetch_add.of_engine ~requests
        (Oneshot.run (Fetch_add.combining ~tree ~requests ()))
    ]} *)

type outcome = {
  node : int;
  increment : int;
  before : int;  (** sum of increments ordered before this operation. *)
  round : int;
}

type error =
  | Unrequested of int
  | Duplicate_node of int
  | Missing_node of int
  | Wrong_increment of int  (** returned increment differs from issued. *)
  | Inconsistent_prefixes
      (** no ordering of the operations yields these return values. *)

val pp_error : Format.formatter -> error -> unit

val validate : requests:(int * int) list -> outcome list -> (unit, error) result
(** [validate ~requests outcomes]: [requests] pairs each node with its
    increment (all increments [>= 0]); checks that some total order of
    the operations produces exactly the reported exclusive prefix
    sums. *)

type run_result = {
  outcomes : outcome list;
  valid : (unit, error) result;
  rounds : int;
  messages : int;
  total_delay : int;
  max_delay : int;
  expansion : int;
}

val of_engine :
  requests:(int * int) list -> (int * int) Countq_simnet.Engine.result -> run_result
(** Read a run of an instance below (completions [(node, sum)], the
    running sum through the node's own increment) and {!validate} it.

    Each instance is a counting machine's one-shot instance fed the
    increments of [requests], checked by {!validate} and one completion
    per requester; with unit increments its run is the counting run,
    message for message. Each raises [Invalid_argument] on a request
    out of range, a duplicate request node or a negative increment. *)

val central :
  ?config:Countq_simnet.Engine.config ->
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:(int * int) list ->
  unit ->
  (Central.checker_state, Central.checker_msg, int * int) Countq_simnet.Oneshot.t
(** {!Central.machine}: requests serialise at [root] (default 0) in
    arrival order and the root hands out running sums. Defaults as
    [Central.one_shot]. *)

val combining :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:(int * int) list ->
  unit ->
  (Combining.checker_state, Combining.checker_msg, int * int)
  Countq_simnet.Oneshot.t
(** {!Combining.machine}: DFS-order running sums, granted only to
    subtrees that hold a requester. Defaults as [Combining.one_shot]
    (an expanded step of the tree degree). *)

val sweep :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:(int * int) list ->
  unit ->
  (Sweep.checker_state, Sweep.checker_msg, int * int) Countq_simnet.Oneshot.t
(** {!Sweep.machine}: the token accumulates the running sum along the
    Euler tour. Defaults as [Sweep.one_shot]. *)
