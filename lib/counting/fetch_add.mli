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
    bases), and a token sweep. The central and sweep runs are the
    counting machines themselves ({!Central.machine},
    {!Sweep.machine}) with the callers' increments; the combining tree
    is a machine of its own. All run on the same simulator and are
    validated against the specification below. *)

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

val run_central :
  ?config:Countq_simnet.Engine.config ->
  ?root:int ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:(int * int) list ->
  unit ->
  run_result
(** Central accumulator: {!Central.machine} with the callers'
    increments, so requests serialise at [root] (default 0) in arrival
    order and the root hands out running sums. With unit increments
    this is the central counter's one-shot run, message for message.
    Defaults as [Central.one_shot]. *)

val run_combining :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:(int * int) list ->
  unit ->
  run_result
(** Combining tree: DFS-order prefix sums, default expanded step of the
    tree degree (as for the counting combining tree). A machine of its
    own: it grants a base on every tree edge, where the counting
    combining tree skips subtrees without requesters, so it is an
    independent check of the counting tree's delays. *)

val run_sweep :
  ?config:Countq_simnet.Engine.config ->
  tree:Countq_topology.Tree.t ->
  requests:(int * int) list ->
  unit ->
  run_result
(** Token sweep: {!Sweep.machine} with the callers' increments, the
    token accumulating the running sum along the Euler tour. With unit
    increments this is the sweep counter's one-shot run. *)
