(** The round kernel: the one implementation of the Section 2.1 phase
    order behind {!Engine.run}, {!Event_engine.run}, {!Shard.run} and
    {!Shard.run_implicit}.

    Each entry point picks [n], a [neighbors] function and (for
    {!Shard}) a partition, and calls {!run}. The types below are
    re-exported by {!Engine} and {!Event_engine}, where they are
    documented; user code should name them there. DESIGN.md §4
    describes the phase order, the two slot layouts and the shard
    barrier. *)

type arbiter =
  | Round_robin
  | Lowest_sender_first
  | Custom of (round:int -> node:int -> candidates:int list -> int)

type config = {
  receive_capacity : int;
  send_capacity : int;
  arbiter : arbiter;
  max_rounds : int;
}

type ('m, 'r) action = Send of int * 'm | Complete of 'r | Wake of int

type ('s, 'm, 'r) protocol = {
  name : string;
  initial_state : int -> 's;
      (** Must be pure: it may run on any lane. Runs with [?starters]
          call it only for touched nodes, at first touch — plus once for
          node 0 in a sharded run, as the filler of untouched slots. *)
  on_start : node:int -> 's -> 's * ('m, 'r) action list;
  on_receive :
    round:int -> node:int -> src:int -> 'm -> 's -> 's * ('m, 'r) action list;
  on_wake : round:int -> node:int -> 's -> 's * ('m, 'r) action list;
}

val no_wake : round:int -> node:int -> 's -> 's * ('m, 'r) action list

val check_wake : round:int -> earliest:int -> int -> unit
(** The [Invalid_argument] every engine raises for a [Wake r] with
    [r < earliest], asked for by a handler running in [round]. *)

type 'r completion = { node : int; round : int; value : 'r }

type 'r result = {
  completions : 'r completion list;
  rounds : int;
  messages : int;
  max_link_backlog : int;
  expansion : int;
}

exception Not_a_neighbor of { node : int; dst : int }

exception
  Round_limit_exceeded of {
    limit : int;
    outstanding : int;
    queued : int;
    held : int;
    busiest : (int * int) list;
  }

type 'r tap = {
  passive : bool;
  on_transmit : round:int -> src:int -> dst:int -> unit;
  on_backlog : round:int -> node:int -> backlog:int -> unit;
  on_deliver : round:int -> src:int -> dst:int -> unit;
  on_complete : round:int -> node:int -> value:'r -> unit;
  on_inject : round:int -> node:int -> unit;
  on_drop : round:int -> src:int -> dst:int -> unit;
  on_duplicate : round:int -> src:int -> dst:int -> unit;
  on_delay : round:int -> src:int -> dst:int -> unit;
  on_down_drop : round:int -> src:int -> dst:int -> unit;
  on_round_end : round:int -> in_flight:int -> [ `Continue | `Halt ];
}

val no_tap : 'r tap
val both : 'r tap -> 'r tap -> 'r tap

type ('s, 'm, 'r) injection = {
  at : int;
  node : int;
  inject : 's -> 's * ('m, 'r) action list;
}

type stats = {
  mutable touched : int;
  mutable peak_in_flight : int;
  mutable executed_rounds : int;
}

val top_loaded : ?k:int -> int array -> (int * int) list
val top_loaded_pairs : ?k:int -> (int * int) list -> (int * int) list

val run :
  who:string ->
  ?part:Countq_topology.Partition.t ->
  ?pool:Countq_util.Parallel.pool ->
  ?faults:Faults.runtime ->
  ?dynamic:Dynamic.runtime ->
  ?tap:'r tap ->
  ?sink:('r completion -> unit) ->
  ?injections:('s, 'm, 'r) injection array ->
  ?halt_after:int ->
  ?stats:stats ->
  ?starters:int list ->
  n:int ->
  degree:(int -> int) ->
  neighbors:(int -> int array) ->
  config:config ->
  protocol:('s, 'm, 'r) protocol ->
  unit ->
  'r result
(** Run [protocol] on nodes [0 .. n-1] with sorted duplicate-free
    adjacency [neighbors] ([degree v] is the length of [neighbors v];
    [neighbors] is only read for nodes the run touches). [who] prefixes
    every [Invalid_argument] message (the entry point's name).

    [part] splits the nodes across shards; absent, or with one shard,
    every phase runs inline on the calling domain. Worker domains come
    from [pool]'s lane budget when given, else up to
    [Domain.recommended_domain_count () - 1] are spawned.

    The slot layout follows from the arguments alone: a single-shard
    run with [starters] assigns slots on first touch; every other run
    pre-assigns slot = node. Either way, queued messages sit in one
    pool of cells per shard, so a quiet node holds no buffers.
    [tap] follows the one contract documented at {!Engine.tap}, at
    every shard count. All optional arguments keep the meaning
    documented on the entry points. *)
