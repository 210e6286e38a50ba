(** Distributed counting via a bitonic counting network embedded on the
    interconnection graph.

    The initialisation step (free, Section 2.2) builds [Bitonic[w]] and
    assigns every balancer to a host processor; each output wire also
    gets a host that hands out the ranks [wire + k·w + 1]. A counting
    request becomes a token: it enters the network on input wire
    [origin mod w], hops from balancer host to balancer host (multi-hop
    routes cost one round per link, and hosts receive at most one
    message per round, so congestion at popular hosts is charged
    honestly), exits on some output wire, picks up its rank at the
    wire's host, and a reply is routed back to the origin.

    Because [Bitonic[w]] is a counting network, the ranks handed out at
    quiescence are exactly [{1 .. |R|}] no matter how the messages
    interleave — the property the validation layer re-checks on every
    run. *)

type placement = {
  balancer_host : int -> int;  (** balancer id -> host processor. *)
  output_host : int -> int;  (** output wire -> host processor. *)
}

val round_robin_placement :
  net:Bitonic.t -> n:int -> seed:int64 -> placement
(** Spread balancers over processors: a deterministic shuffle of
    balancer ids onto hosts, cycling when there are more balancers
    than processors; output wire [i] is hosted on the host of the
    last balancer feeding it (falling back to [i mod n] when
    [width = 1]). *)

val default_width : int -> int
(** A reasonable network width for [n] processors: the largest power of
    two [<= max 2 n], capped at 64 (beyond that, depth dominates at the
    scales this repository simulates). *)

val run :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  ?net:Bitonic.t ->
  ?placement:placement ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  Counts.run_result
(** [run ~graph ~requests ()] executes the one-shot scenario.
    [width] defaults to [default_width n]; [net] to
    [Bitonic.create ~width] — pass [Periodic.create ~width] (or any
    balancing network sharing the representation) to embed a different
    structure; [route] defaults to all-pairs shortest-path routing;
    [placement] to {!round_robin_placement} with a fixed seed. Default
    config is the base model (1/1).
    @raise Invalid_argument on a bad width/net combination or bad
    requests. *)

type checker_state
type checker_msg
(** Abstract internals, exposed for engine-level harnesses. *)

val one_shot_protocol :
  ?width:int ->
  ?net:Bitonic.t ->
  ?placement:placement ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol value ({!run} without the engine invocation, same
    defaults), for benchmarks and equivalence harnesses that need to
    drive the same protocol through several engines. *)

val one_shot :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  ?net:Bitonic.t ->
  ?placement:placement ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The one-shot instance over {!Counts.spec} with {!run}'s defaults,
    for the {!Countq_simnet.Oneshot} drivers; every token and reply
    names its op's origin, so spans follow each op hop by hop. *)

type long_lived_outcome = {
  node : int;  (** requesting processor. *)
  seq : int;  (** which of the node's operations (issue order). *)
  count : int;  (** the rank received. *)
  delay : int;  (** rounds from issue to receipt. *)
}

type long_lived_result = {
  outcomes : long_lived_outcome list;
  counts_exact : bool;
      (** the multiset of ranks handed out is exactly [{1 .. m}] —
          the quiescent counting-network guarantee, which holds for
          arbitrary arrival patterns. *)
  rounds : int;
  messages : int;
}

val run_long_lived :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  ?net:Bitonic.t ->
  ?placement:placement ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  arrivals:(int * int) list ->
  unit ->
  long_lived_result
(** The long-lived scenario counting networks were designed for:
    [arrivals] is a list of [(node, round)] pairs ([round >= 0]; a node
    may appear many times). Each operation becomes a token injected at
    its issue round; at quiescence the ranks handed out are exactly
    [{1 .. m}] no matter how the tokens interleaved.
    @raise Invalid_argument on bad arrivals. *)
