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

type checker_state
type checker_msg
(** Abstract internals, exposed for engine-level harnesses. The state
    is immutable (balancer toggles and exit counters are persistent
    [Int] sets and maps), so the model checker can branch from it. *)

val one_shot_protocol :
  ?width:int ->
  ?net:Bitonic.t ->
  ?placement:placement ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  requests:int list ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Engine.protocol
(** The raw protocol value ({!one_shot} without its spec and config,
    same defaults), for benchmarks and equivalence harnesses that need to
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
(** The one-shot instance over {!Counts.spec}, for the
    {!Countq_simnet.Oneshot} drivers: the long-lived machine of
    {!long_lived} with every requester issuing once, at round 0.
    Every token and reply names its op's origin, so spans follow each
    op hop by hop. [width] defaults
    to [default_width n]; [net] to [Bitonic.create ~width] — pass
    [Periodic.create ~width] (or any balancing network sharing the
    representation) to embed a different structure; [route] defaults
    to all-pairs shortest-path routing; [placement] to
    {!round_robin_placement} with a fixed seed. Default config is the
    base model (1/1).
    @raise Invalid_argument on a bad width/net combination or bad
    requests. *)

val long_lived :
  ?config:Countq_simnet.Engine.config ->
  ?width:int ->
  ?net:Bitonic.t ->
  ?placement:placement ->
  ?route:Countq_simnet.Route.t ->
  graph:Countq_topology.Graph.t ->
  schedule:int array array ->
  unit ->
  (checker_state, checker_msg, int * int) Countq_simnet.Oneshot.t
(** The long-lived scenario counting networks were designed for: the
    machine of {!one_shot} over an issue [schedule]
    ([Countq_simnet.Engine.schedule]) as an instance over
    {!Counts.long_lived_spec}, defaults as {!one_shot}. Node [v]'s
    operation [seq] enters on input wire [(v + seq) mod width]; the
    ranks come out exactly [{1 .. m}] however the tokens interleave.
    @raise Invalid_argument as {!one_shot}, or on a schedule without
    one row per node. *)
