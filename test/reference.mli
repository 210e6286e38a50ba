(** Test-only reference implementation of the synchronous engine.

    This is the dense engine {!Engine.run} used to be: every round
    scans all [n] nodes in each phase and every neighbour lookup goes
    through a Hashtbl. It is retained verbatim as the executable
    specification the optimised active-set engine is tested against —
    the qcheck properties in [test/test_equiv.ml] assert that both
    produce bit-identical {!Engine.result} records (and bit-identical
    {!Engine.Round_limit_exceeded} payloads) over random protocols,
    topologies, arbiters, capacities and fault plans.

    It lives with the tests, outside the library, so the library ships
    one implementation of the Section 2.1 rules: this one is Θ(n) per
    round even when one node is active, which is exactly the cost the
    active-set engine exists to avoid. *)

val run :
  ?faults:Countq_simnet.Faults.runtime ->
  ?dynamic:Countq_simnet.Dynamic.runtime ->
  ?tap:('m, 'r) Countq_simnet.Engine.tap ->
  graph:Countq_topology.Graph.t ->
  config:Countq_simnet.Engine.config ->
  protocol:('s, 'm, 'r) Countq_simnet.Engine.protocol ->
  unit ->
  'r Countq_simnet.Engine.result
(** Behaviourally identical to {!Engine.run} (same semantics, same
    determinism contract, same exceptions, same {!Engine.tap} events),
    just slower. It executes every round, idle or not, but calls no
    hook of a passive tap in an idle one. *)
