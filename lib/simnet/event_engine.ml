(* Implicit-topology entry point into the round kernel. See
   event_engine.mli. One shard; the kernel assigns slots on first touch
   when ?starters is given, until the run touches more than n/8 nodes,
   and pre-assigns them otherwise. *)

module Itopo = Countq_topology.Implicit

type ('s, 'm, 'r) injection = ('s, 'm, 'r) Kernel.injection = {
  at : int;
  node : int;
  inject : 's -> 's * ('m, 'r) Engine.action list;
}

type stats = Kernel.stats = {
  mutable touched : int;
  mutable peak_in_flight : int;
  mutable executed_rounds : int;
}

let fresh_stats () = { touched = 0; peak_in_flight = 0; executed_rounds = 0 }

let run ?faults ?dynamic ?tap ?sink ?injections ?halt_after ?stats ?starters
    ~topo ~config ~protocol () =
  Kernel.run ~who:"Event_engine.run" ?faults ?dynamic ?tap ?sink ?injections
    ?halt_after ?stats ?starters ~n:(Itopo.n topo) ~degree:(Itopo.degree topo)
    ~neighbors:(Itopo.neighbors topo) ~config ~protocol ()
