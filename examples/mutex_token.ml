(* Token-based distributed mutual exclusion via the arrow protocol --
   the protocol's original habitat (Raymond, ACM TOCS 1989).

   Each acquire() is a queuing operation: the requester learns which
   operation holds the lock before it, so the critical-section token
   can be handed directly from each holder to its successor. We issue
   acquires over time (the long-lived mode), reconstruct the handoff
   chain, and compute when each node enters its critical section.

   Run with:  dune exec examples/mutex_token.exe *)

module Gen = Countq_topology.Gen
module Spanning = Countq_topology.Spanning
module Tree = Countq_topology.Tree
module Arrow = Countq_arrow
module Rng = Countq_util.Rng

let cs_duration = 3 (* rounds a node holds the lock *)

let () =
  let graph = Gen.square_mesh 8 in
  let tree = Spanning.best_for_arrow graph in
  let rng = Rng.create 2024L in
  (* 20 acquire() calls over 40 rounds from random nodes. *)
  let arrivals =
    List.init 20 (fun i -> (Rng.below rng 64, (i * 2) + Rng.below rng 2))
  in
  let schedule = Countq_simnet.Engine.schedule ~name:"mutex" ~n:(Tree.n tree) arrivals in
  let run =
    Arrow.Protocol.of_long_lived ~schedule
      (Countq_simnet.Oneshot.run (Arrow.Protocol.long_lived ~tree ~schedule ()))
  in
  let order =
    match run.order with
    | Ok ops -> ops
    | Error e ->
        Format.printf "BUG: %a@." Arrow.Order.pp_error e;
        exit 1
  in
  Format.printf "%d acquire() ops; queue discovered in %d rounds, %d messages@.@."
    (List.length order) run.rounds run.messages;
  (* The token enters the critical section chain: each op may enter
     once (a) its predecessor left, and (b) its queue position was
     discovered (its outcome round, relative to issue). *)
  let discovery =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (o : Arrow.Types.outcome) -> Hashtbl.replace tbl o.op o.round)
      run.outcomes;
    fun op -> Hashtbl.find tbl op
  in
  Format.printf " pos  node  op    enters  leaves@.";
  let previous_leaves = ref 0 in
  List.iteri
    (fun i (op : Arrow.Types.op) ->
      let enters = max !previous_leaves (discovery op) in
      let leaves = enters + cs_duration in
      previous_leaves := leaves;
      Format.printf " %3d  %4d  %d.%d  %6d  %6d@." (i + 1) op.origin op.origin
        op.seq enters leaves)
    order;
  Format.printf "@.lock utilisation: %d CS rounds over %d total rounds@."
    (cs_duration * List.length order)
    !previous_leaves
