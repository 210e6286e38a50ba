(* Quickstart: the public API in one sitting.

   Build a topology, pick a spanning tree, run distributed queuing
   (the arrow protocol) and distributed counting on the same one-shot
   request set, validate both outputs, and compare their total delays
   -- the comparison the whole paper is about.

   Run with:  dune exec examples/quickstart.exe *)

module Gen = Countq_topology.Gen
module Bfs = Countq_topology.Bfs
module Spanning = Countq_topology.Spanning
module Arrow = Countq_arrow
module Oneshot = Countq_simnet.Oneshot
module Run = Countq.Run

let () =
  (* 1. A 16 x 16 mesh: 256 processors, unit-delay FIFO links. *)
  let graph = Gen.square_mesh 16 in
  Format.printf "topology: 16x16 mesh, n=%d, m=%d, diameter=%d@."
    (Countq_topology.Graph.n graph)
    (Countq_topology.Graph.m graph)
    (Bfs.diameter graph);

  (* 2. Every processor issues an operation at time 0 (the paper's
     one-shot scenario, R = V). *)
  let requests = List.init 256 (fun i -> i) in

  (* 3. Queuing with the arrow protocol. [Spanning.best_for_arrow]
     picks the Hamilton-path spanning tree Theorem 4.5 wants. *)
  let tree = Spanning.best_for_arrow graph in
  let queue =
    Arrow.Protocol.of_engine (Oneshot.run (Arrow.Protocol.one_shot ~tree ~requests ()))
  in
  (match queue.order with
  | Ok ops ->
      Format.printf "queuing: valid total order of %d operations@."
        (List.length ops);
      let head = List.hd ops in
      Format.printf "  first in queue: node %d (nearest the initial tail)@."
        head.origin
  | Error e -> Format.printf "queuing BUG: %a@." Arrow.Order.pp_error e);
  Format.printf "  total delay %d rounds (max %d, %d messages)@."
    queue.total_delay queue.max_delay queue.messages;

  (* 4. Counting, with the best protocol of the portfolio. *)
  let count = Run.best_counting ~graph ~requests () in
  Format.printf "counting: best protocol = %s, valid = %b@." count.protocol
    count.valid;
  Format.printf "  total delay %d rounds (normalised %d)@." count.total_delay
    count.normalized_delay;

  (* 5. The separation (Theorem 4.5): counting pays asymptotically
     more than queuing on this topology. *)
  let q = queue.total_delay * queue.expansion in
  Format.printf "@.counting/queuing delay ratio: %.1fx  (grows with n)@."
    (float_of_int count.normalized_delay /. float_of_int q)
