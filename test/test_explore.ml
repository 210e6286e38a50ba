(* Exhaustive-schedule verification: safety on EVERY interleaving of
   small instances, not just the sampled ones — plus the soundness pin
   for the checker's own partial-order reduction (reduced and
   unreduced explorers must agree on the reachable terminal set). *)

module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Engine = Countq_simnet.Engine
module Explore = Countq_simnet.Explore
module Arrow = Countq_arrow
module Central = Countq_counting.Central
module Counts = Countq_counting.Counts

let stats_of = function
  | Explore.Exhaustive s | Explore.Budget_exhausted s -> s

let check_exhaustive outcome =
  match outcome with
  | Explore.Exhaustive s -> s
  | Explore.Budget_exhausted _ -> Alcotest.fail "budget unexpectedly exhausted"

(* The queuing and counting specifications' terminal checks. *)
let arrow_check requests = (Arrow.Order.spec ~requests).check
let counting_check requests = (Counts.spec ~requests).check

let explore_arrow ?max_configs ?reduce ?pool g requests =
  let tree = Spanning.best_for_arrow g in
  let protocol = Arrow.Protocol.one_shot_protocol ~tree ~requests () in
  Explore.run ~graph:(Tree.to_graph tree) ~protocol
    ~check:(arrow_check requests) ?max_configs ?reduce ?pool ()

let test_arrow_all_schedules_path () =
  let stats = check_exhaustive (explore_arrow (Gen.path 4) [ 1; 2; 3 ]) in
  Alcotest.(check bool) "nontrivial space" true (stats.explored > 10);
  Alcotest.(check bool) "terminals checked" true (stats.terminal >= 1)

let test_arrow_all_schedules_star () =
  let stats = check_exhaustive (explore_arrow (Gen.star 4) [ 1; 2; 3 ]) in
  Alcotest.(check bool) "explored" true (stats.explored > 10);
  Alcotest.(check bool) "canonicalisation dedups" true (stats.dedup_hits > 0)

let test_arrow_all_schedules_mesh_corner () =
  (* 2x2 mesh, all four requesting: concurrent path reversal from every
     corner, every interleaving. *)
  let stats =
    check_exhaustive (explore_arrow (Gen.square_mesh 2) [ 0; 1; 2; 3 ])
  in
  Alcotest.(check bool) "explored" true (stats.explored > 10);
  Alcotest.(check bool) "orderings checked" true (stats.terminal >= 6)

let test_arrow_all_schedules_deeper_path () =
  (* Node 0 is the tail (local completion), so the space is small but
     the two travelling messages still interleave. *)
  let stats = check_exhaustive (explore_arrow (Gen.path 5) [ 0; 2; 4 ]) in
  Alcotest.(check bool) "explored" true (stats.explored >= 10);
  Alcotest.(check bool) "interleavings reach terminals" true
    (stats.terminal >= 2)

let test_arrow_six_nodes () =
  (* A 6-node instance at the default budget: the interned encoding
     and the reduction are what make this routine. *)
  let stats =
    check_exhaustive (explore_arrow (Gen.star 6) [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check bool) "terminals checked" true (stats.terminal >= 1)

let test_central_all_schedules () =
  List.iter
    (fun (g, requests) ->
      let protocol = Central.one_shot_protocol ~graph:g ~requests () in
      let stats =
        check_exhaustive
          (Explore.run ~graph:g ~protocol ~check:(counting_check requests) ())
      in
      Alcotest.(check bool) "terminals checked" true (stats.terminal >= 1))
    [
      (Gen.star 4, [ 1; 2; 3 ]);
      (Gen.path 4, [ 0; 2; 3 ]);
      (Gen.complete 4, [ 0; 1; 2; 3 ]);
    ]

let test_violation_detected () =
  (* A deliberately broken "counter": every requester gets rank 1. The
     explorer must find the violation. *)
  let g = Gen.star 3 in
  let protocol =
    {
      Engine.name = "broken";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node > 0 then (s, [ Engine.Send (0, node) ]) else (s, []));
      on_receive =
        (fun ~round:_ ~node:_ ~src:_ origin s ->
          (s, [ Engine.Complete (origin, 1) ]));
      on_wake = Engine.no_wake;
    }
  in
  match
    Explore.run ~graph:g ~protocol ~check:(counting_check [ 1; 2 ]) ()
  with
  | exception Explore.Violation _ -> ()
  | _ -> Alcotest.fail "violation must be detected"

let test_fifo_preserved_in_all_interleavings () =
  (* Node 0 sends "a" then "b" to node 1 on one link: in EVERY
     interleaving node 1 must complete "a" before "b" (completions are
     recorded in event order, so "a" always precedes "b"). *)
  let protocol =
    {
      Engine.name = "fifo-check";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          if node = 0 then (s, [ Engine.Send (1, "a"); Engine.Send (1, "b") ])
          else (s, []));
      on_receive =
        (fun ~round:_ ~node:_ ~src:_ msg s -> (s, [ Engine.Complete msg ]));
      on_wake = Engine.no_wake;
    }
  in
  let check completions =
    match List.map (fun (c : _ Engine.completion) -> c.value) completions with
    | [ "a"; "b" ] -> Ok ()
    | other -> Error (String.concat "," other)
  in
  let stats =
    check_exhaustive (Explore.run ~graph:(Gen.path 2) ~protocol ~check ())
  in
  Alcotest.(check bool) "terminals checked" true (stats.terminal >= 1)

let test_config_budget () =
  (* Budget exhaustion is a reported outcome with partial stats, not an
     Invalid_argument: the caller asked a well-formed question that was
     too big, which is not a usage error. *)
  let g = Gen.complete 4 in
  match explore_arrow ~max_configs:5 g [ 0; 1; 2; 3 ] with
  | Explore.Budget_exhausted stats ->
      Alcotest.(check bool) "some progress" true (stats.explored >= 1);
      Alcotest.(check bool) "budget respected" true (stats.explored <= 5)
  | Explore.Exhaustive _ -> Alcotest.fail "budget must exhaust at 5 configs"

let test_monotone_event_rounds () =
  (* Completion [round] stamps are a monotone event counter along the
     representative execution, so within every terminal's completion
     list (occurrence order) they never decrease. *)
  let requests = [ 1; 2; 3 ] in
  let check completions =
    let rounds = List.map (fun (c : _ Engine.completion) -> c.round) completions in
    let rec sorted = function
      | a :: (b :: _ as rest) -> a <= b && sorted rest
      | _ -> true
    in
    if sorted rounds then arrow_check requests completions
    else Error "non-monotone rounds"
  in
  let tree = Spanning.best_for_arrow (Gen.star 4) in
  let protocol = Arrow.Protocol.one_shot_protocol ~tree ~requests () in
  let stats =
    check_exhaustive
      (Explore.run ~graph:(Tree.to_graph tree) ~protocol ~check ())
  in
  Alcotest.(check bool) "terminals checked" true (stats.terminal >= 1)

(* ------------------------------------------------------------------ *)
(* Soundness of the partial-order reduction: on random 3-4 node
   instances the reduced explorer must reach exactly the terminal
   completion sequences of the full interleaving graph. Completions
   are compared without their round stamps (representative-execution
   timing, not state). *)

let terminal_set ~reduce ~graph ~protocol =
  let terminals = ref [] in
  let check completions =
    (* One string per terminal (structural serialisation of the
       round-stripped completion sequence) so terminal sets of
       different protocols share a comparable type. *)
    terminals :=
      Marshal.to_string
        (List.map
           (fun (c : _ Engine.completion) -> (c.node, c.value))
           completions)
        [ Marshal.No_sharing ]
      :: !terminals;
    Ok ()
  in
  (match Explore.run ~graph ~protocol ~check ~reduce () with
  | Explore.Exhaustive _ -> ()
  | Explore.Budget_exhausted _ -> Alcotest.fail "pin instance too large");
  List.sort compare !terminals

let por_instance_gen =
  let open QCheck2.Gen in
  let* pick = int_range 0 3 in
  let name, g =
    match pick with
    | 0 -> ("path-4", Gen.path 4)
    | 1 -> ("star-4", Gen.star 4)
    | 2 -> ("complete-3", Gen.complete 3)
    | _ -> ("path-3", Gen.path 3)
  in
  let n = Countq_topology.Graph.n g in
  let* mask = list_size (return n) bool in
  let requests =
    List.filteri (fun i _ -> List.nth mask i) (List.init n (fun i -> i))
  in
  let requests = if requests = [] then [ n - 1 ] else requests in
  let* proto = int_range 0 1 in
  return (name, g, requests, (if proto = 0 then `Arrow else `Central))

let prop_por_sound =
  QCheck2.Test.make ~name:"POR: reduced = unreduced terminal sets" ~count:40
    ~print:(fun (name, _, requests, proto) ->
      Printf.sprintf "%s R={%s} %s" name
        (String.concat "," (List.map string_of_int requests))
        (match proto with `Arrow -> "arrow" | `Central -> "central"))
    por_instance_gen
    (fun (_, g, requests, proto) ->
      let graph, run_both =
        match proto with
        | `Arrow ->
            let tree = Spanning.best_for_arrow g in
            let graph = Tree.to_graph tree in
            ( graph,
              fun reduce ->
                terminal_set ~reduce ~graph
                  ~protocol:(Arrow.Protocol.one_shot_protocol ~tree ~requests ())
            )
        | `Central ->
            ( g,
              fun reduce ->
                terminal_set ~reduce ~graph:g
                  ~protocol:(Central.one_shot_protocol ~graph:g ~requests ()) )
      in
      ignore graph;
      run_both true = run_both false)

let test_parallel_frontier_identical () =
  (* Same instance, with and without a worker pool: stats and the
     outcome must be bit-identical (the pool only parallelises each
     layer's expansion; dedup and counting stay sequential). *)
  let g = Gen.star 5 in
  let requests = [ 1; 2; 3; 4 ] in
  let sequential = explore_arrow g requests in
  let pool = Countq_util.Parallel.pool ~jobs:3 in
  let parallel = explore_arrow ~pool g requests in
  Alcotest.(check bool) "same outcome" true (sequential = parallel);
  Alcotest.(check bool) "nontrivial" true ((stats_of sequential).explored > 50)

let test_parallel_central_star6 () =
  (* The central counter routes through one shared table whose rows the
     pool's domains build on first use: the outcome must not depend on
     which domain builds a row. *)
  let g = Gen.star 6 in
  let requests = [ 1; 2; 3; 4; 5 ] in
  let explore ?pool () =
    let protocol = Central.one_shot_protocol ~graph:g ~requests () in
    Explore.run ~graph:g ~protocol ~check:(counting_check requests) ?pool ()
  in
  let sequential = explore () in
  let parallel = explore ~pool:(Countq_util.Parallel.pool ~jobs:3) () in
  Alcotest.(check bool) "same outcome" true (sequential = parallel);
  Alcotest.(check bool) "terminals checked" true
    ((check_exhaustive sequential).terminal >= 1)

let test_budget_below_one_rejected () =
  (* A budget of 0 used to explore the initial configuration anyway and
     report [Budget_exhausted] with [explored = 1]. *)
  List.iter
    (fun max_configs ->
      match explore_arrow ~max_configs (Gen.star 4) [ 1; 2; 3 ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "max_configs:%d must be rejected" max_configs)
    [ 0; -5 ]

(* ------------------------------------------------------------------ *)
(* Exact pins: the (explored, terminal, max_frontier, dedup_hits) the
   explorer reported when configurations were keyed by an MD5 of their
   serialisation. A different key encoding must find the same state
   space in the same order, sequentially and with a pool. *)

let on_tree ?(spanning = fun g -> Spanning.bfs g ~root:0) mk check
    ?max_configs ?reduce g requests =
 fun ?pool () ->
  let tree = spanning g in
  Explore.run ~graph:(Tree.to_graph tree) ~protocol:(mk ~tree ~requests)
    ~check:(check requests) ?max_configs ?reduce ?pool ()

let on_graph mk check g requests =
 fun ?pool () ->
  Explore.run ~graph:g ~protocol:(mk ~graph:g ~requests) ~check:(check requests)
    ?pool ()

let arrow_on =
  on_tree ~spanning:Spanning.best_for_arrow
    (fun ~tree ~requests -> Arrow.Protocol.one_shot_protocol ~tree ~requests ())
    arrow_check

let central_on =
  on_graph
    (fun ~graph ~requests -> Central.one_shot_protocol ~graph ~requests ())
    counting_check

let diffracting_on =
  on_tree
    (fun ~tree ~requests ->
      Countq_counting.Diffracting.one_shot_protocol ~tree ~requests ())
    counting_check

let pinned_instances =
  let exhaustive (explored, terminal, max_frontier, dedup_hits) =
    Explore.Exhaustive { explored; terminal; max_frontier; dedup_hits }
  in
  [
    ( "arrow star-4",
      arrow_on (Gen.star 4) [ 1; 2; 3 ],
      exhaustive (46, 12, 12, 6) );
    ( "central-count star-4",
      central_on (Gen.star 4) [ 1; 2; 3 ],
      exhaustive (133, 36, 36, 30) );
    ( "central-queue star-4",
      on_graph
        (fun ~graph ~requests ->
          Countq_queuing.Central_queue.one_shot_protocol ~graph ~requests ())
        arrow_check (Gen.star 4) [ 1; 2; 3 ],
      exhaustive (133, 36, 36, 30) );
    ( "combining path-4",
      on_tree
        (fun ~tree ~requests ->
          Countq_counting.Combining.one_shot_protocol ~tree ~requests ())
        counting_check (Gen.path 4) [ 0; 1; 2; 3 ],
      exhaustive (7, 1, 1, 0) );
    ( "diffracting path-4",
      diffracting_on (Gen.path 4) [ 0; 1; 2; 3 ],
      exhaustive (444, 24, 24, 597) );
    ( "funnel star-4",
      on_tree
        (fun ~tree ~requests ->
          Countq_counting.Funnel.one_shot_protocol ~tree ~requests ())
        counting_check (Gen.star 4) [ 0; 1; 2; 3 ],
      exhaustive (106, 36, 36, 0) );
    ( "token-ring path-4",
      on_tree
        (fun ~tree ~requests ->
          Countq_queuing.Token_ring.one_shot_protocol ~tree ~requests ())
        arrow_check (Gen.path 4) [ 0; 2; 3 ],
      exhaustive (4, 1, 1, 0) );
    ( "sweep star-4",
      on_tree
        (fun ~tree ~requests ->
          Countq_counting.Sweep.one_shot_protocol ~tree ~requests ())
        counting_check (Gen.star 4) [ 0; 1; 2; 3 ],
      exhaustive (6, 1, 1, 0) );
    ( "dynamic-queue star-4",
      on_graph
        (fun ~graph ~requests ->
          Countq_queuing.Dynamic_queue.one_shot_protocol ~graph ~requests ())
        arrow_check (Gen.star 4) [ 1; 2; 3 ],
      exhaustive (901, 6, 114, 1269) );
    ( "central-count star-6",
      central_on (Gen.star 6) [ 1; 2; 3; 4; 5 ],
      exhaustive (47_991, 14_400, 14_400, 9_740) );
    ( "diffracting path-4, unreduced",
      diffracting_on ~reduce:false (Gen.path 4) [ 0; 1; 2; 3 ],
      exhaustive (4_272, 24, 139, 8_162) );
    ( "arrow complete-4, budget 5",
      arrow_on ~max_configs:5 (Gen.complete 4) [ 0; 1; 2; 3 ],
      Explore.Budget_exhausted
        { explored = 5; terminal = 0; max_frontier = 3; dedup_hits = 0 } );
  ]

let pp_outcome ppf = function
  | Explore.Exhaustive s | Explore.Budget_exhausted s as o ->
      Format.fprintf ppf "%s explored=%d terminal=%d max_frontier=%d dedup=%d"
        (match o with Explore.Exhaustive _ -> "Exhaustive" | _ -> "Budget")
        s.explored s.terminal s.max_frontier s.dedup_hits

let outcome = Alcotest.testable pp_outcome ( = )

let test_pinned_stats () =
  let pool = Countq_util.Parallel.pool ~jobs:3 in
  List.iter
    (fun (name, (explore : ?pool:_ -> unit -> _), expected) ->
      Alcotest.check outcome name expected (explore ?pool:None ());
      Alcotest.check outcome (name ^ ", pool of 3") expected (explore ~pool ()))
    pinned_instances

let test_counterexample_pinned () =
  (* A broken counter on star-5: the centre charges each count to the
     previous sender, so whichever leaf arrives first gets two counts.
     The 24 terminals sit in one layer and fail with four different
     messages; the report is the one from the lowest canonical
     serialisation, as with the digest-keyed explorer. *)
  let protocol =
    {
      Engine.name = "broken";
      initial_state = (fun _ -> (-1, 0));
      on_start =
        (fun ~node s ->
          if node > 0 then (s, [ Engine.Send (0, node) ]) else (s, []));
      on_receive =
        (fun ~round:_ ~node:_ ~src:_ origin (last, c) ->
          let charged = if last < 0 then origin else last in
          ((origin, c + 1), [ Engine.Complete (charged, c + 1) ]));
      on_wake = Engine.no_wake;
    }
  in
  let requests = [ 1; 2; 3; 4 ] in
  let seen = ref [] in
  let check completions =
    let r = counting_check requests completions in
    (match r with
    | Error m when not (List.mem m !seen) -> seen := m :: !seen
    | _ -> ());
    r
  in
  let violation ?pool ?reduce () =
    match Explore.run ~graph:(Gen.star 5) ~protocol ~check ?pool ?reduce () with
    | exception Explore.Violation m -> m
    | _ -> Alcotest.fail "violation must be detected"
  in
  let expected = "node 4 received two counts" in
  Alcotest.(check string) "sequential" expected (violation ());
  Alcotest.(check int) "distinct failures in the layer" 4 (List.length !seen);
  Alcotest.(check string) "pool of 3" expected
    (violation ~pool:(Countq_util.Parallel.pool ~jobs:3) ());
  Alcotest.(check string) "unreduced" expected (violation ~reduce:false ())

let test_deep_states_exact () =
  (* The centre of star-6 keeps 1000 words of padding and then the last
     leaf it heard from, so configurations that deliver the same leaves
     differ only past the polymorphic hash's 256-word reach. The
     reachable drained configurations are the empty start plus one per
     (delivered set S, last leaf in S): 1 + 5 * 2^4 = 81, five of them
     terminal, and the widest layer is |S| = 3 with 3 * C(5,3) = 30.
     From (S, last) each of the 5 - |S| deliveries leads to
     (S + x, x): 165 successors for 80 new configurations. *)
  let padding = List.init 1000 (fun _ -> 0) in
  let protocol =
    {
      Engine.name = "deep";
      initial_state = (fun _ -> padding);
      on_start =
        (fun ~node s ->
          if node > 0 then (s, [ Engine.Send (0, node) ]) else (s, []));
      on_receive =
        (fun ~round:_ ~node:_ ~src:_ leaf _ -> (padding @ [ leaf ], []));
      on_wake = Engine.no_wake;
    }
  in
  let stats =
    check_exhaustive
      (Explore.run ~graph:(Gen.star 6) ~protocol ~check:(fun _ -> Ok ()) ())
  in
  Alcotest.(check (list int)) "explored, terminal, max_frontier, dedup"
    [ 81; 5; 30; 85 ]
    [ stats.explored; stats.terminal; stats.max_frontier; stats.dedup_hits ]

let test_representative_stamps_pinned () =
  (* Round stamps come from the execution that first reached each
     configuration, so they pin the successor order and the merge
     order: the digest of every terminal's stamped completion list,
     sorted, as the digest-keyed explorer produced it. Transmits come
     first in successor order, so the first execution to reach a
     configuration transmits eagerly and both modes stamp alike. *)
  let stamps ~reduce =
    let seen = ref [] in
    let check completions =
      seen :=
        String.concat ";"
          (List.map
             (fun (c : _ Engine.completion) ->
               let node, count = c.value in
               Printf.sprintf "%d@%d=%d,%d" c.node c.round node count)
             completions)
        :: !seen;
      Ok ()
    in
    let g = Gen.star 4 in
    let protocol =
      Central.one_shot_protocol ~graph:g ~requests:[ 1; 2; 3 ] ()
    in
    ignore
      (check_exhaustive (Explore.run ~graph:g ~protocol ~check ~reduce ()));
    Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare !seen)))
  in
  let pinned = "f61f9c7c1ef83c3b3a2a1f6f6ff08af7" in
  Alcotest.(check string) "reduced" pinned (stamps ~reduce:true);
  Alcotest.(check string) "unreduced" pinned (stamps ~reduce:false)

let suite =
  [
    Alcotest.test_case "arrow: all schedules on a path" `Quick
      test_arrow_all_schedules_path;
    Alcotest.test_case "arrow: all schedules on a star" `Quick
      test_arrow_all_schedules_star;
    Alcotest.test_case "arrow: all schedules on a 2x2 mesh" `Quick
      test_arrow_all_schedules_mesh_corner;
    Alcotest.test_case "arrow: all schedules, deeper path" `Quick
      test_arrow_all_schedules_deeper_path;
    Alcotest.test_case "arrow: six nodes in budget" `Quick
      test_arrow_six_nodes;
    Alcotest.test_case "central counter: all schedules" `Quick
      test_central_all_schedules;
    Alcotest.test_case "violations detected" `Quick test_violation_detected;
    Alcotest.test_case "FIFO preserved everywhere" `Quick
      test_fifo_preserved_in_all_interleavings;
    Alcotest.test_case "config budget" `Quick test_config_budget;
    Alcotest.test_case "monotone event rounds" `Quick
      test_monotone_event_rounds;
    Helpers.qcheck prop_por_sound;
    Alcotest.test_case "parallel frontier identical" `Quick
      test_parallel_frontier_identical;
    Alcotest.test_case "parallel central counter on star-6" `Quick
      test_parallel_central_star6;
    Alcotest.test_case "budget below 1 rejected" `Quick
      test_budget_below_one_rejected;
    Alcotest.test_case "stats pinned, sequential and pooled" `Quick
      test_pinned_stats;
    Alcotest.test_case "counterexample pinned" `Quick
      test_counterexample_pinned;
    Alcotest.test_case "deep states deduplicated exactly" `Quick
      test_deep_states_exact;
    Alcotest.test_case "representative stamps pinned" `Quick
      test_representative_stamps_pinned;
  ]
