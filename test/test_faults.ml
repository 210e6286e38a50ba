(* Tests for the fault-injection subsystem: plan determinism, the
   fault-free identity, monitor verdicts, and timeout-and-retransmit
   recovery. *)

module Engine = Countq_simnet.Engine
module Async = Countq_simnet.Async
module Faults = Countq_simnet.Faults
module Monitor = Countq_simnet.Monitor
module Reliable = Countq_simnet.Reliable
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Spanning = Countq_topology.Spanning
module Arrow = Countq_arrow.Protocol
module Central = Countq_counting.Central
module Central_queue = Countq_queuing.Central_queue
module Run = Countq.Run
module Oneshot = Countq_simnet.Oneshot
module Counts = Countq_counting.Counts

(* The faulty driver on each protocol's one-shot instance, with the
   report's result converted to its family's view. *)
let with_view view (r : _ Oneshot.report) = (view r.result, r)

let arrow_faulty ?retry ?tail ~plan ~tree ~requests () =
  with_view Arrow.of_engine
    (Oneshot.faulty ?retry ~plan (Arrow.one_shot ?tail ~tree ~requests ()))

let central_faulty ?retry ?ack_timeout ?max_retries ?progress_budget ~plan
    ~graph ~requests () =
  with_view (Counts.of_engine ~requests)
    (Oneshot.faulty ?retry ?ack_timeout ?max_retries ?progress_budget ~plan
       (Central.one_shot ~graph ~requests ()))

(* ---- fixtures ---- *)

let topologies =
  [ ("list", Gen.path 12); ("star", Gen.star 12); ("complete", Gen.complete 12) ]

let all_requests g = List.init (Graph.n g) (fun i -> i)

let arrow_setup g =
  let tree = Spanning.best_for_arrow g in
  (tree, all_requests g)

(* A fingerprint of an engine result, total over everything observable. *)
let fingerprint (res : (int * int) Engine.result) =
  ( List.map
      (fun (c : _ Engine.completion) -> (c.node, c.round, c.value))
      res.completions,
    res.rounds,
    res.messages,
    res.max_link_backlog,
    res.expansion )

let central_run ?faults g =
  let requests = all_requests g in
  let protocol = Central.one_shot_protocol ~graph:g ~requests () in
  Engine.run ?faults ~graph:g ~config:Engine.default_config ~protocol ()

(* ---- fault-free identity ---- *)

let test_none_plan_is_identity_sync () =
  List.iter
    (fun (name, g) ->
      let plain = central_run g in
      let with_none = central_run ~faults:(Faults.start Faults.none) g in
      Alcotest.(check bool)
        (name ^ ": Faults.none run identical")
        true
        (fingerprint plain = fingerprint with_none))
    topologies

let test_none_plan_is_identity_async () =
  let g = Gen.path 12 in
  let requests = all_requests g in
  let run ?faults () =
    let protocol = Central.one_shot_protocol ~graph:g ~requests () in
    Async.run ?faults ~graph:g ~delay:(Async.Constant 2) ~protocol ()
  in
  let plain = run () in
  let with_none = run ~faults:(Faults.start Faults.none) () in
  let fp (r : (int * int) Async.result) =
    ( List.map
        (fun (c : _ Engine.completion) -> (c.node, c.round, c.value))
        r.completions,
      r.finish_time,
      r.messages )
  in
  Alcotest.(check bool) "Faults.none async run identical" true
    (fp plain = fp with_none)

let test_none_plan_no_stats () =
  let fr = Faults.start Faults.none in
  let _ = central_run ~faults:fr (Gen.path 12) in
  let s = Faults.stats fr in
  Alcotest.(check int) "nothing dropped" 0 s.dropped;
  Alcotest.(check int) "nothing duplicated" 0 s.duplicated;
  Alcotest.(check int) "nothing delayed" 0 s.delayed;
  Alcotest.(check int) "nothing lost to crashes" 0 s.crash_dropped

(* ---- determinism ---- *)

let lossy_plan seed =
  Faults.random ~label:"test-lossy" ~seed ~drop:0.1 ~duplicate:0.1 ~delay:0.2
    ()

let test_random_plan_deterministic () =
  let g = Gen.star 12 in
  let run () = fingerprint (central_run ~faults:(Faults.start (lossy_plan 7L)) g) in
  Alcotest.(check bool) "same seed, same execution" true (run () = run ())

let test_random_plan_seed_sensitive () =
  (* Different seeds should (for this instance) fault different
     messages. We only require the stats to differ. *)
  let g = Gen.complete 12 in
  let tally seed =
    let fr = Faults.start (lossy_plan seed) in
    let _ = central_run ~faults:fr g in
    Faults.stats fr
  in
  Alcotest.(check bool) "different seeds diverge" true (tally 1L <> tally 2L)

let test_crash_plan_deterministic () =
  let g = Gen.path 12 in
  let plan =
    Faults.crash_only ~label:"test-crash"
      [ { Faults.node = 5; at_round = 1; recover_at = Some 6 } ]
  in
  let run () = fingerprint (central_run ~faults:(Faults.start plan) g) in
  Alcotest.(check bool) "crash schedule deterministic" true (run () = run ())

(* ---- single-message faults ---- *)

let test_drop_nth_drops_exactly_one () =
  let fr = Faults.start (Faults.drop_nth 3) in
  let res = central_run ~faults:fr (Gen.path 12) in
  let plain = central_run (Gen.path 12) in
  let s = Faults.stats fr in
  Alcotest.(check int) "one drop" 1 s.dropped;
  Alcotest.(check int) "everything else delivered" 0
    (s.duplicated + s.delayed + s.crash_dropped);
  (* the dropped hop also kills its downstream relays *)
  Alcotest.(check bool) "messages lost" true (res.messages < plain.messages)

let test_dup_is_not_a_counting_noop () =
  (* The central counter completes at the requester on Reply receipt, so
     a duplicated Reply double-completes — the monitors must notice. *)
  let g = Gen.star 12 in
  let requests = all_requests g in
  let monitors =
    [
      Monitor.unique_completion
        ~node_of:(fun ~node:_ ((origin, _) : int * int) -> origin);
      Monitor.distinct_ranks ~rank:(fun ((_, c) : int * int) -> c);
    ]
  in
  let protocol = Central.one_shot_protocol ~graph:g ~requests () in
  let _ =
    Engine.run
      ~faults:(Faults.start (Faults.random ~label:"dupes" ~seed:5L ~duplicate:0.5 ()))
      ~tap:(Monitor.tap monitors)
      ~graph:g ~config:Engine.default_config ~protocol ()
  in
  let report = Monitor.finalise monitors in
  Alcotest.(check bool) "a safety monitor flags the duplicate" false
    (Monitor.safety_ok report)

(* ---- arrow recovery under retry ---- *)

let test_arrow_retry_survives_single_drop () =
  List.iter
    (fun (name, g) ->
      let tree, requests = arrow_setup g in
      let res, r =
        arrow_faulty ~retry:true ~plan:(Faults.drop_nth 0) ~tree ~requests ()
      in
      Alcotest.(check bool)
        (name ^ ": valid total order re-established")
        true
        (Result.is_ok res.order);
      Alcotest.(check int)
        (name ^ ": every operation completed")
        (List.length requests)
        (List.length res.outcomes);
      Alcotest.(check bool) (name ^ ": all monitors pass") true
        (Monitor.all_pass r.monitors);
      Alcotest.(check int) (name ^ ": the drop happened") 1 r.injected.dropped;
      match r.retry with
      | None -> Alcotest.fail "retry stats expected"
      | Some s ->
          Alcotest.(check bool)
            (name ^ ": at least one retransmit")
            true (s.retransmits >= 1);
          Alcotest.(check int) (name ^ ": nothing abandoned") 0 s.gave_up)
    topologies

let test_arrow_no_retry_loses_liveness () =
  List.iter
    (fun (name, g) ->
      let tree, requests = arrow_setup g in
      let _, r = arrow_faulty ~plan:(Faults.drop_nth 0) ~tree ~requests () in
      Alcotest.(check bool)
        (name ^ ": safety holds even unhealed")
        true
        (Monitor.safety_ok r.monitors);
      Alcotest.(check bool)
        (name ^ ": a liveness monitor fires")
        false
        (Monitor.liveness_ok r.monitors))
    topologies

let test_arrow_faulty_none_matches_plain () =
  let g = Gen.path 12 in
  let tree, requests = arrow_setup g in
  let plain = Arrow.run_one_shot ~tree ~requests () in
  let res, r = arrow_faulty ~plan:Faults.none ~tree ~requests () in
  Alcotest.(check bool) "same outcomes" true (res.outcomes = plain.outcomes);
  Alcotest.(check int) "same rounds" plain.rounds res.rounds;
  Alcotest.(check int) "same messages" plain.messages res.messages;
  Alcotest.(check bool) "all monitors pass" true (Monitor.all_pass r.monitors)

let test_arrow_retry_jitter_reorders_safely () =
  (* Delay spikes reorder physical messages; the retransmit layer's
     sequencing must still present FIFO channels to the arrow. *)
  let g = Gen.path 12 in
  let tree, requests = arrow_setup g in
  let plan =
    Faults.random ~label:"jittery" ~seed:11L ~delay:0.4 ~delay_max:7 ()
  in
  let res, r = arrow_faulty ~retry:true ~plan ~tree ~requests () in
  Alcotest.(check bool) "valid order under reordering" true
    (Result.is_ok res.order);
  Alcotest.(check bool) "monitors pass" true (Monitor.all_pass r.monitors)

let test_arrow_duplicate_breaks_safety_without_dedup () =
  (* A doubled queue() re-runs path reversal: the second copy finds the
     issuer's own id and completes the operation as its own
     predecessor. Drops attack liveness; duplicates attack safety. The
     retry layer's sequence numbers dedup the copy and restore
     exactly-once delivery. *)
  let g = Gen.path 12 in
  let tree, requests = arrow_setup g in
  let _, bare = arrow_faulty ~plan:(Faults.dup_nth 0) ~tree ~requests () in
  Alcotest.(check bool) "chain consistency violated" false
    (Monitor.safety_ok bare.monitors);
  let healed_res, healed =
    arrow_faulty ~retry:true ~plan:(Faults.dup_nth 0) ~tree ~requests ()
  in
  Alcotest.(check bool) "dedup restores safety" true
    (Monitor.all_pass healed.monitors);
  Alcotest.(check bool) "order valid again" true
    (Result.is_ok healed_res.order)

(* ---- central protocols under faults ---- *)

let test_central_count_retry_heals () =
  let g = Gen.star 12 in
  let res, r =
    central_faulty ~retry:true ~plan:(Faults.drop_nth 2) ~graph:g
      ~requests:(all_requests g) ()
  in
  Alcotest.(check bool) "counts valid" true (Result.is_ok res.valid);
  Alcotest.(check bool) "monitors pass" true (Monitor.all_pass r.monitors)

let test_central_queue_retry_heals () =
  let g = Gen.path 12 in
  let res, r =
    with_view Arrow.of_engine
      (Oneshot.faulty ~retry:true ~plan:(Faults.drop_nth 2)
         (Central_queue.one_shot ~graph:g ~requests:(all_requests g) ()))
  in
  Alcotest.(check bool) "order valid" true (Result.is_ok res.order);
  Alcotest.(check bool) "monitors pass" true (Monitor.all_pass r.monitors)

(* ---- crash and recovery ---- *)

let test_crash_restart_with_retry_recovers () =
  (* The root of the star dies for a while; with retries and a recovery
     round, every request must eventually be served. *)
  let g = Gen.star 12 in
  let plan =
    Faults.crash_only ~label:"nap"
      [ { Faults.node = 0; at_round = 2; recover_at = Some 20 } ]
  in
  let res, r =
    central_faulty ~retry:true ~max_retries:8 ~plan ~graph:g
      ~requests:(all_requests g) ()
  in
  Alcotest.(check bool) "counts valid after restart" true
    (Result.is_ok res.valid);
  Alcotest.(check bool) "monitors pass" true (Monitor.all_pass r.monitors);
  Alcotest.(check bool) "the crash actually cost messages" true
    (r.injected.crash_dropped > 0)

let test_crash_rejoin_reliable_dedup () =
  (* Crash→rejoin is not amnesia: a node that comes back keeps its
     Reliable sequencing tables (and its unsent outbox) from before the
     outage. Crash a leaf right after its request reaches the root: the
     root's ack is crash-dropped, so after rejoining the leaf's frozen
     retransmit timer fires and re-sends a payload the root has already
     released — which the root must discard as a duplicate (and re-ack)
     rather than count twice. The run completes, the count stays valid,
     and the dedup tally proves the replay actually happened. *)
  let g = Gen.star 8 in
  let plan =
    Faults.crash_only ~label:"nap-replay"
      [ { Faults.node = 3; at_round = 2; recover_at = Some 12 } ]
  in
  let res, r =
    central_faulty ~retry:true ~ack_timeout:4 ~max_retries:8 ~plan ~graph:g
      ~requests:(all_requests g) ()
  in
  Alcotest.(check bool) "counts valid after rejoin" true
    (Result.is_ok res.valid);
  Alcotest.(check bool) "monitors pass" true (Monitor.all_pass r.monitors);
  Alcotest.(check bool) "the ack was lost to the crash" true
    (r.injected.crash_dropped > 0);
  let retry =
    match r.retry with Some s -> s | None -> Alcotest.fail "retry stats missing"
  in
  Alcotest.(check bool) "the rejoined node replayed its payload" true
    (retry.retransmits > 0);
  Alcotest.(check bool) "the replay was deduplicated, not re-counted" true
    (retry.duplicates_ignored > 0);
  Alcotest.(check int) "nothing abandoned" 0 retry.gave_up

let test_permanent_crash_stalls_not_hangs () =
  (* Node 0 (the root) dies forever: the run must end with a structured
     liveness verdict, not spin to the round limit. *)
  let g = Gen.star 12 in
  let plan =
    Faults.crash_only ~label:"dead-root"
      [ { Faults.node = 0; at_round = 1; recover_at = None } ]
  in
  let _, r =
    central_faulty ~retry:true ~progress_budget:64 ~plan ~graph:g
      ~requests:(all_requests g) ()
  in
  Alcotest.(check bool) "liveness lost" false (Monitor.liveness_ok r.monitors)

let test_arrow_retry_dead_root_off_tail () =
  (* Node 0 acks, arms a retransmit timer, then dies forever at round 3
     (crash-root) while the tail sits elsewhere. The dead node's pending
     wake is dropped, so every run ends with the rounds and monitor
     verdicts it had when timers were polled instead of woken. *)
  let plan = Option.get (Faults.find "crash-root") in
  List.iter
    (fun (name, g, tail, rounds, verdicts) ->
      let res, r =
        arrow_faulty ~retry:true ~tail ~plan ~tree:(Spanning.best_for_arrow g)
          ~requests:(all_requests g) ()
      in
      Alcotest.(check int) (name ^ ": rounds") rounds res.rounds;
      Alcotest.(check string) (name ^ ": verdicts") verdicts
        (Format.asprintf "%a" Monitor.pp_report r.monitors))
    [
      ( "list",
        Gen.path 12,
        5,
        255,
        "safety-chain-consistency [safety]: pass\n\
         liveness-completion [liveness]: VIOLATED - 1 of 12 operations never completed\n\
         liveness-progress [liveness]: pass" );
      ( "star",
        Gen.star 12,
        3,
        249,
        "safety-chain-consistency [safety]: pass\n\
         liveness-completion [liveness]: VIOLATED - 4 of 12 operations never completed\n\
         liveness-progress [liveness]: STALLED at round 1026 (no progress since 2)" );
      ( "complete",
        Gen.complete 12,
        7,
        257,
        "safety-chain-consistency [safety]: pass\n\
         liveness-completion [liveness]: VIOLATED - 1 of 12 operations never completed\n\
         liveness-progress [liveness]: pass" );
    ]

(* ---- Run.run_faulty degradation report ---- *)

let test_run_faulty_summary_consistent () =
  let g = Gen.path 16 in
  let requests = List.init 16 (fun i -> i) in
  let plan =
    match Faults.find "drop-first" with Some p -> p | None -> assert false
  in
  let s = Run.run_faulty ~retry:true ~graph:g ~protocol:`Arrow ~plan ~requests () in
  Alcotest.(check string) "plan label surfaces" "drop-first" s.plan;
  Alcotest.(check int) "all complete" s.expected s.completed;
  Alcotest.(check bool) "valid" true s.valid;
  Alcotest.(check bool) "safe and live" true (s.safe && s.live);
  Alcotest.(check bool) "retries cost messages" true (s.extra_messages > 0)

let test_named_registry_resolves () =
  List.iter
    (fun (name, _) ->
      match Faults.find name with
      | Some p ->
          Alcotest.(check string) (name ^ " label") name (Faults.label p)
      | None -> Alcotest.fail ("registry lookup failed for " ^ name))
    Faults.named

let suite =
  [
    Alcotest.test_case "none plan: sync identity" `Quick
      test_none_plan_is_identity_sync;
    Alcotest.test_case "none plan: async identity" `Quick
      test_none_plan_is_identity_async;
    Alcotest.test_case "none plan: zero stats" `Quick test_none_plan_no_stats;
    Alcotest.test_case "random plan deterministic" `Quick
      test_random_plan_deterministic;
    Alcotest.test_case "random plan seed-sensitive" `Quick
      test_random_plan_seed_sensitive;
    Alcotest.test_case "crash plan deterministic" `Quick
      test_crash_plan_deterministic;
    Alcotest.test_case "drop_nth drops exactly one" `Quick
      test_drop_nth_drops_exactly_one;
    Alcotest.test_case "monitors flag duplicated ranks" `Quick
      test_dup_is_not_a_counting_noop;
    Alcotest.test_case "arrow+retry survives single drop" `Quick
      test_arrow_retry_survives_single_drop;
    Alcotest.test_case "arrow w/o retry loses liveness" `Quick
      test_arrow_no_retry_loses_liveness;
    Alcotest.test_case "arrow faulty(none) = plain" `Quick
      test_arrow_faulty_none_matches_plain;
    Alcotest.test_case "arrow+retry under jitter" `Quick
      test_arrow_retry_jitter_reorders_safely;
    Alcotest.test_case "duplicate breaks arrow safety w/o dedup" `Quick
      test_arrow_duplicate_breaks_safety_without_dedup;
    Alcotest.test_case "central counter heals" `Quick
      test_central_count_retry_heals;
    Alcotest.test_case "central queue heals" `Quick
      test_central_queue_retry_heals;
    Alcotest.test_case "crash+restart recovers" `Quick
      test_crash_restart_with_retry_recovers;
    Alcotest.test_case "crash+rejoin replays are deduplicated" `Quick
      test_crash_rejoin_reliable_dedup;
    Alcotest.test_case "arrow+retry, dead root off the tail" `Quick
      test_arrow_retry_dead_root_off_tail;
    Alcotest.test_case "permanent crash -> stall verdict" `Quick
      test_permanent_crash_stalls_not_hangs;
    Alcotest.test_case "degradation summary" `Quick
      test_run_faulty_summary_consistent;
    Alcotest.test_case "named registry resolves" `Quick
      test_named_registry_resolves;
  ]
