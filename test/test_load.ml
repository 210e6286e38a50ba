(* Tests for the open-loop Load harness: saturation-verdict edges and
   the streaming (sketch + reservoir) summarise path against the
   retained one. *)

module Load = Countq.Load
module Implicit = Countq_topology.Implicit
module Sketch = Countq_util.Sketch
module Telemetry = Countq_simnet.Telemetry

(* Internal consistency every summary must satisfy, whatever the
   workload did. *)
let check_consistent (s : Load.summary) =
  Alcotest.(check int) "unfinished = injected - completed" s.unfinished
    (s.injected - s.completed);
  Alcotest.(check bool) "saturated formula" s.saturated
    (s.unfinished * 20 > s.injected);
  if s.completed = 0 then begin
    Alcotest.(check (float 0.)) "p50 degrades to 0" 0. s.p50;
    Alcotest.(check (float 0.)) "mean degrades to 0" 0. s.mean_delay;
    Alcotest.(check int) "max degrades to 0" 0 s.max_delay
  end

(* Zero completions: a counting run cut off before any round trip can
   land (drain 0, horizon 1, origins away from the centre under this
   seed) must report a total summary — Stats is total on empty — and a
   saturated verdict, not an exception. *)
let test_zero_completions () =
  let topo = Implicit.list 64 in
  let s =
    Load.run ~seed:5L ~drain:0 ~topo ~workload:Load.Counting
      ~arrival:(Load.Poisson 4.0) ~horizon:1 ()
  in
  check_consistent s;
  Alcotest.(check bool) "something was injected" true (s.injected > 0);
  Alcotest.(check int) "nothing completed" 0 s.completed;
  Alcotest.(check bool) "saturated" true s.saturated

(* Rate at the counting service capacity (~1 op/round through one
   centre of unit receive capacity): the run must stay internally
   consistent whichever side of the knee this seed lands on. *)
let test_rate_at_capacity () =
  let topo = Implicit.list 64 in
  let s =
    Load.run ~topo ~workload:Load.Counting ~arrival:(Load.Poisson 1.0)
      ~horizon:128 ()
  in
  check_consistent s;
  Alcotest.(check bool) "something completed" true (s.completed > 0)

(* A single-round horizon is legal: every arrival lands in round 1 and
   the default drain (= horizon = 1) still allows the 1-hop queuing
   handshake of adjacent origins. *)
let test_single_round_horizon () =
  let topo = Implicit.list 16 in
  let s =
    Load.run ~topo ~workload:Load.Queuing ~arrival:(Load.Poisson 8.0)
      ~horizon:1 ()
  in
  check_consistent s;
  Alcotest.(check bool) "something was injected" true (s.injected > 0)

let test_horizon_zero_rejected () =
  let topo = Implicit.list 8 in
  Alcotest.check_raises "horizon < 1"
    (Invalid_argument "Load.schedule: horizon must be >= 1") (fun () ->
      ignore
        (Load.run ~topo ~workload:Load.Queuing ~arrival:(Load.Poisson 1.0)
           ~horizon:0 ()))

(* While the sketch holds raw samples (small runs), streaming and
   retained summaries agree bit for bit on every statistic. *)
let prop_streaming_exact_matches_retained =
  QCheck2.Test.make ~name:"streaming = retained while the sketch is exact"
    ~count:30
    ~print:(fun (r, h) -> Printf.sprintf "rate=%g horizon=%d" r h)
    QCheck2.Gen.(pair (float_range 0.25 2.0) (int_range 1 96))
    (fun (rate, horizon) ->
      let topo = Implicit.list 32 in
      let go streaming =
        Load.run ~streaming ~topo ~workload:Load.Queuing
          ~arrival:(Load.Poisson rate) ~horizon ()
      in
      let a = go false and b = go true in
      (not b.Load.sketched)
      && a.Load.injected = b.Load.injected
      && a.Load.completed = b.Load.completed
      && a.Load.unfinished = b.Load.unfinished
      && a.Load.p50 = b.Load.p50
      && a.Load.p95 = b.Load.p95
      && a.Load.p99 = b.Load.p99
      && a.Load.mean_delay = b.Load.mean_delay
      && a.Load.max_delay = b.Load.max_delay
      && a.Load.saturated = b.Load.saturated
      && a.Load.rounds = b.Load.rounds
      && a.Load.messages = b.Load.messages)

(* Past the exact window the percentiles become estimates, bounded by
   the sketch's relative error; counts stay exact. *)
let test_streaming_sketched_error_bound () =
  let topo = Implicit.torus ~dims:[ 16; 16 ] in
  let go streaming =
    Load.run ~streaming ~topo ~workload:Load.Queuing
      ~arrival:(Load.Poisson 4.0) ~horizon:512 ()
  in
  let a = go false and b = go true in
  Alcotest.(check bool) "run is big enough to leave exact mode" true
    b.sketched;
  Alcotest.(check int) "injected agree" a.injected b.injected;
  Alcotest.(check int) "completed agree" a.completed b.completed;
  Alcotest.(check int) "max agrees exactly" a.max_delay b.max_delay;
  let close name exact est =
    if abs_float (est -. exact) > (Sketch.relative_error *. exact) +. 1e-9
    then
      Alcotest.failf "%s: estimate %g vs exact %g exceeds the error bound"
        name est exact
  in
  close "p50" a.p50 b.p50;
  close "p95" a.p95 b.p95;
  close "p99" a.p99 b.p99

(* The streaming path retains no spans but does surface exemplars. *)
let test_streaming_exemplars () =
  let topo = Implicit.list 32 in
  let s =
    Load.run ~streaming:true ~keep_spans:true ~topo ~workload:Load.Queuing
      ~arrival:(Load.Poisson 2.0) ~horizon:64 ()
  in
  Alcotest.(check bool) "no span table" true (s.spans = []);
  Alcotest.(check bool) "exemplars present" true (s.exemplars <> []);
  List.iter
    (fun (tag, (sp : Countq_simnet.Span.t)) ->
      (match tag with
      | "first" | "slowest" | "sample" -> ()
      | t -> Alcotest.failf "unknown exemplar tag %S" t);
      match (sp.completion_round, Countq_simnet.Span.delay sp) with
      | Some r, Some d ->
          if r - sp.inject_round <> d then
            Alcotest.fail "exemplar delay inconsistent"
      | _ -> Alcotest.fail "streaming exemplars are completed spans")
    s.exemplars

(* ---- the combining-funnel workload ---- *)

let funnel_topo = Implicit.tree ~arity:3 121

(* Every cohort decombines to exactly its arrivals: nothing is lost or
   double-counted, so with a full drain window injected = completed. *)
let test_funnel_drains_exactly () =
  let s =
    Load.run ~seed:9L ~topo:funnel_topo ~workload:Load.Funnel
      ~arrival:(Load.Poisson 2.0) ~horizon:96 ()
  in
  check_consistent s;
  Alcotest.(check bool) "something was injected" true (s.injected > 0);
  Alcotest.(check int) "every operation completed" s.injected s.completed;
  Alcotest.(check bool) "not saturated" false s.saturated

(* Bursts far past the central counter's ~1 op/round service capacity:
   a burst round is one big cohort, which the funnel combines into one
   Up per on-path root child however many ops it carries, while every
   central op still queues through the centre one round at a time —
   same tree, same seed, same arrivals. *)
let test_funnel_moves_the_knee () =
  let go w =
    Load.run ~seed:3L ~topo:funnel_topo ~workload:w
      ~arrival:(Load.Bursty { rate = 4.0; on = 2; off = 14 }) ~horizon:128 ()
  in
  let funnel = go Load.Funnel and central = go Load.Counting in
  Alcotest.(check int) "same arrivals" central.injected funnel.injected;
  Alcotest.(check bool)
    (Printf.sprintf "funnel completes more (%d vs %d)" funnel.completed
       central.completed)
    true
    (funnel.completed > central.completed);
  Alcotest.(check bool) "central is past its knee" true central.saturated;
  Alcotest.(check bool) "funnel is not" false funnel.saturated

(* The funnel workload shards bit-identically, like the other two. *)
let test_funnel_sharded_pinned () =
  let go shards =
    Load.run ~seed:7L ~shards ~topo:funnel_topo ~workload:Load.Funnel
      ~arrival:(Load.Bursty { rate = 2.0; on = 4; off = 12 }) ~horizon:64 ()
  in
  let seq = go 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d pinned" k)
        true
        (go k = seq))
    [ 2; 3; 5 ]

let test_funnel_one_shot () =
  let requests = [ 0; 5; 17; 40; 88; 120 ] in
  let s =
    Load.one_shot ~topo:funnel_topo ~workload:Load.Funnel ~requests ()
  in
  Alcotest.(check int) "all requests" (List.length requests) s.os_requests;
  Alcotest.(check int) "all completed" (List.length requests) s.os_completed;
  (* The same one-shot through the counting library's own driver. *)
  let r =
    Countq_counting.Funnel.run_implicit
      ~config:Countq_simnet.Engine.default_config ~topo:funnel_topo ~requests
      ()
  in
  Alcotest.(check int) "rounds agree" r.Countq_counting.Counts.rounds
    s.os_rounds;
  Alcotest.(check int) "messages agree" r.Countq_counting.Counts.messages
    s.os_messages;
  let sharded =
    Load.one_shot ~shards:3 ~topo:funnel_topo ~workload:Load.Funnel ~requests
      ()
  in
  Alcotest.(check bool) "sharded one-shot pinned" true (sharded = s)

(* Requests at 0 and n-1 are the bounds of the starter lookup's binary
   search: both must issue, at every shard count. *)
let test_one_shot_edge_requests () =
  let topo = Implicit.list 64 in
  List.iter
    (fun (workload, requests, shards) ->
      let s = Load.one_shot ~shards ~topo ~workload ~requests () in
      Alcotest.(check int)
        (Printf.sprintf "%s at shards %d: every request completes"
           (Load.workload_label workload) shards)
        (List.length requests) s.os_completed)
    [
      (Load.Queuing, [ 0; 63 ], 1);
      (Load.Queuing, [ 0; 63 ], 2);
      (Load.Queuing, [ 0; 1; 31; 62; 63 ], 3);
      (Load.Counting, [ 0; 63 ], 1);
      (Load.Counting, [ 0; 63 ], 2);
      (Load.Counting, [ 0; 1; 31; 62; 63 ], 3);
    ]

let test_one_shot_rejects_unsorted () =
  let topo = Implicit.list 64 in
  List.iter
    (fun (workload, requests) ->
      Alcotest.check_raises "not strictly ascending"
        (Invalid_argument
           "Shard.run_implicit: starters must be strictly ascending")
        (fun () -> ignore (Load.one_shot ~topo ~workload ~requests ())))
    [
      (Load.Queuing, [ 63; 0 ]);
      (Load.Queuing, [ 5; 5 ]);
      (Load.Counting, [ 0; 40; 20 ]);
    ]

let test_funnel_needs_a_tree () =
  Alcotest.check_raises "ring rejected"
    (Invalid_argument "Load.run: the funnel workload needs an implicit tree family")
    (fun () ->
      ignore
        (Load.run ~topo:(Implicit.ring 32) ~workload:Load.Funnel
           ~arrival:(Load.Poisson 1.0) ~horizon:8 ()))

(* Past the knee: a 4-ary tree of 341 nodes fed 3 and 6 ops/round,
   where cohorts stay open at the root's children for hundreds of
   rounds. Every figure is pinned, and each run is identical at two and
   three shards. *)
let funnel_past_knee ?drain ~shards rate =
  Load.run ~seed:11L ?drain ~shards ~topo:(Implicit.tree ~arity:4 341)
    ~workload:Load.Funnel ~arrival:(Load.Poisson rate) ~horizon:256 ()

let check_sharded_equal ?drain rate (s : Load.summary) =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "rate %g shards=%d equal" rate k)
        true
        (funnel_past_knee ?drain ~shards:k rate = s))
    [ 2; 3 ]

let test_funnel_past_knee_pinned () =
  let s = funnel_past_knee ~shards:1 3.0 in
  check_consistent s;
  Alcotest.(check int) "injected" 793 s.injected;
  Alcotest.(check int) "completed" 689 s.completed;
  Alcotest.(check int) "messages" 4811 s.messages;
  Alcotest.(check (float 0.)) "p50" 156. s.p50;
  Alcotest.(check (float 1e-9)) "p99" 287.12 s.p99;
  Alcotest.(check int) "max backlog" 78 s.max_backlog;
  check_sharded_equal 3.0 s

let test_funnel_past_knee_no_drain () =
  let s = funnel_past_knee ~drain:0 ~shards:1 3.0 in
  check_consistent s;
  Alcotest.(check int) "injected" 793 s.injected;
  Alcotest.(check int) "completed" 338 s.completed;
  Alcotest.(check int) "unfinished" 455 s.unfinished;
  Alcotest.(check int) "messages" 3389 s.messages;
  check_sharded_equal ~drain:0 3.0 s

let test_funnel_past_knee_rate_6 () =
  let s = funnel_past_knee ~shards:1 6.0 in
  check_consistent s;
  Alcotest.(check int) "injected" 1508 s.injected;
  Alcotest.(check int) "completed" 856 s.completed;
  Alcotest.(check int) "messages" 6852 s.messages;
  Alcotest.(check (float 0.)) "p50" 230.5 s.p50;
  Alcotest.(check int) "max backlog" 106 s.max_backlog;
  check_sharded_equal 6.0 s

(* Below the knee with a long drain every operation completes, and the
   run's count check (distinct counts, exactly {1..injected} here)
   passes, retained or streaming. *)
let prop_funnel_drains_with_exact_counts =
  QCheck2.Test.make ~name:"funnel below the knee: all complete, counts exact"
    ~count:40
    ~print:(fun (seed, rate, (arity, n)) ->
      Printf.sprintf "seed=%d rate=%g tree=%d:%d" seed rate arity n)
    QCheck2.Gen.(
      triple (int_range 0 10_000) (float_range 0.05 1.0)
        (pair (int_range 2 5) (int_range 1 80)))
    (fun (seed, rate, (arity, n)) ->
      let topo = Implicit.tree ~arity n in
      let go streaming =
        Load.run ~seed:(Int64.of_int seed) ~streaming ~drain:1024 ~topo
          ~workload:Load.Funnel ~arrival:(Load.Poisson rate) ~horizon:64 ()
      in
      let a = go false and b = go true in
      a.Load.completed = a.Load.injected && b.Load.completed = b.Load.injected)

(* Telemetry attached to a Load run is passive for the summary. *)
let test_load_telemetry_passive () =
  let topo = Implicit.list 32 in
  let go ?telemetry () =
    Load.run ?telemetry ~topo ~workload:Load.Queuing
      ~arrival:(Load.Poisson 1.0) ~horizon:64 ()
  in
  let plain = go () in
  let tl = Telemetry.create ~window_size:8 () in
  let observed = go ~telemetry:tl () in
  Alcotest.(check bool) "summary unchanged" true (plain = observed);
  Alcotest.(check bool)
    "injections were recorded" true
    (List.exists
       (fun w -> w.Telemetry.injections > 0)
       (Telemetry.windows tl))

let suite =
  [
    Alcotest.test_case "zero completions" `Quick test_zero_completions;
    Alcotest.test_case "rate at capacity" `Quick test_rate_at_capacity;
    Alcotest.test_case "single-round horizon" `Quick test_single_round_horizon;
    Alcotest.test_case "horizon 0 rejected" `Quick test_horizon_zero_rejected;
    Helpers.qcheck prop_streaming_exact_matches_retained;
    Alcotest.test_case "sketched error bound" `Quick
      test_streaming_sketched_error_bound;
    Alcotest.test_case "streaming exemplars" `Quick test_streaming_exemplars;
    Alcotest.test_case "funnel drains exactly" `Quick test_funnel_drains_exactly;
    Alcotest.test_case "funnel moves the knee" `Quick test_funnel_moves_the_knee;
    Alcotest.test_case "funnel sharded pinned" `Quick test_funnel_sharded_pinned;
    Alcotest.test_case "funnel one-shot" `Quick test_funnel_one_shot;
    Alcotest.test_case "one-shot requests at 0 and n-1" `Quick
      test_one_shot_edge_requests;
    Alcotest.test_case "one-shot rejects unsorted requests" `Quick
      test_one_shot_rejects_unsorted;
    Alcotest.test_case "funnel needs a tree" `Quick test_funnel_needs_a_tree;
    Alcotest.test_case "funnel past the knee pinned" `Quick
      test_funnel_past_knee_pinned;
    Alcotest.test_case "funnel past the knee, no drain" `Quick
      test_funnel_past_knee_no_drain;
    Alcotest.test_case "funnel past the knee at rate 6" `Quick
      test_funnel_past_knee_rate_6;
    Helpers.qcheck prop_funnel_drains_with_exact_counts;
    Alcotest.test_case "load telemetry passive" `Quick
      test_load_telemetry_passive;
  ]
