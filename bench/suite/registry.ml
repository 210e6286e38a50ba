(* The suite's single table of workloads and metrics. See registry.mli. *)

type metric = {
  name : string;
  unit : string;
  better : Sample.better;
  bound : float;
  floor : float;
}

type workload = { wname : string; why : string; reps : int; simulated : string list }

let all_sim =
  [
    "msgs_per_op"; "delay_mean_rounds"; "delay_p50_rounds"; "delay_p99_rounds";
    "failed_pct";
  ]

let workloads =
  [
    {
      wname = "open-queue";
      why =
        "countq timeline on torus:1000x1000 at rate 8: the event engine's \
         message hot path over ~870k touched nodes, with the sketch sink and \
         telemetry hooks attached";
      reps = 5;
      simulated = all_sim;
    };
    {
      wname = "open-funnel";
      why =
        "countq load -w funnel on tree:64:1000000 at rate 2: the same engine \
         and Load layers past the funnel's knee, a root hot spot with deep \
         FIFO backlogs and no hooks";
      reps = 5;
      simulated = all_sim;
    };
    {
      wname = "oneshot-1m";
      why =
        "the 10^6 rows of E30 and E32 at shards 2: arrow on list:1000000 and \
         the combining funnel on tree:64:1000000, the only workload through \
         Simnet.Shard";
      reps = 9;
      simulated = [ "msgs_per_op"; "delay_mean_rounds"; "failed_pct" ];
    };
    {
      wname = "check";
      why =
        "countq check --jobs 1: the model checker and the spec checks on the \
         14 fixed instances (~810k configurations), with no simulation engine \
         involved";
      reps = 5;
      simulated = [ "failed_pct" ];
    };
    {
      wname = "paper-sweep";
      why =
        "countq experiments E25 --jobs 1: arrow and six counting protocols on \
         20 list, mesh, K_n and star graphs through the materialised \
         Engine.run";
      reps = 5;
      simulated = [ "msgs_per_op"; "delay_mean_rounds"; "failed_pct" ];
    };
  ]

let e2e name unit better ~bound ~floor =
  { name; unit; better; bound; floor }

(* Bounds are shares of the base median; floors are absolute, in the
   metric's unit, for medians too small for a share to mean anything.
   The time bounds are the widest allowed because the spread is: on a
   shared 2-core VM the medians of ten runs on different seeds spread
   by 4-9% IQR, and further on the memory-bound workloads while the
   machine itself drifts over minutes (see README.md). *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower ~bound:0.25 ~floor:0.01;
    e2e "wall_s" "s" Lower ~bound:0.25 ~floor:0.;
    e2e "ops_per_s" "ops/s" Higher ~bound:0.25 ~floor:0.;
    e2e "peak_rss_mb" "MB" Lower ~bound:0.1 ~floor:0.;
  ]

let simulated =
  List.map
    (fun (name, unit) -> e2e name unit Lower ~bound:0. ~floor:0.)
    [
      ("msgs_per_op", "msgs");
      ("delay_mean_rounds", "rounds");
      ("delay_p50_rounds", "rounds");
      ("delay_p99_rounds", "rounds");
      ("failed_pct", "%");
    ]

let explore_protocols =
  [
    "arrow"; "central_count"; "central_queue"; "combining"; "diffracting";
    "funnel"; "token_ring"; "sweep"; "dynamic_queue";
  ]

let run_protocols =
  [ "arrow"; "central"; "combining"; "diffracting"; "funnel"; "network"; "sweep" ]

let per_layer =
  let m ?(better = Sample.Lower) name unit =
    { name; unit; better; bound = 0.; floor = 0. }
  in
  [
    m "load.schedule_s" "s";
    m "load.run_s" "s";
    m "load.one_shot_s" "s";
    m "engine.messages" "count";
    m "engine.executed_rounds" "count";
    m "engine.touched" "count";
    m "engine.peak_in_flight" "count";
    m "engine.max_backlog" "count";
    m "engine.ns_per_msg" "ns";
    m "shard.run_s" "s";
    m "shard.seq_queuing_s" "s";
    m "shard.seq_funnel_s" "s";
    m ~better:Higher "shard.speedup_queuing" "x";
    m ~better:Higher "shard.speedup_funnel" "x";
    m "counting.funnel_build_s" "s";
    m "counting.validate_s" "s";
    m "telemetry.hook_s" "s";
  ]
  @ List.map
      (fun p -> m ("explore." ^ p ^ "_s") "s")
      explore_protocols
  @ [
      m "explore.configs" "count";
      m "explore.terminal" "count";
      m "explore.dedup_hits" "count";
      m ~better:Higher "explore.configs_per_s" "1/s";
      m "spec.check_s" "s";
      m "spec.checks" "count";
    ]
  @ List.map (fun p -> m ("run." ^ p ^ "_s") "s") run_protocols
  @ List.map (fun p -> m ("run." ^ p ^ "_msgs") "count") run_protocols
  @ [
      m "topology.gen_s" "s";
      m "gc.minor_mwords" "Mwords";
      m "gc.major_mwords" "Mwords";
      m "gc.major_collections" "count";
      m "gc.top_heap_mb" "MB";
      m "trace.overhead_pct" "%";
    ]

let find_workload name = List.find_opt (fun w -> w.wname = name) workloads
let find name metrics = List.find_opt (fun m -> m.name = name) metrics
