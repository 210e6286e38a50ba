(* Benchmark harness: regenerates every paper claim's table (E1-E13)
   and times the underlying kernels with Bechamel.

   Usage:
     dune exec bench/main.exe                 -- all tables + micro benches
     dune exec bench/main.exe -- --quick      -- smaller sweeps
     dune exec bench/main.exe -- --only E9    -- a single experiment
     dune exec bench/main.exe -- --no-micro   -- skip the Bechamel pass
     dune exec bench/main.exe -- --csv DIR    -- also write DIR/<id>.csv
     dune exec bench/main.exe -- --json PATH  -- perf snapshot (default
                                                 BENCH_10.json; --no-json
                                                 to skip)
     dune exec bench/main.exe -- --jobs N     -- table+sweep budget of N
                                                 domains (experiments are
                                                 pure, so this is safe;
                                                 output order is kept)
     dune exec bench/main.exe -- --no-cache   -- recompute every sweep
                                                 point (skip the on-disk
                                                 cache)
     dune exec bench/main.exe -- --cache-dir D -- cache root (default
                                                 bench/out/cache)

   Every run emits a machine-readable perf snapshot (BENCH_10.json):
   per-experiment wall time and cache hit/miss counts, the
   engine-vs-reference speedup probe on the E3 list-counting sweep, the
   metrics-recorder overhead probe, the dynamic-schedule overhead probe
   (the same sweep with the identity topology schedule attached — the
   price of leaving the dynamic machinery on for a static run), the
   n-scaling probe (one-shot queuing on implicit lists and tori from
   10^3 to 10^6 nodes through the event engine, wall ns per message so
   near-linear-in-work cost is checkable at a glance), the open-loop
   saturation probe (Poisson arrivals at rates below and above
   counting's service ceiling, queuing next to counting), the
   churn probe (the dynamic queue and the route-repaired arrow on the
   mesh, identity vs the seeded flap schedule, wall time next to the
   degradation), the jobs-scaling probe (the heavy sweep grids
   regenerated at jobs = 1/2/4/8, honest wall times plus the core count
   so a 1-core container's flat curve reads as what it is; redundant
   levels are skipped on 1 core and listed as skipped), the
   shard-scaling probe (one E30-shape run partitioned across domains by
   Countq_simnet.Shard at shards = 1/2/4, summaries asserted identical
   at every level), the
   cache-warm probe (cold vs warm pass over the grid experiments on a
   scratch cache, asserting bit-identical tables), and — unless
   --no-micro — Bechamel ns/run per kernel. Tracked from PR 2 onward so
   perf regressions show up as a diff, not an anecdote.

   Sweep results are cached under bench/out/cache keyed by content
   (schema version, experiment, seed, config tag, point name), and one
   random cached point per experiment is spot-checked against a fresh
   recompute: a disagreement aborts the run with a nonzero exit, so a
   stale cache can never silently launder a regression. *)

module Experiments = Countq.Experiments
module Table = Countq.Table
module Sweep = Countq.Sweep
module Cache = Countq.Cache
module Parallel = Countq_util.Parallel
module Engine = Countq_simnet.Engine
module Reference = Countq_simnet.Reference
module Dynamic = Countq_simnet.Dynamic
module Graph = Countq_topology.Graph
module TGen = Countq_topology.Gen
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning

type opts = {
  quick : bool;
  micro : bool;
  only : string option;
  csv_dir : string option;
  json_path : string option;
  jobs : int;
  use_cache : bool;
  cache_dir : string;
}

let default_cache_dir =
  Filename.concat (Filename.concat "bench" "out") "cache"

let parse_args () =
  let quick = ref false in
  let micro = ref true in
  let only = ref None in
  let csv_dir = ref None in
  let json_path = ref (Some "BENCH_10.json") in
  let jobs = ref 1 in
  let use_cache = ref true in
  let cache_dir = ref default_cache_dir in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--no-micro" :: rest ->
        micro := false;
        go rest
    | "--only" :: id :: rest ->
        only := Some id;
        go rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        go rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        go rest
    | "--no-json" :: rest ->
        json_path := None;
        go rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ ->
            prerr_endline "--jobs expects a positive integer";
            exit 2);
        go rest
    | "--no-cache" :: rest ->
        use_cache := false;
        go rest
    | "--cache-dir" :: dir :: rest ->
        cache_dir := dir;
        go rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    quick = !quick;
    micro = !micro;
    only = !only;
    csv_dir = !csv_dir;
    json_path = !json_path;
    jobs = !jobs;
    use_cache = !use_cache;
    cache_dir = !cache_dir;
  }

let selected only =
  match only with
  | None -> Experiments.all
  | Some id -> (
      match Experiments.find id with
      | Some s -> [ s ]
      | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          exit 2)

(* [mkdir dir] with parent creation: Sys.mkdir is mkdir(2), so a
   nested --csv path like out/csv used to fail with ENOENT. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "" then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "--csv: %S exists and is not a directory" dir)

(* The spot-check seed varies per invocation so repeated bench runs
   walk different cached points; determinism of the tables themselves
   is untouched (the spot check only compares, never contributes). *)
let fresh_spot_seed () = Int64.of_float (Unix.gettimeofday () *. 1e6)

(* The sweep-grid experiments, heaviest first. Scheduling the heavy
   grids before the cheap closed-form tables keeps the pool's lanes
   busy to the end instead of finishing with one straggler. *)
let heavy_ids = [ "E25"; "E13"; "E10"; "E9"; "E3"; "E12" ]

type table_run = {
  tr_id : string;
  tr_table : Table.t;
  tr_wall : float;
  tr_hits : int;
  tr_misses : int;
}

let run_tables ~opts ~pool specs =
  (* Experiments are pure functions of their seeds: regenerate them on
     the shared pool, then print in id order. Each lane opens its own
     handle on the shared cache directory - namespaces are one file per
     experiment, so concurrent lanes never touch the same file. *)
  let rank =
    let tbl = Hashtbl.create 32 in
    List.iteri (fun i (s : Experiments.spec) -> Hashtbl.replace tbl s.id i) specs;
    fun id -> try Hashtbl.find tbl id with Not_found -> max_int
  in
  let weight (s : Experiments.spec) =
    let rec idx i = function
      | [] -> List.length heavy_ids
      | h :: t -> if h = s.id then i else idx (i + 1) t
    in
    idx 0 heavy_ids
  in
  let ordered =
    List.stable_sort (fun a b -> compare (weight a) (weight b)) specs
  in
  let spot_seed = fresh_spot_seed () in
  let run_one (s : Experiments.spec) =
    let cache =
      if opts.use_cache then Some (Cache.create ~dir:opts.cache_dir) else None
    in
    let ctx =
      Sweep.ctx ~pool ?cache ~spot_check:opts.use_cache ~spot_seed ()
    in
    let t0 = Unix.gettimeofday () in
    let table = s.run ~quick:opts.quick ~ctx () in
    let tr_wall = Unix.gettimeofday () -. t0 in
    let tr_hits, tr_misses =
      match cache with
      | Some c -> (Cache.hits c, Cache.misses c)
      | None -> (0, 0)
    in
    { tr_id = s.id; tr_table = table; tr_wall; tr_hits; tr_misses }
  in
  let tables =
    List.stable_sort
      (fun a b -> compare (rank a.tr_id) (rank b.tr_id))
      (Parallel.pool_map pool ~chunk:1 run_one ordered)
  in
  List.iter
    (fun r ->
      Table.print r.tr_table;
      let cache_note =
        if opts.use_cache then
          Printf.sprintf ", cache %d hit(s) %d miss(es)" r.tr_hits r.tr_misses
        else ""
      in
      Printf.printf "[%s regenerated in %.2fs%s]\n\n%!" r.tr_id r.tr_wall
        cache_note;
      match opts.csv_dir with
      | None -> ()
      | Some dir ->
          mkdir_p dir;
          let path =
            Filename.concat dir (String.lowercase_ascii r.tr_id ^ ".csv")
          in
          let oc = open_out path in
          output_string oc (Table.to_csv r.tr_table);
          close_out oc)
    tables;
  tables

(* ------------------------------------------------------------------ *)
(* Engine-vs-reference speedup probe: the E3 list-counting sweep at
   the pre-active-set ceiling (n <= 256), timing prebuilt protocols
   through Engine.run and Reference.run so only the engines differ.    *)

type engine_fn = {
  exec :
    's 'm 'r.
    graph:Graph.t ->
    config:Engine.config ->
    protocol:('s, 'm, 'r) Engine.protocol ->
    'r Engine.result;
}

let active_engine =
  { exec = (fun ~graph ~config ~protocol -> Engine.run ~graph ~config ~protocol ()) }

let reference_engine =
  {
    exec = (fun ~graph ~config ~protocol -> Reference.run ~graph ~config ~protocol ());
  }

type speedup_row = {
  sweep_n : int;
  active_s : float;
  reference_s : float;
}

let speedup_probe ~quick () =
  let module C = Countq_counting in
  let sizes = [ 16; 32; 64; 128; 256 ] in
  (* The runs are tens of microseconds, well inside scheduler noise, so
     each measurement is best-of-[rounds] over batches of [reps] runs
     (with one warm-up run so first-touch allocation doesn't skew the
     first batch). *)
  let rounds = if quick then 2 else 5 in
  let time reps f =
    let best = ref infinity in
    for _ = 1 to rounds do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      if dt < !best then best := dt
    done;
    !best
  in
  List.map
    (fun n ->
      (* The exact protocol value E3's sweep runner drives: the token
         sweep on the arrow-optimal spanning tree of the n-node list,
         every node requesting. Theta(n^2) total rounds with one active
         node per round — the regime the active-set engine targets. *)
      let tree = Spanning.best_for_arrow (TGen.path n) in
      let graph = Tree.to_graph tree in
      let requests = List.init n (fun i -> i) in
      let protocol = C.Sweep.one_shot_protocol ~tree ~requests () in
      let config = Engine.default_config in
      let run e () = ignore (e.exec ~graph ~config ~protocol) in
      let reps = max (if quick then 5 else 20) (20_000 / n) in
      run active_engine ();
      run reference_engine ();
      {
        sweep_n = n;
        active_s = time reps (run active_engine);
        reference_s = time reps (run reference_engine);
      })
    sizes

(* ------------------------------------------------------------------ *)
(* Metrics-overhead probe: the same E3 sweep, timed through Engine.run
   with and without a Metrics recorder attached. The recorder's hooks
   sit on the per-message hot paths, so this is the honest price of
   leaving observability on; the acceptance bar is low single digits.  *)

type overhead_row = {
  mo_n : int;
  plain_s : float;
  metrics_s : float;
}

let overhead_pct r =
  if r.plain_s > 0. then ((r.metrics_s /. r.plain_s) -. 1.) *. 100.
  else Float.nan

(* The two arms run as adjacent pairs (alternating order) and the
   overhead is the MEDIAN of the per-pair ratios: clock/thermal drift
   hits both halves of a pair equally and cancels in the ratio, and
   the median shrugs off bursty interference that a best-of between
   two independently-timed arms cannot (one arm can catch a clean
   window the other never sees). The reported times are the fastest
   plain run and that baseline scaled by the median ratio. Shared by
   every attach-a-recorder overhead probe. *)
let time_pair ~rounds reps f g =
  let timed h =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      h ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let ratios = Array.make rounds 0. in
  let best_f = ref infinity in
  for i = 0 to rounds - 1 do
    let tf, tg =
      if i land 1 = 0 then
        let a = timed f in
        let b = timed g in
        (a, b)
      else
        let b = timed g in
        let a = timed f in
        (a, b)
    in
    if tf < !best_f then best_f := tf;
    ratios.(i) <- tg /. tf
  done;
  Array.sort compare ratios;
  (!best_f, !best_f *. ratios.(rounds / 2))

let metrics_overhead_probe ~quick () =
  let module C = Countq_counting in
  let module Metrics = Countq_simnet.Metrics in
  let sizes = if quick then [ 128; 512 ] else [ 128; 256; 512 ] in
  let rounds = if quick then 3 else 15 in
  List.map
    (fun n ->
      let tree = Spanning.best_for_arrow (TGen.path n) in
      let graph = Tree.to_graph tree in
      let requests = List.init n (fun i -> i) in
      let protocol = C.Sweep.one_shot_protocol ~tree ~requests () in
      let config = Engine.default_config in
      (* One recorder reused across the timed runs: creation is a few
         array allocations and would otherwise dominate at small n. *)
      let m = Metrics.create ~graph in
      let plain () = ignore (Engine.run ~graph ~config ~protocol ()) in
      let with_metrics () =
        ignore (Engine.run ~metrics:m ~graph ~config ~protocol ())
      in
      let reps = max (if quick then 5 else 50) (200_000 / n) in
      plain ();
      with_metrics ();
      let plain_s, metrics_s = time_pair ~rounds reps plain with_metrics in
      { mo_n = n; plain_s; metrics_s })
    sizes

(* ------------------------------------------------------------------ *)
(* Telemetry-overhead probe: the same sweep with a windowed Telemetry
   recorder attached. Its hook is one integer division plus a field
   increment per message event; the acceptance bar from the issue is
   <= ~5%. The recorder is reused across timed runs (creation would
   otherwise dominate at small n) and never snapshotted, so the stale
   ring contents are harmless.                                         *)

type tel_row = {
  tn_n : int;
  tl_plain_s : float;
  tl_tel_s : float;
}

let tel_overhead_pct r =
  if r.tl_plain_s > 0. then ((r.tl_tel_s /. r.tl_plain_s) -. 1.) *. 100.
  else Float.nan

let telemetry_overhead_probe ~quick () =
  let module C = Countq_counting in
  let module Telemetry = Countq_simnet.Telemetry in
  let sizes = if quick then [ 128; 512 ] else [ 128; 256; 512 ] in
  let rounds = if quick then 3 else 15 in
  List.map
    (fun n ->
      let tree = Spanning.best_for_arrow (TGen.path n) in
      let graph = Tree.to_graph tree in
      let requests = List.init n (fun i -> i) in
      let protocol = C.Sweep.one_shot_protocol ~tree ~requests () in
      let config = Engine.default_config in
      let tl = Telemetry.create ~window_size:16 () in
      let plain () = ignore (Engine.run ~graph ~config ~protocol ()) in
      let with_tel () =
        ignore (Engine.run ~telemetry:tl ~graph ~config ~protocol ())
      in
      let reps = max (if quick then 5 else 50) (200_000 / n) in
      plain ();
      with_tel ();
      let tl_plain_s, tl_tel_s = time_pair ~rounds reps plain with_tel in
      { tn_n = n; tl_plain_s; tl_tel_s })
    sizes

(* ------------------------------------------------------------------ *)
(* Dynamic-schedule overhead probe: the same E3 sweep, timed through
   Engine.run bare and with the identity Dynamic schedule attached.
   Attaching any schedule moves the run onto the faulty/dynamic loop
   and puts a usable-link test on the per-transmission hot path, so
   this is the honest price of the dynamic machinery for a static run
   (the identity schedule is pinned bit-identical in behaviour).       *)

type dyn_row = {
  dn_n : int;
  bare_s : float;
  dyn_s : float;
}

let dyn_overhead_pct r =
  if r.bare_s > 0. then ((r.dyn_s /. r.bare_s) -. 1.) *. 100. else Float.nan

let dynamic_overhead_probe ~quick () =
  let module C = Countq_counting in
  let sizes = if quick then [ 128; 512 ] else [ 128; 256; 512 ] in
  let rounds = if quick then 3 else 15 in
  List.map
    (fun n ->
      let tree = Spanning.best_for_arrow (TGen.path n) in
      let graph = Tree.to_graph tree in
      let requests = List.init n (fun i -> i) in
      let protocol = C.Sweep.one_shot_protocol ~tree ~requests () in
      let config = Engine.default_config in
      let ident = Dynamic.identity graph in
      let bare () = ignore (Engine.run ~graph ~config ~protocol ()) in
      let with_dyn () =
        ignore
          (Engine.run ~dynamic:(Dynamic.start ident) ~graph ~config ~protocol
             ())
      in
      let reps = max (if quick then 5 else 50) (200_000 / n) in
      bare ();
      with_dyn ();
      let bare_s, dyn_s = time_pair ~rounds reps bare with_dyn in
      { dn_n = n; bare_s; dyn_s })
    sizes

(* ------------------------------------------------------------------ *)
(* Churn probe: the dynamic queue and the route-repaired arrow on the
   mesh, identity schedule vs the seeded flap schedule. Wall time sits
   next to the degradation numbers so a perf regression in the repair
   layers shows up in the same diff as a behavioural one.              *)

type churn_row = {
  ch_name : string;
  ch_wall : float;
  ch_completed : int;
  ch_expected : int;
  ch_rounds : int;
  ch_messages : int;
}

let churn_probe ~quick () =
  let module Dq = Countq_queuing.Dynamic_queue in
  let side = if quick then 3 else 4 in
  let g = TGen.square_mesh side in
  let n = Graph.n g in
  let requests = List.init n (fun i -> i) in
  let tree = Spanning.best_for_arrow g in
  let flaps () = Dynamic.link_flaps ~seed:77L ~rate:0.4 ~epoch:4 g in
  let reps = if quick then 3 else 10 in
  let timed name run =
    (* Best-of-[reps]: the runs are deterministic, so repetition only
       fights scheduler noise. The report comes from the first run. *)
    let report = run () in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (run ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    let result = (report : Dq.report).result in
    {
      ch_name = name;
      ch_wall = !best;
      ch_completed = List.length result.outcomes;
      ch_expected = n;
      ch_rounds = result.rounds;
      ch_messages = result.messages;
    }
  in
  [
    timed
      (Printf.sprintf "dynamic-queue mesh-%dx%d identity" side side)
      (fun () -> Dq.run ~graph:g ~requests ());
    timed
      (Printf.sprintf "dynamic-queue mesh-%dx%d flaps(0.4)" side side)
      (fun () -> Dq.run ~sched:(flaps ()) ~graph:g ~requests ());
    timed
      (Printf.sprintf "arrow+route mesh-%dx%d identity" side side)
      (fun () -> fst (Dq.run_arrow ~graph:g ~tree ~requests ()));
    timed
      (Printf.sprintf "arrow+route mesh-%dx%d flaps(0.4)" side side)
      (fun () -> fst (Dq.run_arrow ~sched:(flaps ()) ~graph:g ~tree ~requests ()));
  ]

(* ------------------------------------------------------------------ *)
(* n-scaling probe: one-shot queuing through the event engine on
   implicit lists and tori from 10^3 to 10^6 nodes, every 16th node
   requesting. The implicit families are never materialised and idle
   nodes hold no state, so the honest cost metric is wall ns per
   message — near-constant across three orders of magnitude of n means
   the engine's cost tracks the work, not the graph.                   *)

type nscale_row = {
  ns_family : string;
  ns_n : int;
  ns_requests : int;
  ns_completed : int;
  ns_rounds : int;
  ns_messages : int;
  ns_touched : int;
  ns_wall : float;
}

let ns_per_message r =
  if r.ns_messages > 0 then r.ns_wall *. 1e9 /. float_of_int r.ns_messages
  else Float.nan

let nscale_probe ~quick () =
  let module Implicit = Countq_topology.Implicit in
  let module Event = Countq_simnet.Event_engine in
  let module Load = Countq.Load in
  let sizes =
    if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let stride = 16 in
  let torus_side n = max 3 (int_of_float (Float.round (sqrt (float_of_int n)))) in
  let one topo =
    let n = Implicit.n topo in
    let requests = List.init (n / stride) (fun i -> i * stride) in
    (* One warm-up run, then best-of-3: the big runs are allocation
       dominated, so a clean heap per attempt keeps GC slices out of
       the small sizes' numbers. Stats are per-run (they accumulate
       across runs sharing a recorder). *)
    let run () =
      let stats = Event.fresh_stats () in
      (Load.one_shot ~stats ~topo ~workload:Load.Queuing ~requests (), stats)
    in
    ignore (run ());
    let best = ref infinity in
    let r = ref (run ()) in
    for _ = 1 to 3 do
      Gc.major ();
      let t0 = Unix.gettimeofday () in
      r := run ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    let s, stats = !r in
    let s = ref s in
    {
      ns_family = Implicit.label topo;
      ns_n = n;
      ns_requests = (!s).Load.os_requests;
      ns_completed = (!s).Load.os_completed;
      ns_rounds = (!s).Load.os_rounds;
      ns_messages = (!s).Load.os_messages;
      ns_touched = stats.Event.touched;
      ns_wall = !best;
    }
  in
  List.map (fun n -> one (Implicit.list n)) sizes
  @ List.map
      (fun n ->
        let side = torus_side n in
        one (Implicit.torus ~dims:[ side; side ]))
      sizes

(* ------------------------------------------------------------------ *)
(* Open-loop saturation probe: Poisson arrivals on the implicit list,
   one rate well below counting's ~1 op/round service ceiling and one
   well above it, queuing next to counting. The separation shows up as
   counting's throughput pinning at the ceiling while queuing tracks
   the offered rate; wall time rides along so a slowdown in the
   injection path is caught by the same snapshot.                      *)

type loadgen_row = {
  lg_workload : string;
  lg_rate : float;
  lg_injected : int;
  lg_completed : int;
  lg_throughput : float;
  lg_p95 : float;
  lg_saturated : bool;
  lg_wall : float;
}

let loadgen_probe ~quick () =
  let module Implicit = Countq_topology.Implicit in
  let module Load = Countq.Load in
  let n = if quick then 256 else 1024 in
  let horizon = if quick then 256 else 512 in
  let topo = Implicit.list n in
  let rates = [ 0.25; 2.0 ] in
  List.concat_map
    (fun workload ->
      List.map
        (fun rate ->
          let t0 = Unix.gettimeofday () in
          let s =
            Load.run ~topo ~workload ~arrival:(Load.Poisson rate) ~horizon ()
          in
          let lg_wall = Unix.gettimeofday () -. t0 in
          {
            lg_workload = s.Load.workload;
            lg_rate = rate;
            lg_injected = s.Load.injected;
            lg_completed = s.Load.completed;
            lg_throughput = s.Load.throughput;
            lg_p95 = s.Load.p95;
            lg_saturated = s.Load.saturated;
            lg_wall;
          })
        rates)
    [ Load.Queuing; Load.Counting ]

(* ------------------------------------------------------------------ *)
(* Jobs-scaling probe: the heavy sweep grids regenerated end-to-end at
   increasing pool budgets, cache off so every point really computes.
   Wall times are reported as measured, next to the machine's core
   count — on a 1-core container the curve is honestly flat, and the
   snapshot says so rather than laundering it into a fake speedup.     *)

type scaling_row = {
  sc_jobs : int;
  sc_wall : float;
}

type scaling_probe = {
  sc_cores : int;  (* Domain.recommended_domain_count at probe time *)
  sc_skipped : int list;  (* levels elided as redundant on this machine *)
  sc_rows : scaling_row list;
}

let jobs_scaling_probe ~quick () =
  let specs =
    List.filter_map Experiments.find (if quick then [ "E3"; "E12" ] else heavy_ids)
  in
  let cores = Domain.recommended_domain_count () in
  let levels = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  (* On a 1-core machine every level above 2 exercises the same single
     lane: keep jobs=1 and one oversubscribed level (the pool-overhead
     sanity point) and record the elided levels instead of spending
     minutes measuring the same thing twice more. *)
  let levels, skipped =
    if cores = 1 then List.partition (fun j -> j <= 2) levels else (levels, [])
  in
  let rows =
    List.map
      (fun j ->
        let pool = Parallel.pool ~jobs:j in
        let ctx = Sweep.ctx ~pool () in
        let t0 = Unix.gettimeofday () in
        ignore
          (Parallel.pool_map pool ~chunk:1
             (fun (s : Experiments.spec) -> s.run ~quick ~ctx ())
             specs);
        { sc_jobs = j; sc_wall = Unix.gettimeofday () -. t0 })
      levels
  in
  { sc_cores = cores; sc_skipped = skipped; sc_rows = rows }

(* ------------------------------------------------------------------ *)
(* Shard-scaling probe: ONE E30-shape run (one-shot queuing on the
   implicit list, every 16th node requesting) partitioned across
   domains by Countq_simnet.Shard at increasing shard counts. The
   summaries must be identical at every level — the merge is
   deterministic, so sharding is purely a wall-clock lever — and the
   wall times are reported as measured next to the core count: on a
   1-core container the curve is honestly flat (the shard data path on
   the calling domain alone), not a laundered speedup.                 *)

type shard_row = {
  sh_shards : int;
  sh_wall : float;
  sh_identical : bool;  (* summary equals the shards=1 summary *)
}

type shard_probe = {
  sh_cores : int;
  sh_n : int;
  sh_messages : int;
  sh_rows : shard_row list;
}

let shard_scaling_probe ~quick () =
  let module Implicit = Countq_topology.Implicit in
  let module Load = Countq.Load in
  let n = if quick then 100_000 else 1_000_000 in
  let stride = 16 in
  let topo = Implicit.list n in
  let requests = List.init (n / stride) (fun i -> i * stride) in
  let levels = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let run shards =
    Load.one_shot ~shards ~topo ~workload:Load.Queuing ~requests ()
  in
  let timed shards =
    ignore (run shards);
    let best = ref infinity in
    let s = ref (run 1) in
    for _ = 1 to 2 do
      Gc.major ();
      let t0 = Unix.gettimeofday () in
      s := run shards;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (!s, !best)
  in
  let base, base_wall = timed 1 in
  let rows =
    { sh_shards = 1; sh_wall = base_wall; sh_identical = true }
    :: List.map
         (fun k ->
           let s, wall = timed k in
           { sh_shards = k; sh_wall = wall; sh_identical = s = base })
         (List.filter (fun k -> k > 1) levels)
  in
  {
    sh_cores = Domain.recommended_domain_count ();
    sh_n = n;
    sh_messages = base.Load.os_messages;
    sh_rows = rows;
  }

(* ------------------------------------------------------------------ *)
(* Funnel-scaling probe: combining-funnel one-shot counting on
   implicit balanced trees at the adaptive width — the counting side
   of the n-scaling story, next to the shard probe's queuing run. A
   shards=2 rerun is asserted bit-identical at every size.             *)

type funnel_row = {
  fu_n : int;
  fu_arity : int;
  fu_requests : int;
  fu_messages : int;
  fu_rounds : int;
  fu_wall : float;
  fu_identical : bool;
}

let funnel_msgs_per_op r =
  if r.fu_requests > 0 then
    float_of_int r.fu_messages /. float_of_int r.fu_requests
  else Float.nan

let funnel_scaling_probe ~quick () =
  let module Implicit = Countq_topology.Implicit in
  let module Funnel = Countq_counting.Funnel in
  let module Load = Countq.Load in
  let sizes =
    if quick then [ 10_000; 100_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  let stride = 16 in
  let one n =
    let k = n / stride in
    let arity = Funnel.adaptive_width ~n ~concurrency:k in
    let topo = Implicit.tree ~arity n in
    let requests = List.init k (fun i -> i * stride) in
    let run shards =
      Load.one_shot ~shards ~topo ~workload:Load.Funnel ~requests ()
    in
    ignore (run 1);
    let best = ref infinity in
    let s = ref (run 1) in
    for _ = 1 to 3 do
      Gc.major ();
      let t0 = Unix.gettimeofday () in
      s := run 1;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    {
      fu_n = n;
      fu_arity = arity;
      fu_requests = (!s).Load.os_requests;
      fu_messages = (!s).Load.os_messages;
      fu_rounds = (!s).Load.os_rounds;
      fu_wall = !best;
      fu_identical = run 2 = !s;
    }
  in
  List.map one sizes

(* ------------------------------------------------------------------ *)
(* Cache-warm probe: the grid experiments run twice against a scratch
   cache directory (cleared first so the cold pass is genuinely cold).
   The warm pass must hit on every point, re-render bit-identical
   tables, and survive the spot check; any disagreement is a regression
   and the harness exits nonzero.                                      *)

type warm_probe = {
  wp_ids : string list;
  wp_cold : float;
  wp_warm : float;
  wp_hits : int;
  wp_misses : int;
  wp_identical : bool;
}

let render_table t = Format.asprintf "%a" Table.pp t

let cache_warm_probe ~quick ~pool () =
  let dir = Filename.concat (Filename.concat "bench" "out") "cache-probe" in
  ignore (Cache.clear ~dir);
  let specs = List.filter_map Experiments.find heavy_ids in
  let pass ~spot_check () =
    let cache = Cache.create ~dir in
    let ctx =
      Sweep.ctx ~pool ~cache ~spot_check ~spot_seed:(fresh_spot_seed ()) ()
    in
    let t0 = Unix.gettimeofday () in
    let rendered =
      List.map
        (fun (s : Experiments.spec) -> render_table (s.run ~quick ~ctx ()))
        specs
    in
    (rendered, Unix.gettimeofday () -. t0, Cache.hits cache, Cache.misses cache)
  in
  let cold, wp_cold, _, _ = pass ~spot_check:false () in
  let warm, wp_warm, wp_hits, wp_misses = pass ~spot_check:true () in
  {
    wp_ids = List.map (fun (s : Experiments.spec) -> s.id) specs;
    wp_cold;
    wp_warm;
    wp_hits;
    wp_misses;
    wp_identical = cold = warm;
  }

(* ------------------------------------------------------------------ *)
(* Explorer probe: the pre-rewrite model checker (verbatim copy below:
   depth-first, whole-configuration structural Hashtbl memo, no
   reduction) against the shipped Explore.run on the same instances.
   The headline number is the configs-per-second ratio; the seed
   explorer also visits more configurations on the same instance
   because it never collapses commuting transmits.                     *)

module Seed_explore = struct
  type ('s, 'm, 'r) config = {
    states : 's array;
    outbox : (int * 'm) list array;
    links : ((int * int) * 'm list) list;
    completions : 'r Engine.completion list;
  }

  let link_get links key =
    match List.assoc_opt key links with Some q -> q | None -> []

  let link_set links key q =
    let without = List.remove_assoc key links in
    if q = [] then without
    else List.sort (fun (a, _) (b, _) -> compare a b) ((key, q) :: without)

  let run ~graph ~protocol ~check ?(max_configs = 1_000_000) () =
    let n = Countq_topology.Graph.n graph in
    let states = Array.init n protocol.Engine.initial_state in
    let outbox = Array.make n [] in
    let completions = ref [] in
    for v = 0 to n - 1 do
      let s, actions = protocol.Engine.on_start ~node:v states.(v) in
      states.(v) <- s;
      List.iter
        (fun action ->
          match action with
          | Engine.Send (dst, msg) -> outbox.(v) <- outbox.(v) @ [ (dst, msg) ]
          | Engine.Complete value ->
              completions :=
                { Engine.node = v; round = 0; value } :: !completions)
        actions
    done;
    let initial = { states; outbox; links = []; completions = !completions } in
    let visited = Hashtbl.create 4096 in
    let explored = ref 0 and terminal = ref 0 in
    let stack = Stack.create () in
    Stack.push initial stack;
    while not (Stack.is_empty stack) do
      let cfg = Stack.pop stack in
      if not (Hashtbl.mem visited cfg) then begin
        Hashtbl.replace visited cfg ();
        incr explored;
        if !explored > max_configs then
          invalid_arg "Seed_explore.run: max_configs exceeded";
        let successors = ref [] in
        for v = 0 to n - 1 do
          match cfg.outbox.(v) with
          | [] -> ()
          | (dst, msg) :: rest ->
              let outbox = Array.copy cfg.outbox in
              outbox.(v) <- rest;
              let key = (v, dst) in
              let links =
                link_set cfg.links key (link_get cfg.links key @ [ msg ])
              in
              successors := { cfg with outbox; links } :: !successors
        done;
        List.iter
          (fun ((src, dst), q) ->
            match q with
            | [] -> ()
            | msg :: rest ->
                let links = link_set cfg.links (src, dst) rest in
                let event_index =
                  List.length cfg.completions + List.length cfg.links
                in
                let s, actions =
                  protocol.Engine.on_receive ~round:event_index ~node:dst
                    ~src msg cfg.states.(dst)
                in
                let states = Array.copy cfg.states in
                states.(dst) <- s;
                let outbox = Array.copy cfg.outbox in
                let completions = ref cfg.completions in
                List.iter
                  (fun action ->
                    match action with
                    | Engine.Send (d, m) -> outbox.(dst) <- outbox.(dst) @ [ (d, m) ]
                    | Engine.Complete value ->
                        completions :=
                          { Engine.node = dst; round = event_index; value }
                          :: !completions)
                  actions;
                successors :=
                  { states; outbox; links; completions = !completions }
                  :: !successors)
          cfg.links;
        match !successors with
        | [] ->
            incr terminal;
            ignore (check (List.rev cfg.completions))
        | succs -> List.iter (fun c -> Stack.push c stack) succs
      end
    done;
    (!explored, !terminal)
end

type explore_row = {
  xp_name : string;
  xp_seed_configs : int;
  xp_seed_s : float;
  xp_new_configs : int;
  xp_new_s : float;
}

let explore_rate configs dt =
  if dt > 0. then float_of_int configs /. dt else Float.nan

let explore_ratio r =
  let seed = explore_rate r.xp_seed_configs r.xp_seed_s in
  let fresh = explore_rate r.xp_new_configs r.xp_new_s in
  if Float.is_nan seed || Float.is_nan fresh || seed <= 0. then Float.nan
  else fresh /. seed

let explore_probe ~quick () =
  let module Explore = Countq_simnet.Explore in
  let module Gen = Countq_topology.Gen in
  let arrow_instance name g requests =
    let tree = Spanning.best_for_arrow g in
    let graph = Tree.to_graph tree in
    let protocol () =
      Countq_arrow.Protocol.one_shot_protocol ~tree ~requests ()
    in
    let check _ = Ok () in
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let xp_seed_configs, _ =
      Seed_explore.run ~graph ~protocol:(protocol ()) ~check
        ~max_configs:5_000_000 ()
    in
    let xp_seed_s = Unix.gettimeofday () -. t0 in
    (* The checker side runs UNREDUCED so the comparison isolates the
       encoding (canonical identity + digest memo) from the partial-
       order reduction; it still visits fewer configurations because
       the seed's memo keys include the fabricated per-completion round
       stamps, splitting states that differ only in timing. It is also
       fast enough (ms) that a stray major GC slice would dominate a
       single run — take the best of three, each from a clean heap. *)
    let run_checker () =
      match
        Explore.run ~graph ~protocol:(protocol ()) ~check ~reduce:false
          ~max_configs:5_000_000 ()
      with
      | Explore.Exhaustive s | Explore.Budget_exhausted s -> s
    in
    let stats = run_checker () in
    let xp_new_s =
      List.fold_left
        (fun best _ ->
          Gc.major ();
          let t0 = Unix.gettimeofday () in
          ignore (run_checker ());
          min best (Unix.gettimeofday () -. t0))
        infinity [ (); (); () ]
    in
    {
      xp_name = name;
      xp_seed_configs;
      xp_seed_s;
      xp_new_configs = stats.explored;
      xp_new_s;
    }
  in
  (* star-5 is the smallest instance where the seed's structural-memo
     cost dominates measurement noise; quick mode keeps just it. *)
  if quick then
    [ arrow_instance "arrow star-5 {1-4}" (Gen.star 5) [ 1; 2; 3; 4 ] ]
  else
    [
      arrow_instance "arrow star-5 {1-4}" (Gen.star 5) [ 1; 2; 3; 4 ];
      arrow_instance "arrow path-6 all" (Gen.path 6) [ 0; 1; 2; 3; 4; 5 ];
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro benchmarks: one Test.make per experiment (its quick
   kernel), plus the hot inner kernels each experiment leans on.       *)

open Bechamel
open Toolkit

let experiment_tests specs =
  List.map
    (fun (s : Experiments.spec) ->
      Test.make ~name:s.id (Staged.stage (fun () -> ignore (s.run ~quick:true ()))))
    specs

let kernel_tests () =
  let module Gen = Countq_topology.Gen in
  let module Rng = Countq_util.Rng in
  let mesh = Gen.square_mesh 16 in
  let mesh_tree = Spanning.best_for_arrow mesh in
  let all_256 = List.init 256 (fun i -> i) in
  let rng = Rng.create 99L in
  let half = Rng.sample rng ~k:128 ~n:256 in
  (* kernel:engine-idle-rounds — a quiescent run with a huge min_rounds
     horizon; measures the idle fast-forward (the reference engine
     spins a million rounds here). *)
  let idle_graph = Gen.path 4 in
  let idle_config = { Engine.default_config with min_rounds = 1_000_000 } in
  let idle_protocol =
    {
      Engine.name = "idle";
      initial_state = (fun _ -> ());
      on_start = (fun ~node:_ s -> (s, []));
      on_receive = (fun ~round:_ ~node:_ ~src:_ () s -> (s, []));
      on_tick = Engine.no_tick;
    }
  in
  (* kernel:sweep-list-512 — the Theta(n^2)-round, one-active-node
     regime the active sets exist for. *)
  let list_512 = Gen.path 512 in
  let list_512_tree = Spanning.best_for_arrow list_512 in
  let all_512 = List.init 512 (fun i -> i) in
  [
    Test.make ~name:"kernel:graph-mesh-16x16"
      (Staged.stage (fun () -> ignore (Gen.square_mesh 16)));
    Test.make ~name:"kernel:spanning-best-for-arrow"
      (Staged.stage (fun () -> ignore (Spanning.best_for_arrow mesh)));
    Test.make ~name:"kernel:arrow-one-shot-256"
      (Staged.stage (fun () ->
           ignore
             (Countq_arrow.Protocol.run_one_shot ~tree:mesh_tree
                ~requests:all_256 ())));
    Test.make ~name:"kernel:nn-tsp-256"
      (Staged.stage (fun () ->
           ignore
             (Countq_tsp.Nn.on_tree mesh_tree ~start:(Tree.root mesh_tree)
                ~requests:half)));
    Test.make ~name:"kernel:central-counting-mesh"
      (Staged.stage (fun () ->
           ignore (Countq_counting.Central.run ~graph:mesh ~requests:half ())));
    Test.make ~name:"kernel:counting-network-mesh"
      (Staged.stage (fun () ->
           ignore (Countq_counting.Network.run ~graph:mesh ~requests:half ())));
    Test.make ~name:"kernel:engine-idle-rounds"
      (Staged.stage (fun () ->
           ignore
             (Engine.run ~graph:idle_graph ~config:idle_config
                ~protocol:idle_protocol ())));
    Test.make ~name:"kernel:sweep-list-512"
      (Staged.stage (fun () ->
           ignore
             (Countq_counting.Sweep.run ~tree:list_512_tree ~requests:all_512 ())));
    Test.make ~name:"kernel:bitonic-push-1k"
      (Staged.stage (fun () ->
           let net = Countq_counting.Bitonic.create ~width:32 in
           let st = Countq_counting.Bitonic.State.create net in
           for t = 0 to 999 do
             ignore (Countq_counting.Bitonic.State.push st ~wire:(t land 31))
           done));
    Test.make ~name:"kernel:lower-bound-sum-4096"
      (Staged.stage (fun () -> ignore (Countq_bounds.Lower.contention_lb 4096)));
  ]

let run_micro specs =
  let tests =
    Test.make_grouped ~name:"countq" ~fmt:"%s/%s"
      (experiment_tests specs @ kernel_tests ())
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  print_endline "== Bechamel micro benchmarks (monotonic clock) ==";
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> (name, Float.nan) :: acc)
      clock []
  in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Printf.printf "%-40s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "%-40s %10.1f ns/run\n" name ns)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* BENCH_5.json: the machine-readable perf snapshot. No JSON library
   in the dependency set, so it is printed by hand — every name is a
   known identifier and every value a number, but strings are escaped
   anyway for safety. (Countq_util.Json exists now, but the hand
   printer keeps the snapshot's field order stable for diffing.)       *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6g" f

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then Float.nan
  else 100. *. float_of_int hits /. float_of_int total

let write_json ~path ~opts ~experiments ~speedup ~overhead ~tel ~dyn ~nscale
    ~loadgen ~churn ~scaling ~sharding ~funnel ~warm ~explore ~kernels =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"countq-bench/10\",\n";
  add "  \"mode\": \"%s\",\n" (if opts.quick then "quick" else "full");
  add "  \"jobs\": %d,\n" opts.jobs;
  add "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  let total_hits = List.fold_left (fun a r -> a + r.tr_hits) 0 experiments in
  let total_misses =
    List.fold_left (fun a r -> a + r.tr_misses) 0 experiments
  in
  add "  \"cache\": {\n";
  add "    \"enabled\": %b,\n" opts.use_cache;
  add "    \"dir\": \"%s\",\n" (json_escape opts.cache_dir);
  add "    \"hits\": %d,\n" total_hits;
  add "    \"misses\": %d,\n" total_misses;
  add "    \"hit_rate_pct\": %s\n"
    (json_float (hit_rate total_hits total_misses));
  add "  },\n";
  add "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"id\": \"%s\", \"wall_seconds\": %s, \"cache_hits\": %d, \
         \"cache_misses\": %d}%s\n"
        (json_escape r.tr_id) (json_float r.tr_wall) r.tr_hits r.tr_misses
        (if i = List.length experiments - 1 then "" else ","))
    experiments;
  add "  ],\n";
  let active = List.fold_left (fun a r -> a +. r.active_s) 0. speedup in
  let reference = List.fold_left (fun a r -> a +. r.reference_s) 0. speedup in
  let ceiling =
    List.fold_left
      (fun acc r -> match acc with Some a when a.sweep_n >= r.sweep_n -> acc | _ -> Some r)
      None speedup
  in
  add "  \"engine_speedup\": {\n";
  add
    "    \"probe\": \"E3 list-counting sweep (token protocol, all nodes \
     requesting) at the pre-active-set ceiling sizes\",\n";
  add "    \"protocol\": \"sweep\",\n";
  (match ceiling with
  | Some r ->
      add "    \"ceiling_n\": %d,\n" r.sweep_n;
      add "    \"speedup_at_ceiling\": %s,\n"
        (json_float
           (if r.active_s > 0. then r.reference_s /. r.active_s else Float.nan))
  | None -> ());
  add "    \"active_seconds\": %s,\n" (json_float active);
  add "    \"reference_seconds\": %s,\n" (json_float reference);
  add "    \"speedup\": %s,\n"
    (json_float (if active > 0. then reference /. active else Float.nan));
  add "    \"sizes\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"n\": %d, \"active_seconds\": %s, \"reference_seconds\": %s, \
         \"speedup\": %s}%s\n"
        r.sweep_n (json_float r.active_s) (json_float r.reference_s)
        (json_float
           (if r.active_s > 0. then r.reference_s /. r.active_s else Float.nan))
        (if i = List.length speedup - 1 then "" else ","))
    speedup;
  add "    ]\n";
  add "  },\n";
  let worst =
    List.fold_left
      (fun acc r ->
        match acc with Some a when a.mo_n >= r.mo_n -> acc | _ -> Some r)
      None overhead
  in
  add "  \"metrics_overhead\": {\n";
  add
    "    \"probe\": \"E3 list-counting sweep timed through Engine.run with \
     and without a Metrics recorder attached\",\n";
  (match worst with
  | Some r ->
      add "    \"ceiling_n\": %d,\n" r.mo_n;
      add "    \"overhead_pct_at_ceiling\": %s,\n" (json_float (overhead_pct r))
  | None -> ());
  add "    \"sizes\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"n\": %d, \"plain_seconds\": %s, \"metrics_seconds\": %s, \
         \"overhead_pct\": %s}%s\n"
        r.mo_n (json_float r.plain_s) (json_float r.metrics_s)
        (json_float (overhead_pct r))
        (if i = List.length overhead - 1 then "" else ","))
    overhead;
  add "    ]\n";
  add "  },\n";
  let tel_worst =
    List.fold_left
      (fun acc r ->
        match acc with Some a when a.tn_n >= r.tn_n -> acc | _ -> Some r)
      None tel
  in
  add "  \"telemetry_overhead\": {\n";
  add
    "    \"probe\": \"E3 list-counting sweep timed through Engine.run with \
     and without a windowed Telemetry recorder attached\",\n";
  (match tel_worst with
  | Some r ->
      add "    \"ceiling_n\": %d,\n" r.tn_n;
      add "    \"overhead_pct_at_ceiling\": %s,\n"
        (json_float (tel_overhead_pct r))
  | None -> ());
  add "    \"sizes\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"n\": %d, \"plain_seconds\": %s, \"telemetry_seconds\": %s, \
         \"overhead_pct\": %s}%s\n"
        r.tn_n (json_float r.tl_plain_s) (json_float r.tl_tel_s)
        (json_float (tel_overhead_pct r))
        (if i = List.length tel - 1 then "" else ","))
    tel;
  add "    ]\n";
  add "  },\n";
  let dyn_worst =
    List.fold_left
      (fun acc r ->
        match acc with Some a when a.dn_n >= r.dn_n -> acc | _ -> Some r)
      None dyn
  in
  add "  \"dynamic_overhead\": {\n";
  add
    "    \"probe\": \"E3 list-counting sweep timed through Engine.run bare \
     and with the identity Dynamic schedule attached (the dynamic machinery's \
     price on a static run)\",\n";
  (match dyn_worst with
  | Some r ->
      add "    \"ceiling_n\": %d,\n" r.dn_n;
      add "    \"overhead_pct_at_ceiling\": %s,\n"
        (json_float (dyn_overhead_pct r))
  | None -> ());
  add "    \"sizes\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"n\": %d, \"bare_seconds\": %s, \"dynamic_seconds\": %s, \
         \"overhead_pct\": %s}%s\n"
        r.dn_n (json_float r.bare_s) (json_float r.dyn_s)
        (json_float (dyn_overhead_pct r))
        (if i = List.length dyn - 1 then "" else ","))
    dyn;
  add "    ]\n";
  add "  },\n";
  let ns_worst =
    List.fold_left
      (fun acc r ->
        let x = ns_per_message r in
        if Float.is_nan acc then x
        else if Float.is_nan x then acc
        else max acc x)
      Float.nan nscale
  in
  add "  \"n_scaling\": {\n";
  add
    "    \"probe\": \"one-shot queuing through the event engine on implicit \
     lists and tori, every 16th node requesting, best of 3 runs; \
     near-constant ns_per_message across n means cost tracks the work, not \
     the graph\",\n";
  add "    \"max_ns_per_message\": %s,\n" (json_float ns_worst);
  add "    \"runs\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"family\": \"%s\", \"n\": %d, \"requests\": %d, \
         \"completed\": %d, \"rounds\": %d, \"messages\": %d, \"touched\": \
         %d, \"wall_seconds\": %s, \"ns_per_message\": %s}%s\n"
        (json_escape r.ns_family) r.ns_n r.ns_requests r.ns_completed
        r.ns_rounds r.ns_messages r.ns_touched (json_float r.ns_wall)
        (json_float (ns_per_message r))
        (if i = List.length nscale - 1 then "" else ","))
    nscale;
  add "    ]\n";
  add "  },\n";
  add "  \"open_loop\": {\n";
  add
    "    \"probe\": \"Poisson arrivals on the implicit list through the \
     event engine's injection calendar, one rate below counting's ~1 \
     op/round service ceiling and one above; queuing's throughput tracks \
     the offered rate, counting's pins at the ceiling\",\n";
  add "    \"runs\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"workload\": \"%s\", \"rate\": %s, \"injected\": %d, \
         \"completed\": %d, \"throughput\": %s, \"p95_delay\": %s, \
         \"saturated\": %b, \"wall_seconds\": %s}%s\n"
        (json_escape r.lg_workload) (json_float r.lg_rate) r.lg_injected
        r.lg_completed (json_float r.lg_throughput) (json_float r.lg_p95)
        r.lg_saturated (json_float r.lg_wall)
        (if i = List.length loadgen - 1 then "" else ","))
    loadgen;
  add "    ]\n";
  add "  },\n";
  add "  \"churn\": {\n";
  add
    "    \"probe\": \"dynamic queue and route-repaired arrow on the square \
     mesh, identity schedule vs seeded link flaps (rate 0.4, epoch 4, seed \
     77); wall time next to the degradation\",\n";
  add "    \"runs\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"name\": \"%s\", \"wall_seconds\": %s, \"completed\": %d, \
         \"expected\": %d, \"rounds\": %d, \"messages\": %d}%s\n"
        (json_escape r.ch_name) (json_float r.ch_wall) r.ch_completed
        r.ch_expected r.ch_rounds r.ch_messages
        (if i = List.length churn - 1 then "" else ","))
    churn;
  add "    ]\n";
  add "  },\n";
  let base_wall =
    match scaling.sc_rows with r :: _ -> r.sc_wall | [] -> Float.nan
  in
  add "  \"jobs_scaling\": {\n";
  add
    "    \"probe\": \"heavy sweep grids regenerated end-to-end at increasing \
     pool budgets, cache off; wall times as measured (speedup is relative to \
     jobs=1 on THIS machine - check cores before reading it as a parallelism \
     claim); levels redundant on a 1-core machine are skipped and listed\",\n";
  add "    \"cores\": %d,\n" scaling.sc_cores;
  add "    \"skipped_levels\": [%s],\n"
    (String.concat ", " (List.map string_of_int scaling.sc_skipped));
  add "    \"levels\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"jobs\": %d, \"wall_seconds\": %s, \"speedup_vs_jobs1\": \
         %s}%s\n"
        r.sc_jobs (json_float r.sc_wall)
        (json_float
           (if r.sc_wall > 0. then base_wall /. r.sc_wall else Float.nan))
        (if i = List.length scaling.sc_rows - 1 then "" else ","))
    scaling.sc_rows;
  add "    ]\n";
  add "  },\n";
  let shard_base =
    match sharding.sh_rows with r :: _ -> r.sh_wall | [] -> Float.nan
  in
  add "  \"shard_scaling\": {\n";
  add
    "    \"probe\": \"one E30-shape run (one-shot queuing, implicit list, \
     every 16th node requesting) partitioned across domains by \
     Countq_simnet.Shard; summaries are asserted identical at every shard \
     count, wall times as measured (on 1 core the curve is honestly \
     flat)\",\n";
  add "    \"cores\": %d,\n" sharding.sh_cores;
  add "    \"n\": %d,\n" sharding.sh_n;
  add "    \"messages\": %d,\n" sharding.sh_messages;
  add "    \"levels\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"shards\": %d, \"wall_seconds\": %s, \"speedup_vs_shards1\": \
         %s, \"identical\": %b}%s\n"
        r.sh_shards (json_float r.sh_wall)
        (json_float
           (if r.sh_wall > 0. then shard_base /. r.sh_wall else Float.nan))
        r.sh_identical
        (if i = List.length sharding.sh_rows - 1 then "" else ","))
    sharding.sh_rows;
  add "    ]\n";
  add "  },\n";
  add "  \"funnel_scaling\": {\n";
  add
    "    \"probe\": \"combining-funnel one-shot counting on implicit balanced \
     trees at the adaptive width, every 16th node requesting; a shards=2 \
     rerun is asserted identical at every size\",\n";
  add "    \"sizes\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"n\": %d, \"arity\": %d, \"requests\": %d, \"messages\": %d, \
         \"msgs_per_op\": %s, \"rounds\": %d, \"wall_seconds\": %s, \
         \"identical\": %b}%s\n"
        r.fu_n r.fu_arity r.fu_requests r.fu_messages
        (json_float (funnel_msgs_per_op r))
        r.fu_rounds (json_float r.fu_wall) r.fu_identical
        (if i = List.length funnel - 1 then "" else ","))
    funnel;
  add "    ]\n";
  add "  },\n";
  add "  \"cache_warm\": {\n";
  add
    "    \"probe\": \"grid experiments run cold then warm against a scratch \
     cache; the warm pass must hit every point and re-render bit-identical \
     tables\",\n";
  add "    \"experiments\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun id -> Printf.sprintf "\"%s\"" (json_escape id))
          warm.wp_ids));
  add "    \"cold_seconds\": %s,\n" (json_float warm.wp_cold);
  add "    \"warm_seconds\": %s,\n" (json_float warm.wp_warm);
  add "    \"warm_speedup\": %s,\n"
    (json_float
       (if warm.wp_warm > 0. then warm.wp_cold /. warm.wp_warm else Float.nan));
  add "    \"hits\": %d,\n" warm.wp_hits;
  add "    \"misses\": %d,\n" warm.wp_misses;
  add "    \"hit_rate_pct\": %s,\n"
    (json_float (hit_rate warm.wp_hits warm.wp_misses));
  add "    \"identical\": %b\n" warm.wp_identical;
  add "  },\n";
  let worst_ratio =
    List.fold_left
      (fun acc r ->
        let x = explore_ratio r in
        if Float.is_nan acc then x
        else if Float.is_nan x then acc
        else min acc x)
      Float.nan explore
  in
  add "  \"explore_checker\": {\n";
  add
    "    \"probe\": \"the seed depth-first explorer (whole-config structural \
     memo, no reduction; verbatim copy) vs the shipped canonical-digest + \
     partial-order-reduction checker, same instances, checks disabled\",\n";
  add "    \"min_rate_ratio\": %s,\n" (json_float worst_ratio);
  add "    \"instances\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"instance\": \"%s\", \"seed_configs\": %d, \"seed_seconds\": \
         %s, \"seed_configs_per_s\": %s, \"checker_configs\": %d, \
         \"checker_seconds\": %s, \"checker_configs_per_s\": %s, \
         \"rate_ratio\": %s}%s\n"
        (json_escape r.xp_name) r.xp_seed_configs (json_float r.xp_seed_s)
        (json_float (explore_rate r.xp_seed_configs r.xp_seed_s))
        r.xp_new_configs (json_float r.xp_new_s)
        (json_float (explore_rate r.xp_new_configs r.xp_new_s))
        (json_float (explore_ratio r))
        (if i = List.length explore - 1 then "" else ","))
    explore;
  add "    ]\n";
  add "  }";
  (match kernels with
  | None -> add "\n"
  | Some rows ->
      add ",\n  \"kernels\": [\n";
      List.iteri
        (fun i (name, ns) ->
          add "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (json_escape name)
            (json_float ns)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      add "  ]\n");
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[perf snapshot written to %s]\n%!" path

let main () =
  let opts = parse_args () in
  let specs = selected opts.only in
  Printf.printf
    "countq benchmark harness: reproducing %d paper claims (%s mode, %d \
     domain%s, cache %s)\n\n\
     %!"
    (List.length specs)
    (if opts.quick then "quick" else "full")
    opts.jobs
    (if opts.jobs = 1 then "" else "s")
    (if opts.use_cache then "on" else "off");
  let pool = Parallel.pool ~jobs:opts.jobs in
  let experiments = run_tables ~opts ~pool specs in
  let kernels = if opts.micro then Some (run_micro specs) else None in
  match opts.json_path with
  | None -> ()
  | Some path ->
      let speedup = speedup_probe ~quick:opts.quick () in
      let total_a = List.fold_left (fun a r -> a +. r.active_s) 0. speedup in
      let total_r = List.fold_left (fun a r -> a +. r.reference_s) 0. speedup in
      List.iter
        (fun r ->
          Printf.printf
            "[sweep speedup probe n=%4d: active %8.6fs vs reference %8.6fs \
             -> %.1fx]\n%!"
            r.sweep_n r.active_s r.reference_s
            (if r.active_s > 0. then r.reference_s /. r.active_s else Float.nan))
        speedup;
      Printf.printf
        "[sweep speedup probe aggregate: active %.6fs vs reference %.6fs -> \
         %.1fx]\n%!"
        total_a total_r
        (if total_a > 0. then total_r /. total_a else Float.nan);
      let overhead = metrics_overhead_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[metrics overhead probe n=%4d: plain %8.6fs vs metrics-on \
             %8.6fs -> %+.1f%%]\n%!"
            r.mo_n r.plain_s r.metrics_s (overhead_pct r))
        overhead;
      let tel = telemetry_overhead_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[telemetry overhead probe n=%4d: plain %8.6fs vs telemetry-on \
             %8.6fs -> %+.1f%%]\n%!"
            r.tn_n r.tl_plain_s r.tl_tel_s (tel_overhead_pct r))
        tel;
      let dyn = dynamic_overhead_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[dynamic overhead probe n=%4d: bare %8.6fs vs identity-schedule \
             %8.6fs -> %+.1f%%]\n%!"
            r.dn_n r.bare_s r.dyn_s (dyn_overhead_pct r))
        dyn;
      let nscale = nscale_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[n-scaling probe %-14s n=%7d: %8d msgs in %8.4fs -> %6.1f \
             ns/msg]\n%!"
            r.ns_family r.ns_n r.ns_messages r.ns_wall (ns_per_message r))
        nscale;
      let loadgen = loadgen_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[open-loop probe %-8s rate %4.2f: %4d/%4d done, thr %5.3f, p95 \
             %6.1f, saturated=%b, %.4fs]\n%!"
            r.lg_workload r.lg_rate r.lg_completed r.lg_injected
            r.lg_throughput r.lg_p95 r.lg_saturated r.lg_wall)
        loadgen;
      let churn = churn_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[churn probe %-36s %8.6fs, %d/%d in %d rounds, %d msgs]\n%!"
            r.ch_name r.ch_wall r.ch_completed r.ch_expected r.ch_rounds
            r.ch_messages)
        churn;
      let scaling = jobs_scaling_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf "[jobs scaling probe jobs=%d: %.2fs (on %d core%s)]\n%!"
            r.sc_jobs r.sc_wall scaling.sc_cores
            (if scaling.sc_cores = 1 then "" else "s"))
        scaling.sc_rows;
      if scaling.sc_skipped <> [] then
        Printf.printf "[jobs scaling probe: skipped jobs=%s (1 core)]\n%!"
          (String.concat "," (List.map string_of_int scaling.sc_skipped));
      let sharding = shard_scaling_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[shard scaling probe shards=%d: %.2fs, identical=%b (on %d \
             core%s)]\n%!"
            r.sh_shards r.sh_wall r.sh_identical sharding.sh_cores
            (if sharding.sh_cores = 1 then "" else "s"))
        sharding.sh_rows;
      if List.exists (fun r -> not r.sh_identical) sharding.sh_rows then begin
        prerr_endline
          "shard scaling probe: a sharded summary differs from the \
           sequential one - the deterministic merge is broken";
        exit 1
      end;
      let funnel = funnel_scaling_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[funnel scaling probe n=%7d arity=%2d: %8d msgs (%.1f/op), %4d \
             rounds, %.4fs, identical=%b]\n%!"
            r.fu_n r.fu_arity r.fu_messages (funnel_msgs_per_op r) r.fu_rounds
            r.fu_wall r.fu_identical)
        funnel;
      if List.exists (fun r -> not r.fu_identical) funnel then begin
        prerr_endline
          "funnel scaling probe: a sharded summary differs from the \
           sequential one - the deterministic merge is broken";
        exit 1
      end;
      let warm = cache_warm_probe ~quick:opts.quick ~pool () in
      Printf.printf
        "[cache warm probe: cold %.2fs -> warm %.2fs, %d hit(s) %d miss(es), \
         identical=%b]\n%!"
        warm.wp_cold warm.wp_warm warm.wp_hits warm.wp_misses warm.wp_identical;
      if not warm.wp_identical then begin
        prerr_endline
          "cache warm probe: warm tables differ from cold tables - cached \
           results are wrong";
        exit 1
      end;
      let explore = explore_probe ~quick:opts.quick () in
      List.iter
        (fun r ->
          Printf.printf
            "[explore probe %s: seed %d cfgs %.3fs (%.0f/s) vs checker %d \
             cfgs %.3fs (%.0f/s) -> %.0fx]\n%!"
            r.xp_name r.xp_seed_configs r.xp_seed_s
            (explore_rate r.xp_seed_configs r.xp_seed_s)
            r.xp_new_configs r.xp_new_s
            (explore_rate r.xp_new_configs r.xp_new_s)
            (explore_ratio r))
        explore;
      write_json ~path ~opts ~experiments ~speedup ~overhead ~tel ~dyn ~nscale
        ~loadgen ~churn ~scaling ~sharding ~funnel ~warm ~explore ~kernels

let () =
  try main ()
  with Sweep.Cache_mismatch _ as e ->
    Printf.eprintf "%s\n" (Printexc.to_string e);
    exit 1
