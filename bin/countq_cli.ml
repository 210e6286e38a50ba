(* countq: command-line driver for the reproduction.

   Subcommands:
     list                     -- list the experiments
     experiments [IDS…] [--quick] [--jobs N] [--no-cache] [--csv DIR]
                              -- run experiments on the domain pool with
                                 the content-addressed result cache
     cache stats|clear        -- inspect or empty the result cache
     compare -t T -n N [-r PATTERN] [--seed S]
     topo -t T -n N
     trace -t T -n N          -- ASCII timeline of one arrow run
     series -t T --sizes N,…  -- CSV sweep of queuing vs counting
     verify -t T -n N         -- exhaustive schedule check (tiny n)
     check [--quick] [--jobs N] [--max-configs M]
                              -- model-check all six protocols on fixed
                                 instances; nonzero exit on violation
     report [-o FILE] [-j N]  -- regenerate the full markdown report
     faults -t T -n N -p PLAN -- degradation under an injected fault plan
     churn -t T -n N -a ADV   -- degradation under a dynamic-topology
                                 schedule (link flaps, node churn,
                                 T-interval connectivity, …)
     observe -t T -n N --protocol P [--protocol P…]
                              -- metrics + spans: heatmap, delay
                                 percentiles, optional JSONL export
     load -t SPEC --rates R,… -- open-loop traffic on the event-driven
                                 engine over an implicit topology:
                                 latency vs offered load, counting vs
                                 queuing
*)

open Cmdliner

module Gen = Countq_topology.Gen
module Graph = Countq_topology.Graph
module Bfs = Countq_topology.Bfs
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Rng = Countq_util.Rng
module Experiments = Countq.Experiments
module Table = Countq.Table
module Run = Countq.Run
module Sweep = Countq.Sweep
module Cache = Countq.Cache
module Parallel = Countq_util.Parallel

(* ---- shared arguments (parsed by Countq.Scenario) ---- *)

let build_topology name n =
  match Countq.Scenario.topology (Printf.sprintf "%s:%d" name n) with
  | Ok (_, g) -> Ok g
  | Error (`Msg m) -> Error m

let topology_arg =
  let doc =
    Printf.sprintf "Topology family: one of %s."
      (String.concat ", " Countq.Scenario.known_topologies)
  in
  Arg.(value & opt string "mesh" & info [ "topology"; "t" ] ~docv:"NAME" ~doc)

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of processors (rounded to the family's nearest realisable size).")

let requests_arg =
  Arg.(
    value
    & opt string "all"
    & info [ "requests"; "r" ] ~docv:"PATTERN"
        ~doc:"Request pattern: all | half | k:K | density:D | nodes:v,v,…")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink the parameter sweeps.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Every subcommand that fans out over domains shares this argument and
   validation: absent means the machine's recommended count, and any
   explicit value must be >= 1. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Evaluate on N domains (default: the machine's recommended \
           count). Results are bit-identical for every N.")

let resolve_jobs = function
  | None -> Parallel.recommended_jobs ()
  | Some j when j >= 1 -> j
  | Some _ ->
      prerr_endline "--jobs must be >= 1";
      exit 2

(* Where --jobs fans independent runs out over domains, --shards splits
   ONE run across domains (Countq_simnet.Shard). Absent or 1 means the
   sequential engines; any explicit value must be >= 1. *)
let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition each engine run across K domains with a deterministic \
           round-barrier merge (default 1: the sequential engine). Results \
           are bit-identical for every K; this is purely a wall-clock lever \
           on multicore machines.")

let resolve_shards = function
  | None -> 1
  | Some k when k >= 1 -> k
  | Some _ ->
      prerr_endline "--shards must be >= 1";
      exit 2

let default_cache_dir = Filename.concat (Filename.concat "bench" "out") "cache"

(* Surface a Round_limit_exceeded payload: where the pending traffic
   sits, not just that the limit blew. *)
let report_round_limit ~limit ~outstanding ~queued ~held ~busiest =
  Printf.eprintf
    "round limit %d exceeded: %d message(s) in sender outboxes, %d queued on \
     links, %d held by fault delays\n"
    limit outstanding queued held;
  if busiest <> [] then begin
    Printf.eprintf "busiest nodes (queued + outbox + fault-delayed):\n";
    List.iter
      (fun (v, load) -> Printf.eprintf "  node %d: load %d\n" v load)
      busiest
  end

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Experiments.spec) ->
        Printf.printf "%-4s %-45s (%s)\n" s.id s.title s.paper_ref)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper-reproduction experiments.")
    Term.(const run $ const ())

(* ---- experiments: the pooled, cached runner ---- *)

(* --csv DIR: create DIR and its parents before any experiment runs, so
   an unusable directory is a usage error (exit 2) before any table is
   computed. *)
let prepare_csv_dir dir =
  let fail msg =
    Printf.eprintf "--csv: %s\n" msg;
    exit 2
  in
  (try Cache.mkdir_p dir with Sys_error m -> fail m);
  if not (Sys.is_directory dir) then fail (dir ^ ": Not a directory");
  try Unix.access dir [ Unix.W_OK ]
  with Unix.Unix_error (e, _, _) -> fail (dir ^ ": " ^ Unix.error_message e)

let experiments_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"IDS"
          ~doc:"Experiment ids to run (default: every experiment).")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Recompute every point; neither read nor write the cache.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string default_cache_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result-cache directory.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as DIR/<id>.csv.")
  in
  let run ids quick jobs shards no_cache cache_dir csv_dir seed =
    let jobs = resolve_jobs jobs in
    let shards = resolve_shards shards in
    let specs =
      match ids with
      | [] -> Experiments.all
      | ids ->
          List.map
            (fun id ->
              match Experiments.find id with
              | Some s -> s
              | None ->
                  Printf.eprintf "unknown experiment %S; try 'countq list'\n"
                    id;
                  exit 2)
            ids
    in
    let cache = if no_cache then None else Some (Cache.create ~dir:cache_dir) in
    (* The spot check re-verifies one cached point per experiment; the
       wall clock varies which one across invocations. *)
    let spot_seed =
      Int64.logxor
        (Int64.of_int seed)
        (Int64.of_float (Unix.gettimeofday () *. 1e6))
    in
    let ctx =
      Sweep.ctx ~pool:(Parallel.pool ~jobs) ?cache
        ~spot_check:(not no_cache) ~spot_seed ~shards ()
    in
    Option.iter prepare_csv_dir csv_dir;
    let counters () =
      match cache with None -> (0, 0) | Some c -> (Cache.hits c, Cache.misses c)
    in
    List.iter
      (fun (s : Experiments.spec) ->
        let h0, m0 = counters () in
        let t0 = Unix.gettimeofday () in
        let table =
          try s.run ~quick ~ctx ()
          with Sweep.Cache_mismatch _ as e ->
            Printf.eprintf "%s\n" (Printexc.to_string e);
            exit 1
        in
        let dt = Unix.gettimeofday () -. t0 in
        let h1, m1 = counters () in
        Table.print table;
        if cache <> None then
          Printf.printf "[%s] %.2fs, cache: %d hit(s), %d miss(es)\n\n" s.id dt
            (h1 - h0) (m1 - m0)
        else Printf.printf "[%s] %.2fs\n\n" s.id dt;
        Option.iter
          (fun dir ->
            let path = Filename.concat dir (s.id ^ ".csv") in
            let oc = open_out path in
            output_string oc (Table.to_csv table);
            close_out oc)
          csv_dir)
      specs;
    match cache with
    | None -> ()
    | Some c ->
        let h, m = (Cache.hits c, Cache.misses c) in
        Printf.printf "cache: %d hit(s), %d miss(es), hit rate %.0f%% (%s)\n" h
          m
          (100. *. float_of_int h /. float_of_int (max 1 (h + m)))
          cache_dir
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Run experiments with their sweep grids evaluated on a shared \
          domain pool, reusing cached point results (bit-identical across \
          any --jobs value; one cached point per experiment is spot-checked \
          against a fresh recompute).")
    Term.(
      const run $ ids_arg $ quick_arg $ jobs_arg $ shards_arg $ no_cache_arg
      $ cache_dir_arg $ csv_arg $ seed_arg)

(* ---- cache ---- *)

let cache_cmd =
  let action_arg =
    Arg.(
      value
      & pos 0 (enum [ ("stats", `Stats); ("clear", `Clear) ]) `Stats
      & info [] ~docv:"ACTION" ~doc:"One of stats, clear.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string default_cache_dir
      & info [ "dir" ] ~docv:"DIR" ~doc:"Result-cache directory.")
  in
  let run action dir =
    match action with
    | `Stats ->
        let s = Cache.summarize ~dir in
        Printf.printf "cache %s: %d entr%s, %d bytes\n" dir s.entries
          (if s.entries = 1 then "y" else "ies")
          s.bytes;
        List.iter
          (fun (ns, n) -> Printf.printf "  %-6s %d entr%s\n" ns n
             (if n = 1 then "y" else "ies"))
          s.namespaces
    | `Clear ->
        let removed = Cache.clear ~dir in
        Printf.printf "cleared %s: removed %d file(s)\n" dir removed
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect (stats) or empty (clear) the content-addressed experiment \
          result cache. Stale entries from older engine configurations are \
          never served - clearing just reclaims the disk.")
    Term.(const run $ action_arg $ dir_arg)

(* ---- compare ---- *)

let compare_cmd =
  let run topology n req_spec seed =
    match build_topology topology n with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok graph -> (
        let n = Graph.n graph in
        match
          Countq.Scenario.requests ~seed:(Int64.of_int seed) ~n req_spec
        with
        | Error (`Msg m) ->
            prerr_endline m;
            exit 2
        | Ok requests ->
            let k = List.length requests in
            let rows =
              List.map
                (fun (s : Run.summary) ->
                  [
                    s.protocol;
                    Table.cell_int s.total_delay;
                    Table.cell_int s.normalized_delay;
                    Table.cell_int s.max_delay;
                    Table.cell_int s.rounds;
                    Table.cell_int s.messages;
                    Table.cell_int s.expansion;
                    Table.cell_bool s.valid;
                  ])
                (List.map
                   (fun protocol -> Run.queuing ~graph ~protocol ~requests ())
                   [ `Arrow; `Arrow_notify; `Central; `Token_ring ]
                @ List.map
                    (fun protocol -> Run.counting ~graph ~protocol ~requests ())
                    [ `Central; `Combining; `Network; `Sweep ])
            in
            Table.print
              (Table.make ~id:"compare"
                 ~title:
                   (Printf.sprintf "all protocols on %s (n=%d, k=%d)" topology
                      n k)
                 ~paper_ref:"ad-hoc comparison"
                 ~headers:
                   [ "protocol"; "total"; "normalised"; "max"; "rounds"; "messages"; "expansion"; "valid" ]
                 rows))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every protocol on one instance and tabulate.")
    Term.(const run $ topology_arg $ n_arg $ requests_arg $ seed_arg)

(* ---- topo ---- *)

let topo_cmd =
  let run topology n =
    match build_topology topology n with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok g ->
        let tree = Spanning.best_for_arrow g in
        Printf.printf "topology    %s\n" topology;
        Printf.printf "n           %d\n" (Graph.n g);
        Printf.printf "m           %d\n" (Graph.m g);
        Printf.printf "max degree  %d\n" (Graph.max_degree g);
        Printf.printf "diameter    %d\n" (Bfs.diameter g);
        Printf.printf "arrow tree  degree %d, height %d\n"
          (Tree.max_degree tree) (Tree.height tree);
        Printf.printf "counting lower bound (Thm 3.5)  %d\n"
          (Countq_bounds.Lower.contention_lb (Graph.n g));
        Printf.printf "counting lower bound (Thm 3.6)  %d\n"
          (Countq_bounds.Lower.diameter_lb ~diameter:(Bfs.diameter g))
  in
  Cmd.v (Cmd.info "topo" ~doc:"Describe a topology and its bounds.")
    Term.(const run $ topology_arg $ n_arg)

(* ---- verify ---- *)

let verify_cmd =
  let run topology n req_spec seed =
    let n = min n 6 in
    match build_topology topology n with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok g -> (
        let nv = Graph.n g in
        if nv > 8 then begin
          prerr_endline
            "verify: instance too large for exhaustive exploration (max 8 nodes)";
          exit 2
        end;
        match
          Countq.Scenario.requests ~seed:(Int64.of_int seed) ~n:nv req_spec
        with
        | Error (`Msg m) ->
            prerr_endline m;
            exit 2
        | Ok requests -> (
            let tree = Spanning.best_for_arrow g in
            match
              Countq_simnet.Oneshot.explore
                (Countq_arrow.Protocol.one_shot ~tree ~requests ())
            with
            | Countq_simnet.Explore.Exhaustive stats ->
                Printf.printf
                  "arrow on %s (n=%d), requests {%s}:\n\
                   ALL SCHEDULES SAFE - %d configurations explored, %d quiescent\n\
                   outcomes checked, every one a single valid total order.\n"
                  topology nv
                  (String.concat "," (List.map string_of_int requests))
                  stats.explored stats.terminal
            | Countq_simnet.Explore.Budget_exhausted stats ->
                Printf.printf
                  "arrow on %s (n=%d), requests {%s}:\n\
                   BUDGET EXHAUSTED after %d configurations (%d quiescent \
                   checked, no violation in the explored prefix) - partial.\n"
                  topology nv
                  (String.concat "," (List.map string_of_int requests))
                  stats.explored stats.terminal
            | exception Countq_simnet.Explore.Violation m ->
                Printf.printf "VIOLATION FOUND: %s\n" m;
                exit 1))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively model-check arrow safety on a tiny instance (every schedule; n is capped).")
    Term.(const run $ topology_arg $ n_arg $ requests_arg $ seed_arg)

(* ---- check ---- *)

(* Model-check every shipped protocol on fixed instances: arrow /
   central queue / token ring against the total-order spec, central
   counter / combining tree / sweep against the count-set spec. The
   instance list is the deliverable: 6-7 node instances inside the
   default budget, which the seed explorer could not reach. *)

let check_cmd =
  let module Explore = Countq_simnet.Explore in
  let module Oneshot = Countq_simnet.Oneshot in
  let budget =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some m when m >= 1 -> Ok m
          | _ -> Error (Printf.sprintf "%S is not a budget >= 1" s)),
        Format.pp_print_int )
  in
  let max_configs_arg =
    Arg.(
      value
      & opt budget 1_000_000
      & info [ "max-configs" ] ~docv:"M"
          ~doc:"Configuration budget per instance, at least 1 (budget \
                exhaustion is a reported partial verdict, not a failure).")
  in
  let run quick jobs max_configs =
    let jobs = resolve_jobs jobs in
    let pool = if jobs > 1 then Some (Parallel.pool ~jobs) else None in
    let violations = ref 0 in
    let instance protocol_name instance_name inst =
      let t0 = Unix.gettimeofday () in
      let verdict, stats =
        match Oneshot.explore ~max_configs ?pool inst with
        | Explore.Exhaustive stats -> ("all schedules safe", stats)
        | Explore.Budget_exhausted stats -> ("budget exhausted (partial)", stats)
        | exception Explore.Violation m ->
            incr violations;
            ( "VIOLATION: " ^ m,
              { Explore.explored = 0; terminal = 0; max_frontier = 0;
                dedup_hits = 0 } )
      in
      let dt = Unix.gettimeofday () -. t0 in
      let candidates = stats.explored + stats.dedup_hits in
      let dedup_pct =
        if candidates = 0 then 0.0
        else 100.0 *. float_of_int stats.dedup_hits /. float_of_int candidates
      in
      let rate =
        if dt <= 0.0 then 0.0 else float_of_int stats.explored /. dt
      in
      [
        protocol_name;
        instance_name;
        Table.cell_int inst.Oneshot.spec.expected;
        Table.cell_int stats.explored;
        Table.cell_int stats.terminal;
        Table.cell_float ~decimals:1 dedup_pct;
        Printf.sprintf "%.0f" rate;
        verdict;
      ]
    in
    let bfs g = Spanning.bfs g ~root:0 in
    let arrow name g requests =
      instance "arrow" name
        (Countq_arrow.Protocol.one_shot ~tree:(Spanning.best_for_arrow g)
           ~requests ())
    in
    let central name graph requests =
      instance "central-count" name
        (Countq_counting.Central.one_shot ~graph ~requests ())
    in
    let central_queue name graph requests =
      instance "central-queue" name
        (Countq_queuing.Central_queue.one_shot ~graph ~requests ())
    in
    let combining name g requests =
      instance "combining" name
        (Countq_counting.Combining.one_shot ~tree:(bfs g) ~requests ())
    in
    let diffracting name g requests =
      instance "diffracting" name
        (Countq_counting.Diffracting.one_shot ~tree:(bfs g) ~requests ())
    in
    let funnel name g requests =
      instance "funnel" name
        (Countq_counting.Funnel.one_shot ~tree:(bfs g) ~requests ())
    in
    let token_ring name g requests =
      instance "token-ring" name
        (Countq_queuing.Token_ring.one_shot ~tree:(bfs g) ~requests ())
    in
    let sweep name g requests =
      instance "sweep" name
        (Countq_counting.Sweep.one_shot ~tree:(bfs g) ~requests ())
    in
    let dynamic_queue name graph requests =
      instance "dynamic-queue" name
        (Countq_queuing.Dynamic_queue.one_shot ~graph ~requests ())
    in
    let t0 = Unix.gettimeofday () in
    let rows =
      if quick then
        [
          arrow "star-4" (Gen.star 4) [ 1; 2; 3 ];
          central "star-4" (Gen.star 4) [ 1; 2; 3 ];
          central_queue "star-4" (Gen.star 4) [ 1; 2; 3 ];
          combining "path-4" (Gen.path 4) [ 0; 1; 2; 3 ];
          diffracting "path-4" (Gen.path 4) [ 0; 1; 2; 3 ];
          funnel "star-4" (Gen.star 4) [ 0; 1; 2; 3 ];
          token_ring "path-4" (Gen.path 4) [ 0; 2; 3 ];
          sweep "star-4" (Gen.star 4) [ 0; 1; 2; 3 ];
          dynamic_queue "star-4" (Gen.star 4) [ 1; 2; 3 ];
        ]
      else
        [
          arrow "star-6" (Gen.star 6) [ 1; 2; 3; 4; 5 ];
          arrow "path-7" (Gen.path 7) [ 0; 1; 2; 3; 4; 5; 6 ];
          arrow "complete-6" (Gen.complete 6) [ 0; 1; 2; 3; 4; 5 ];
          central "star-6" (Gen.star 6) [ 1; 2; 3; 4; 5 ];
          central "complete-6" (Gen.complete 6) [ 0; 1; 2; 3; 4; 5 ];
          central_queue "star-6" (Gen.star 6) [ 1; 2; 3; 4; 5 ];
          combining "star-6" (Gen.star 6) [ 0; 1; 2; 3; 4; 5 ];
          diffracting "star-6" (Gen.star 6) [ 0; 1; 2; 3; 4; 5 ];
          funnel "star-6" (Gen.star 6) [ 0; 1; 2; 3; 4; 5 ];
          funnel "path-5" (Gen.path 5) [ 0; 2; 4 ];
          token_ring "path-7" (Gen.path 7) [ 0; 2; 4; 6 ];
          sweep "star-7" (Gen.star 7) [ 0; 1; 2; 3; 4; 5; 6 ];
          dynamic_queue "star-4" (Gen.star 4) [ 1; 2; 3 ];
          dynamic_queue "complete-3" (Gen.complete 3) [ 0; 1; 2 ];
        ]
    in
    let dt = Unix.gettimeofday () -. t0 in
    Table.print
      (Table.make ~id:"CHECK"
         ~title:"exhaustive model check, every shipped protocol"
         ~paper_ref:"Section 2.2 safety specifications under every schedule"
         ~headers:
           [ "protocol"; "instance"; "k"; "explored"; "terminal"; "dedup %";
             "configs/s"; "verdict" ]
         ~notes:
           [ Printf.sprintf
               "budget %d configs/instance; jobs %d; wall time %.2fs"
               max_configs jobs dt ]
         rows);
    if !violations > 0 then begin
      Printf.eprintf "check: %d violation(s) found\n" !violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check all nine protocols exhaustively on fixed 3-7 node \
          instances; exits nonzero on any safety violation.")
    Term.(const run $ quick_arg $ jobs_arg $ max_configs_arg)

(* ---- report ---- *)

let report_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "report.md"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output markdown file.")
  in
  let run quick out jobs shards =
    let jobs = resolve_jobs jobs in
    let shards = resolve_shards shards in
    (* One shared pool: the experiment-level fan-out and the sweep
       grids inside the ctx-aware experiments draw on the same budget. *)
    let pool = Parallel.pool ~jobs in
    let ctx = Sweep.ctx ~pool ~shards () in
    let tables =
      Parallel.pool_map pool ~chunk:1
        (fun (s : Experiments.spec) -> s.run ~quick ~ctx ())
        Experiments.all
    in
    let oc = open_out out in
    output_string oc "# countq — measured results\n\n";
    output_string oc
      "Regenerated from the committed seeds by `countq report`. E1–E13\n\
       reproduce the paper's claims; E14+ are ablations and extensions.\n\
       See EXPERIMENTS.md for the reading guide.\n\n";
    List.iter
      (fun table ->
        output_string oc (Table.to_markdown table);
        output_string oc "\n")
      tables;
    close_out oc;
    Printf.printf "wrote %s (%d experiments)\n" out (List.length tables)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate every experiment and write one markdown report.")
    Term.(const run $ quick_arg $ out_arg $ jobs_arg $ shards_arg)

(* ---- series ---- *)

let series_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 16; 32; 64; 128; 256 ]
      & info [ "sizes" ] ~docv:"N1,N2,…" ~doc:"Comma-separated processor counts.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write CSV here instead of stdout.")
  in
  let run topology sizes out =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      "topology,n,arrow_total,arrow_normalized,best_counting,counting_normalized,ratio\n";
    List.iter
      (fun n ->
        match build_topology topology n with
        | Error e ->
            prerr_endline e;
            exit 2
        | Ok g ->
            let n = Graph.n g in
            let requests = List.init n (fun i -> i) in
            let q = Run.queuing ~graph:g ~protocol:`Arrow ~requests () in
            let c = Run.best_counting ~graph:g ~requests () in
            Buffer.add_string buf
              (Printf.sprintf "%s,%d,%d,%d,%s,%d,%.3f\n" topology n
                 q.total_delay q.normalized_delay c.protocol c.normalized_delay
                 (float_of_int c.normalized_delay
                 /. float_of_int (max 1 q.normalized_delay))))
      sizes;
    match out with
    | None -> print_string (Buffer.contents buf)
    | Some path ->
        let oc = open_out path in
        Buffer.output_buffer oc buf;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "series"
       ~doc:
         "Sweep n for one topology and emit a CSV series of queuing vs counting totals (for plotting).")
    Term.(const run $ topology_arg $ sizes_arg $ out_arg)

(* ---- faults ---- *)

let faults_cmd =
  let plan_arg =
    Arg.(
      value
      & opt string "drop-first"
      & info [ "plan"; "p" ] ~docv:"NAME"
          ~doc:"Named fault plan (see --list-plans).")
  in
  let list_plans_arg =
    Arg.(value & flag & info [ "list-plans" ] ~doc:"List the named fault plans and exit.")
  in
  let monitors_arg =
    Arg.(
      value & flag
      & info [ "monitors" ] ~doc:"Also print every run's monitor verdicts.")
  in
  let run topology n req_spec seed plan_name list_plans show_monitors jobs =
    if list_plans then
      List.iter
        (fun (name, plan) ->
          let crashes = Countq_simnet.Faults.crashes plan in
          Printf.printf "%-14s %s\n" name
            (if crashes = [] then "link faults only"
             else Printf.sprintf "%d crash(es)" (List.length crashes)))
        Countq_simnet.Faults.named
    else
      match Countq_simnet.Faults.find plan_name with
      | None ->
          Printf.eprintf "unknown fault plan %S; try --list-plans\n" plan_name;
          exit 2
      | Some plan -> (
          match build_topology topology n with
          | Error e ->
              prerr_endline e;
              exit 2
          | Ok graph -> (
              let n = Graph.n graph in
              match
                Countq.Scenario.requests ~seed:(Int64.of_int seed) ~n req_spec
              with
              | Error (`Msg m) ->
                  prerr_endline m;
                  exit 2
              | Ok requests ->
                  let k = List.length requests in
                  let pool = Parallel.pool ~jobs:(resolve_jobs jobs) in
                  let combos =
                    List.concat_map
                      (fun protocol ->
                        List.map (fun retry -> (protocol, retry))
                          [ false; true ])
                      [ `Arrow; `Central_queue; `Central_count ]
                  in
                  let summaries =
                    try
                      Parallel.pool_map pool ~chunk:1
                        (fun (protocol, retry) ->
                          Run.run_faulty ~pool ~retry ~graph ~protocol ~plan
                            ~requests ())
                        combos
                    with
                    | Countq_simnet.Engine.Round_limit_exceeded
                        { limit; outstanding; queued; held; busiest } ->
                        report_round_limit ~limit ~outstanding ~queued ~held
                          ~busiest;
                        exit 1
                  in
                  let rows =
                    List.map
                      (fun (s : Run.fault_summary) ->
                        [
                          s.protocol;
                          (if s.retry then "on" else "off");
                          Printf.sprintf "%d/%d" s.completed s.expected;
                          Table.cell_bool s.valid;
                          Table.cell_int s.rounds;
                          Table.cell_int s.extra_rounds;
                          Table.cell_int s.messages;
                          Table.cell_int s.extra_messages;
                          Table.cell_int s.injected.dropped;
                          Table.cell_int
                            (s.injected.duplicated + s.injected.delayed);
                          Table.cell_bool s.safe;
                          Table.cell_bool s.live;
                        ])
                      summaries
                  in
                  Table.print
                    (Table.make ~id:"faults"
                       ~title:
                         (Printf.sprintf
                            "degradation under plan %S on %s (n=%d, k=%d)"
                            plan_name topology n k)
                       ~paper_ref:"robustness extension (beyond the paper's reliable model)"
                       ~headers:
                         [ "protocol"; "retry"; "done"; "valid"; "rounds";
                           "+rounds"; "msgs"; "+msgs"; "drops"; "dup+delay";
                           "safe"; "live" ]
                       ~notes:
                         [
                           "+rounds/+msgs compare against the fault-free \
                            baseline on the same instance.";
                           "'safe' = no runtime safety monitor fired; 'live' \
                            = completed and never stalled.";
                         ]
                       rows);
                  if show_monitors then
                    List.iter
                      (fun (s : Run.fault_summary) ->
                        Format.printf "@.%s (retry %s):@.%a@." s.protocol
                          (if s.retry then "on" else "off")
                          Countq_simnet.Monitor.pp_report s.monitors)
                      summaries))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run the retrofitted protocols under a named fault plan, with and without the retransmit layer, and tabulate the degradation.")
    Term.(
      const run $ topology_arg $ n_arg $ requests_arg $ seed_arg $ plan_arg
      $ list_plans_arg $ monitors_arg $ jobs_arg)

(* ---- churn ---- *)

let churn_cmd =
  let module Dynamic = Countq_simnet.Dynamic in
  let adversary_arg =
    Arg.(
      value
      & opt string "flaps"
      & info [ "adversary"; "a" ] ~docv:"NAME"
          ~doc:
            "Topology adversary: flaps | churn | t-interval | rewire | \
             partition | tree-attack | identity.")
  in
  let rate_arg =
    Arg.(
      value
      & opt float 0.3
      & info [ "rate" ] ~docv:"P"
          ~doc:"Per-epoch down probability (flaps and churn only).")
  in
  let interval_arg =
    Arg.(
      value
      & opt int 4
      & info [ "interval"; "i" ] ~docv:"T"
          ~doc:
            "Window length in rounds: the epoch for flaps, churn and \
             tree-attack, the connectivity interval for t-interval, the \
             rewiring period for rewire, and the cut round for partition.")
  in
  let monitors_arg =
    Arg.(
      value & flag
      & info [ "monitors" ] ~doc:"Also print every run's monitor verdicts.")
  in
  let run topology n req_spec seed adversary rate interval quick show_monitors
      jobs =
    let n = if quick then min n 9 else n in
    match build_topology topology n with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok graph -> (
        let n = Graph.n graph in
        let tree = Spanning.best_for_arrow graph in
        let sched =
          let seed = Int64.of_int seed in
          match adversary with
          | "identity" -> Ok (Dynamic.identity graph)
          | "flaps" ->
              Ok (Dynamic.link_flaps ~seed ~rate ~epoch:interval graph)
          | "churn" ->
              Ok (Dynamic.node_churn ~seed ~rate ~epoch:interval graph)
          | "t-interval" -> Ok (Dynamic.t_interval ~seed ~t:interval graph)
          | "rewire" ->
              Ok (Dynamic.periodic_rewire ~seed ~period:interval graph)
          | "partition" ->
              Ok (Dynamic.partition ~at:interval ~island:[ n - 1 ] graph)
          | "tree-attack" ->
              Ok
                (Dynamic.tree_attack ~period:interval
                   ~tree:(Tree.to_graph tree) graph)
          | other ->
              Error
                (Printf.sprintf
                   "unknown adversary %S; try flaps, churn, t-interval, \
                    rewire, partition, tree-attack or identity"
                   other)
        in
        match sched with
        | Error e ->
            prerr_endline e;
            exit 2
        | Ok sched -> (
            match
              Countq.Scenario.requests ~seed:(Int64.of_int seed) ~n req_spec
            with
            | Error (`Msg m) ->
                prerr_endline m;
                exit 2
            | Ok requests ->
                let k = List.length requests in
                let pool = Parallel.pool ~jobs:(resolve_jobs jobs) in
                let protocols =
                  [ `Arrow_static; `Arrow_routed; `Dynamic_queue;
                    `Central_count ]
                in
                let summaries =
                  try
                    Parallel.pool_map pool ~chunk:1
                      (fun protocol ->
                        Run.run_churn ~pool ~tree ~graph ~protocol ~sched
                          ~requests ())
                      protocols
                  with
                  | Countq_simnet.Engine.Round_limit_exceeded
                      { limit; outstanding; queued; held; busiest } ->
                      report_round_limit ~limit ~outstanding ~queued ~held
                        ~busiest;
                      exit 1
                in
                let rows =
                  List.map
                    (fun (s : Run.churn_summary) ->
                      [
                        s.c_protocol;
                        Printf.sprintf "%d/%d" s.c_completed s.c_expected;
                        Table.cell_bool s.c_valid;
                        Table.cell_int s.c_rounds;
                        Table.cell_int s.c_extra_rounds;
                        Table.cell_int s.c_messages;
                        Table.cell_int s.c_extra_messages;
                        Table.cell_int s.topo.link_drops;
                        Table.cell_int s.topo.node_drops;
                        Table.cell_bool s.c_safe;
                        Table.cell_bool s.c_live;
                      ])
                    summaries
                in
                Table.print
                  (Table.make ~id:"churn"
                     ~title:
                       (Printf.sprintf
                          "degradation under schedule %s on %s (n=%d, k=%d)"
                          (Dynamic.label sched) topology n k)
                     ~paper_ref:
                       "dynamic-network extension (Sharma-Busch; \
                        Kuhn-Lynch-Oshman)"
                     ~headers:
                       [ "protocol"; "done"; "valid"; "rounds"; "+rounds";
                         "msgs"; "+msgs"; "link-drops"; "node-drops"; "safe";
                         "live" ]
                     ~notes:
                       [
                         "+rounds/+msgs compare against the identity-schedule \
                          baseline on the same instance.";
                         "arrow-static keeps the paper's protocol on its \
                          fixed spanning tree; arrow+route repairs routes \
                          around cuts; the dynamic queue needs no fixed \
                          structure.";
                       ]
                     rows);
                if show_monitors then
                  List.iter
                    (fun (s : Run.churn_summary) ->
                      Format.printf "@.%s:@.%a@." s.c_protocol
                        Countq_simnet.Monitor.pp_report s.c_monitors)
                    summaries))
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run the queuing and counting portfolio under an adversarial \
          dynamic-topology schedule and tabulate the degradation against \
          the static baseline.")
    Term.(
      const run $ topology_arg $ n_arg $ requests_arg $ seed_arg
      $ adversary_arg $ rate_arg $ interval_arg $ quick_arg $ monitors_arg
      $ jobs_arg)

(* ---- observe ---- *)

let observe_cmd =
  let protocol_arg =
    let protocols =
      [
        ("arrow", `Arrow);
        ("arrow+notify", `Arrow_notify);
        ("central-queue", `Central_queue);
        ("central-count", `Central_count);
        ("sweep", `Sweep);
      ]
    in
    Arg.(
      value
      & opt_all (enum protocols) []
      & info [ "protocol"; "P" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Protocol to observe: one of %s. Repeatable - several \
                protocols run on the same instance (in parallel under \
                --jobs) and print one section each. Default: arrow."
               (String.concat ", " (List.map fst protocols))))
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan"; "p" ] ~docv:"NAME"
          ~doc:"Also inject a named fault plan (see 'countq faults --list-plans').")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the run as JSONL: one meta line, one span object per \
             operation, then per-node and per-edge counters.")
  in
  let spans_arg =
    Arg.(
      value & opt int 10
      & info [ "spans" ] ~docv:"K"
          ~doc:"Print the K slowest operation spans (0 = none).")
  in
  let run topology n req_spec seed quick protocols plan_name json_path k_spans
      jobs =
    let n = if quick then min n 32 else n in
    let protocols = if protocols = [] then [ `Arrow ] else protocols in
    let plan =
      match plan_name with
      | None -> Ok None
      | Some name -> (
          match Countq_simnet.Faults.find name with
          | Some p -> Ok (Some p)
          | None -> Error (Printf.sprintf "unknown fault plan %S; try 'countq faults --list-plans'" name))
    in
    match (build_topology topology n, plan) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 2
    | Ok graph, Ok plan -> (
        let n = Graph.n graph in
        match
          Countq.Scenario.requests ~seed:(Int64.of_int seed) ~n req_spec
        with
        | Error (`Msg m) ->
            prerr_endline m;
            exit 2
        | Ok requests -> (
            let pool = Parallel.pool ~jobs:(resolve_jobs jobs) in
            match
              Run.observe_many ~pool ?plan ~graph ~protocols ~requests ()
            with
            | exception Countq_simnet.Engine.Round_limit_exceeded
                { limit; outstanding; queued; held; busiest } ->
                report_round_limit ~limit ~outstanding ~queued ~held ~busiest;
                exit 1
            | observations ->
                let module Metrics = Countq_simnet.Metrics in
                let module Span = Countq_simnet.Span in
                let module Stats = Countq_util.Stats in
                let k = List.length requests in
                let print_one (o : Run.observation) =
                Printf.printf "%s on %s (n=%d, k=%d%s)\n" o.o_protocol topology
                  n k
                  (match plan_name with
                  | Some p -> Printf.sprintf ", plan %s" p
                  | None -> "");
                Printf.printf
                  "completed %d/%d, valid %b, rounds %d, messages %d, total \
                   delay %d (expansion %d)\n"
                  o.completed k o.o_valid o.o_rounds o.o_messages
                  o.o_total_delay o.o_expansion;
                Option.iter
                  (fun (s : Countq_simnet.Faults.stats) ->
                    Printf.printf
                      "injected: %d dropped, %d duplicated, %d delayed, %d \
                       crash-dropped (of %d transmissions)\n"
                      s.dropped s.duplicated s.delayed s.crash_dropped
                      s.transmissions)
                  o.o_injected;
                print_newline ();
                print_string (Metrics.render_heatmap o.metrics);
                let pp_pairs fmt_one pairs =
                  String.concat ", " (List.map fmt_one pairs)
                in
                Printf.printf "\nhottest nodes: %s\n"
                  (pp_pairs
                     (fun (v, t) -> Printf.sprintf "%d (%d)" v t)
                     (Metrics.hottest_nodes o.metrics));
                Printf.printf "hottest edges: %s\n"
                  (pp_pairs
                     (fun ((s, d), t) -> Printf.sprintf "%d->%d (%d)" s d t)
                     (Metrics.hottest_edges o.metrics));
                let delays = List.filter_map Span.delay o.spans in
                let incomplete =
                  List.length o.spans - List.length delays
                in
                (* Stats is total on empty input (percentiles return
                   [None], [histogram] returns no buckets), so a run
                   where every span is stranded (e.g. a crash plan that
                   severs the tail) degrades to the stranded report
                   below instead of an exception. *)
                (match Stats.percentile_ints delays 0.5 with
                | None -> ()
                | Some p50 ->
                    let p q =
                      Option.value (Stats.percentile_ints delays q)
                        ~default:nan
                    in
                    Printf.printf
                      "\nper-op delay: p50 %.1f  p90 %.1f  p95 %.1f  p99 \
                       %.1f  max %d rounds\n"
                      p50 (p 0.9) (p 0.95) (p 0.99)
                      (List.fold_left max 0 delays);
                    print_string
                      (Stats.render_histogram (Stats.histogram delays));
                    let sum = List.fold_left ( + ) 0 delays in
                    Printf.printf
                      "span delay sum %d vs engine total delay %d (%s)\n" sum
                      o.o_total_delay
                      (if sum = o.o_total_delay then "consistent"
                       else "MISMATCH"));
                if incomplete > 0 then
                  Printf.printf
                    "%d operation(s) stranded (injected, never completed)\n"
                    incomplete;
                if k_spans > 0 && o.spans <> [] then begin
                  let slowest =
                    List.stable_sort
                      (fun a b ->
                        compare
                          (Option.value (Span.delay b) ~default:max_int)
                          (Option.value (Span.delay a) ~default:max_int))
                      o.spans
                  in
                  Printf.printf "\nslowest %d span(s):\n"
                    (min k_spans (List.length slowest));
                  List.iteri
                    (fun i s ->
                      if i < k_spans then
                        Format.printf "  %a@." Span.pp s)
                    slowest
                end
                in
                List.iteri
                  (fun i o ->
                    if i > 0 then print_newline ();
                    print_one o)
                  observations;
                Option.iter
                  (fun path ->
                    let module J = Countq_util.Json in
                    let oc = open_out path in
                    List.iter
                      (fun (o : Run.observation) ->
                        let meta =
                          J.Obj
                            [
                              ("type", J.Str "meta");
                              ("schema", J.Str "countq-observe/2");
                              ("protocol", J.Str o.o_protocol);
                              ("topology", J.Str topology);
                              ("n", J.Int n);
                              ("k", J.Int k);
                              ( "plan",
                                match plan_name with
                                | Some p -> J.Str p
                                | None -> J.Null );
                              ("rounds", J.Int o.o_rounds);
                              ("messages", J.Int o.o_messages);
                              ("total_delay", J.Int o.o_total_delay);
                              ("expansion", J.Int o.o_expansion);
                              ("completed", J.Int o.completed);
                              ("valid", J.Bool o.o_valid);
                            ]
                        in
                        output_string oc (J.to_string meta);
                        output_char oc '\n';
                        output_string oc (Span.to_jsonl o.spans);
                        output_string oc (Metrics.to_jsonl o.metrics))
                      observations;
                    close_out oc;
                    Printf.printf "\nwrote %s\n" path)
                  json_path))
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Run one protocol with full observability: per-node/per-edge \
          metrics, a congestion heatmap, per-operation delay percentiles and \
          causal spans, optionally exported as JSONL.")
    Term.(
      const run $ topology_arg $ n_arg $ requests_arg $ seed_arg $ quick_arg
      $ protocol_arg $ plan_arg $ json_arg $ spans_arg $ jobs_arg)

(* ---- load ---- *)

let load_cmd =
  let module Load = Countq.Load in
  let module Implicit = Countq_topology.Implicit in
  let topo_arg =
    Arg.(
      value
      & opt string "list:4096"
      & info [ "topology"; "t" ] ~docv:"SPEC"
          ~doc:
            "Implicit topology spec, family:size - list:N, ring:N, mesh:N or \
             mesh:AxB, torus:N or torus:AxB, tree:N or tree:ARITY:N. Sizes up \
             to a million nodes are fine; the graph is never materialised.")
  in
  let workload_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("both", `Both); ("queuing", `Queuing);
               ("counting", `Counting); ("funnel", `Funnel) ])
          `Both
      & info [ "workload"; "w" ] ~docv:"W"
          ~doc:
            "Workload to drive: both | queuing | counting | funnel (the \
             combining funnel; needs a tree:… topology).")
  in
  let rates_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"R,R,…"
          ~doc:
            "Offered rates to sweep, in operations per round over the whole \
             network (default 0.1,0.25,0.5,0.75,1,1.5,2; --quick 0.25,1).")
  in
  let arrival_arg =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty); ("diurnal", `Diurnal) ]) `Poisson
      & info [ "arrival" ] ~docv:"A"
          ~doc:
            "Arrival process: poisson | bursty (4-round bursts every 16) | \
             diurnal (sinusoidal, period 64). All share the given mean rate.")
  in
  let horizon_arg =
    Arg.(
      value & opt int 2048
      & info [ "horizon" ] ~docv:"T"
          ~doc:
            "Arrival window in rounds; the run drains for another T rounds \
             before it is cut off (--quick caps T at 256).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write per-operation spans as JSONL: one meta line per \
             (workload, rate) run, then one span per operation (under \
             $(b,--streaming), only the reservoir's exemplar spans).")
  in
  let streaming_arg =
    Arg.(
      value & flag
      & info [ "streaming" ]
          ~doc:
            "Constant-memory mode for long horizons: fold delays into a \
             quantile sketch and spans into a bounded reservoir instead of \
             retaining every operation. Percentiles become estimates \
             (relative error under 1%) once a run exceeds the sketch's \
             exact window.")
  in
  let parse_rates s =
    try
      let rates =
        List.map
          (fun tok ->
            let r = float_of_string (String.trim tok) in
            if r <= 0. || not (Float.is_finite r) then failwith "rate";
            r)
          (String.split_on_char ',' s)
      in
      if rates = [] then Error "empty rate list" else Ok rates
    with _ -> Error (Printf.sprintf "bad --rates %S (want comma-separated positive numbers)" s)
  in
  let run topo_spec workload rates_spec arrival_kind horizon quick seed
      json_path streaming shards =
    let shards = resolve_shards shards in
    let horizon = if quick then min horizon 256 else horizon in
    let rates =
      match rates_spec with
      | Some s -> parse_rates s
      | None -> Ok (if quick then [ 0.25; 1.0 ] else [ 0.1; 0.25; 0.5; 0.75; 1.0; 1.5; 2.0 ])
    in
    match (Implicit.parse topo_spec, rates) with
    | Error (`Msg m), _ | _, Error m ->
        prerr_endline m;
        exit 2
    | Ok topo, Ok rates -> (
        let arrival_of rate =
          match arrival_kind with
          | `Poisson -> Load.Poisson rate
          | `Bursty -> Load.Bursty { rate; on = 4; off = 12 }
          | `Diurnal -> Load.Diurnal { rate; period = 64 }
        in
        let workloads =
          match workload with
          | `Both -> [ Load.Queuing; Load.Counting ]
          | `Queuing -> [ Load.Queuing ]
          | `Counting -> [ Load.Counting ]
          | `Funnel -> [ Load.Funnel ]
        in
        (if List.mem Load.Funnel workloads
            && Implicit.tree_arity topo = None then begin
           Printf.eprintf
             "the funnel workload combines along tree edges - pass a \
              tree:… topology (got %s)\n"
             (Implicit.label topo);
           exit 2
         end);
        let keep_spans = json_path <> None && not streaming in
        match
          List.concat_map
            (fun w ->
              List.map
                (fun rate ->
                  Load.run ~seed:(Int64.of_int seed) ~keep_spans
                    ~streaming ~shards ~topo ~workload:w
                    ~arrival:(arrival_of rate) ~horizon ())
                rates)
            workloads
        with
        | exception Countq_simnet.Engine.Round_limit_exceeded
            { limit; outstanding; queued; held; busiest } ->
            report_round_limit ~limit ~outstanding ~queued ~held ~busiest;
            exit 1
        | summaries ->
            let rows =
              List.map
                (fun (s : Load.summary) ->
                  [
                    s.workload;
                    s.arrival;
                    Table.cell_float ~decimals:3 s.offered;
                    Table.cell_int s.injected;
                    Table.cell_int s.completed;
                    Table.cell_int s.unfinished;
                    Table.cell_float ~decimals:3 s.throughput;
                    Table.cell_float ~decimals:1 s.p50;
                    Table.cell_float ~decimals:1 s.p95;
                    Table.cell_float ~decimals:1 s.p99;
                    Table.cell_int s.max_delay;
                    Table.cell_int s.max_backlog;
                    Table.cell_int s.peak_in_flight;
                    Table.cell_int s.touched;
                    Table.cell_bool s.saturated;
                  ])
                summaries
            in
            let table =
              Table.make ~id:"LOAD"
                ~title:
                  (Printf.sprintf
                     "latency vs offered load on %s (horizon %d)"
                     (Implicit.label topo) horizon)
                ~paper_ref:"open-loop view of the counting/queuing separation"
                ~headers:
                  [
                    "workload"; "arrival"; "offered"; "injected"; "done";
                    "stranded"; "thr"; "p50"; "p95"; "p99"; "max"; "backlog";
                    "in-flight"; "touched"; "saturated";
                  ]
                ~notes:
                  ([
                     "delay percentiles in rounds over completed operations";
                     "stranded = injected but never completed within the \
                      drain window; saturated = stranded > 5% of injected";
                   ]
                  @
                  if streaming then
                    [
                      "streaming: percentiles from a constant-memory \
                       quantile sketch (exact below 1024 completions, then \
                       relative error < 1%)";
                    ]
                  else [])
                rows
            in
            Table.print table;
            Option.iter
              (fun path ->
                let module J = Countq_util.Json in
                let module Span = Countq_simnet.Span in
                let oc = open_out path in
                List.iter
                  (fun (s : Load.summary) ->
                    let meta =
                      J.Obj
                        [
                          ("type", J.Str "meta");
                          ("schema", J.Str "countq-load/1");
                          ("workload", J.Str s.workload);
                          ("topology", J.Str s.topology);
                          ("arrival", J.Str s.arrival);
                          ("horizon", J.Int s.horizon);
                          ("injected", J.Int s.injected);
                          ("completed", J.Int s.completed);
                          ("stranded", J.Int s.unfinished);
                          ("sketched", J.Bool s.sketched);
                          ("throughput", J.Float s.throughput);
                          ("p50", J.Float s.p50);
                          ("p95", J.Float s.p95);
                          ("p99", J.Float s.p99);
                          ("max_backlog", J.Int s.max_backlog);
                          ("saturated", J.Bool s.saturated);
                        ]
                    in
                    output_string oc (J.to_string meta);
                    output_char oc '\n';
                    if streaming then
                      (* the reservoir's picks, tagged so a reader can
                         tell exemplars from a full span table *)
                      List.iter
                        (fun (tag, sp) ->
                          match
                            J.of_string (Span.to_jsonl [ sp ] |> String.trim)
                          with
                          | Ok (J.Obj fields) ->
                              output_string oc
                                (J.to_string
                                   (J.Obj (("tag", J.Str tag) :: fields)));
                              output_char oc '\n'
                          | _ -> ())
                        s.exemplars
                    else output_string oc (Span.to_jsonl s.spans))
                  summaries;
                close_out oc;
                Printf.printf "wrote %s\n" path)
              json_path)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop traffic on the event-driven engine: sweep offered load \
          and report per-operation delay percentiles, throughput and \
          backpressure for queuing vs counting - the separation as a \
          saturation curve.")
    Term.(
      const run $ topo_arg $ workload_arg $ rates_arg $ arrival_arg
      $ horizon_arg $ quick_arg $ seed_arg $ json_arg $ streaming_arg
      $ shards_arg)

(* ---- timeline ---- *)

let timeline_cmd =
  let module Load = Countq.Load in
  let module Implicit = Countq_topology.Implicit in
  let module Telemetry = Countq_simnet.Telemetry in
  let module J = Countq_util.Json in
  let topo_arg =
    Arg.(
      value
      & opt string "torus:32x32"
      & info [ "topology"; "t" ] ~docv:"SPEC"
          ~doc:"Implicit topology spec (family:size, as in $(b,countq load)).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("queuing", `Queuing); ("counting", `Counting) ]) `Queuing
      & info [ "workload"; "w" ] ~docv:"W" ~doc:"Workload: queuing | counting.")
  in
  let rate_arg =
    Arg.(
      value & opt float 1.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Poisson arrival rate, operations per round network-wide.")
  in
  let horizon_arg =
    Arg.(
      value & opt int 2048
      & info [ "horizon" ] ~docv:"T"
          ~doc:"Arrival window in rounds (the run drains for T more).")
  in
  let windows_arg =
    Arg.(
      value & opt int 64
      & info [ "windows" ] ~docv:"K"
          ~doc:"Number of time windows the run is folded into.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the windowed series as JSONL (countq-timeline/2: one meta \
             line, then one window object per line).")
  in
  let run topo_spec workload rate horizon windows quick seed json_path =
    let horizon = if quick then min horizon 256 else horizon in
    if horizon < 1 || windows < 1 || rate <= 0. then begin
      prerr_endline "timeline: need horizon >= 1, windows >= 1, rate > 0";
      exit 2
    end;
    match Implicit.parse topo_spec with
    | Error (`Msg m) ->
        prerr_endline m;
        exit 2
    | Ok topo -> (
        let span = 2 * horizon in
        let window_size = max 1 ((span + windows - 1) / windows) in
        let tl = Telemetry.create ~windows ~window_size () in
        let w =
          match workload with `Queuing -> Load.Queuing | `Counting -> Load.Counting
        in
        match
          Load.run ~seed:(Int64.of_int seed) ~streaming:true ~telemetry:tl
            ~topo ~workload:w ~arrival:(Load.Poisson rate) ~horizon ()
        with
        | exception Countq_simnet.Engine.Round_limit_exceeded
            { limit; outstanding; queued; held; busiest } ->
            report_round_limit ~limit ~outstanding ~queued ~held ~busiest;
            exit 1
        | s ->
            let ws = Telemetry.windows tl in
            Printf.printf
              "%s on %s: rate %g for %d rounds (drain %d more), %d injected, \
               %d completed, %d stranded%s\n"
              s.workload s.topology rate horizon horizon s.injected s.completed
              s.unfinished
              (if s.saturated then " [saturated]" else "");
            Printf.printf
              "p50 %.1f  p95 %.1f  p99 %.1f  max %d rounds%s; peak backlog \
               %d, peak in-flight %d\n\n" s.p50 s.p95 s.p99 s.max_delay
              (if s.sketched then " (sketched)" else "")
              s.max_backlog s.peak_in_flight;
            let series name f =
              let v = Array.of_list (List.map f ws) in
              if Array.exists (fun x -> x > 0.) v then
                Printf.printf "%13s %s  (peak %g)\n" name
                  (Telemetry.sparkline v)
                  (Array.fold_left max 0. v)
            in
            Printf.printf "%d windows of %d rounds (%d evicted):\n"
              (List.length ws) window_size (Telemetry.evicted tl);
            series "injections" (fun w -> float_of_int w.Telemetry.injections);
            series "completions" (fun w -> float_of_int w.Telemetry.completions);
            series "sends" (fun w -> float_of_int w.Telemetry.sends);
            series "deliveries" (fun w -> float_of_int w.Telemetry.deliveries);
            series "drops" (fun w -> float_of_int w.Telemetry.drops);
            series "max backlog" (fun w -> float_of_int w.Telemetry.max_backlog);
            series "max in-flight" (fun w ->
                float_of_int w.Telemetry.max_in_flight);
            if s.exemplars <> [] then begin
              Printf.printf "\nexemplar spans:\n";
              List.iter
                (fun (tag, (sp : Countq_simnet.Span.t)) ->
                  Printf.printf "  %-8s op %d injected @%d%s\n" tag sp.op
                    sp.inject_round
                    (match sp.completion_round with
                    | Some r -> Printf.sprintf " completed @%d (delay %d)" r
                                  (r - sp.inject_round)
                    | None -> " stranded"))
                s.exemplars
            end;
            Option.iter
              (fun path ->
                let oc = open_out path in
                let meta =
                  J.Obj
                    [
                      ("type", J.Str "meta");
                      ("schema", J.Str "countq-timeline/2");
                      ("workload", J.Str s.workload);
                      ("topology", J.Str s.topology);
                      ("arrival", J.Str s.arrival);
                      ("horizon", J.Int s.horizon);
                      ("window_size", J.Int window_size);
                      ("windows", J.Int (List.length ws));
                      ("evicted", J.Int (Telemetry.evicted tl));
                      ("injected", J.Int s.injected);
                      ("completed", J.Int s.completed);
                      ("stranded", J.Int s.unfinished);
                      ("sketched", J.Bool s.sketched);
                    ]
                in
                output_string oc (J.to_string meta);
                output_char oc '\n';
                output_string oc (Telemetry.to_jsonl tl);
                close_out oc;
                Printf.printf "\nwrote %s\n" path)
              json_path)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run an open-loop workload with windowed telemetry attached and \
          render each series as a terminal sparkline - when the backlog \
          built, when throughput pinned, when the drain emptied.")
    Term.(
      const run $ topo_arg $ workload_arg $ rate_arg $ horizon_arg
      $ windows_arg $ quick_arg $ seed_arg $ json_arg)

(* ---- trace ---- *)

let trace_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the event log as JSONL (one event per line).")
  in
  let run topology n seed json_path =
    match build_topology topology (min n 24) with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok g ->
        let n = Graph.n g in
        let tree = Spanning.best_for_arrow g in
        let rng = Rng.create (Int64.of_int seed) in
        let k = max 1 (n / 3) in
        let requests = Rng.sample rng ~k ~n in
        let res, events =
          Countq_simnet.Oneshot.traced
            (Countq_arrow.Protocol.one_shot ~tree ~requests ())
        in
        let result = Countq_arrow.Protocol.of_engine res in
        Printf.printf
          "arrow protocol on %s (n=%d), requests {%s}, tail at node %d\n\n"
          topology n
          (String.concat "," (List.map string_of_int requests))
          (Tree.root tree);
        print_string (Countq_simnet.Trace.render ~n events);
        Printf.printf "\nlegend: s=queued send, R=received, +=both, *=completed\n";
        (match result.order with
        | Ok ops ->
            Printf.printf "total order: %s\n"
              (String.concat " -> "
                 (List.map
                    (fun (o : Countq_arrow.Types.op) -> string_of_int o.origin)
                    ops))
        | Error e ->
            Format.printf "INVALID ORDER: %a@." Countq_arrow.Order.pp_error e);
        Printf.printf "total delay %d, %d messages\n" result.total_delay
          result.messages;
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Countq_simnet.Trace.to_jsonl events);
            close_out oc;
            Printf.printf "wrote %s (%d events)\n" path (List.length events))
          json_path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace a small arrow execution as an ASCII timeline (n capped at 24).")
    Term.(const run $ topology_arg $ n_arg $ seed_arg $ json_arg)

let () =
  let doc = "Concurrent counting is harder than queuing - reproduction CLI" in
  let info = Cmd.info "countq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; experiments_cmd; cache_cmd; compare_cmd; topo_cmd;
            trace_cmd; series_cmd; report_cmd; verify_cmd; check_cmd;
            faults_cmd; churn_cmd; observe_cmd; load_cmd; timeline_cmd ]))
