(* Benchmark suite: five workloads copied from the runs users start,
   end-to-end metrics over reps in fresh processes, and one traced rep
   per workload for the per-layer metrics. See README.md.

   Usage:
     dune exec bench/suite/main.exe -- [--seed N]
         every workload: its untraced reps, then one traced rep each
     ... --workload W               only W (repeatable)
     ... --seconds S                reps by time budget (S seconds per
                                    workload) instead of fixed counts
     ... --trace 0                  untraced reps only: end-to-end metrics
     ... --trace 1                  the traced rep plus untraced reps for
                                    its overhead baseline: per-layer metrics
     ... --out FILE                 result file, default
                                    bench/out/suite/results.json
     ... --trace-out FILE           span JSONL, default
                                    bench/out/suite/trace.jsonl
     dune exec bench/suite/main.exe -- --compare A.json B.json
         a verdict per (workload, end-to-end metric) between two result
         files; exits 1 on a worse, unusable or changed simulated value

   Every rep runs in a child process of this executable (the internal
   --rep flag), one at a time, so each gets a clean heap and its own
   peak RSS. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The exit code is 0
   only when every check passed and no operation failed. *)

module Json = Countq_util.Json
module Probe = Bench_suite.Probe
module Sample = Bench_suite.Sample
module Registry = Bench_suite.Registry
module Report = Bench_suite.Report
module Trace = Bench_suite.Trace

let default_dir = Filename.concat (Filename.concat "bench" "out") "suite"

(* Limit on one child rep; every rep is expected to take under 30 s. *)
let rep_timeout_s = 120.

(* ------------------------------------------------------------------ *)
(* Child side: one rep, printed as one JSON line.                      *)

let child ~workload ~index ~seed ~traced =
  let run =
    match List.assoc_opt workload Workloads.all with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %s\n" workload;
        exit 2
  in
  if traced then Trace.enable ();
  let (o : Workloads.outcome) =
    Trace.span ~layer:"bench" "rep" (fun () ->
        run ~seed:(Int64.of_int seed) ~traced)
  in
  let spans = Trace.spans () in
  let topology_s =
    List.fold_left
      (fun a (s : Trace.span) ->
        if s.layer = "topology" then a +. Trace.duration s else a)
      0. spans
  in
  let layers =
    if not traced then []
    else
      o.layers
      @ [
          ("topology.gen_s", topology_s);
          ("gc.minor_mwords", o.gc.minor_words /. 1e6);
          ("gc.major_mwords", o.gc.major_words /. 1e6);
          ("gc.major_collections", float_of_int o.gc.major_collections);
          ("gc.top_heap_mb", Probe.top_heap_mb ());
        ]
  in
  let rep =
    {
      Report.workload;
      rep = index;
      traced;
      setup_s = o.setup_s;
      wall_s = o.wall_s;
      ops = o.ops;
      attempted = o.attempted;
      failed = o.failed;
      peak_rss_mb = Probe.peak_rss_mb ();
      sim = o.sim;
      fingerprint = o.fingerprint;
      layers;
      self_times = Trace.self_times spans;
      spans = List.map (Trace.to_json ~workload ~rep:index) spans;
      errors = o.errors;
    }
  in
  print_endline (Json.to_string (Report.rep_to_json rep))

(* ------------------------------------------------------------------ *)
(* Parent side: spawn reps, summarise, print.                          *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Read the child's stdout to the end, killing it past the timeout. *)
let read_child pid fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let t0 = Probe.now_ns () in
  let rec go () =
    let left = rep_timeout_s -. Probe.seconds_between t0 (Probe.now_ns ()) in
    if left <= 0. then begin
      Unix.kill pid Sys.sigkill;
      false
    end
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let finished = go () in
  (finished, Buffer.contents buf)

let spawn ~workload ~index ~seed ~traced =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--rep"; workload; string_of_int index; "--seed"; string_of_int seed ]
    @ if traced then [ "--traced" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let finished, out =
    Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_child pid rd)
  in
  let _, status = Unix.waitpid [] pid in
  match (finished, status) with
  | false, _ ->
      Error (Printf.sprintf "rep %d timed out after %.0f s" index rep_timeout_s)
  | true, Unix.WEXITED 0 -> (
      match Json.of_string (last_line out) with
      | Ok j -> Report.rep_of_json j
      | Error e -> Error (Printf.sprintf "rep %d printed no record: %s" index e))
  | true, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
      Error (Printf.sprintf "rep %d exited with status %d" index c)

type policy = Fixed of int | Budget of float

(* Untraced reps, one child at a time. Under a budget, a new rep starts
   only if the median rep so far still fits, so a run ends close to its
   budget rather than a whole rep past it. *)
let untraced_reps ~workload ~seed ~first policy =
  let t0 = Probe.now_ns () in
  let elapsed () = Probe.seconds_between t0 (Probe.now_ns ()) in
  let rec go i reps errors durations =
    let more =
      match policy with
      | Fixed n -> i - first < n
      | Budget s ->
          i = first
          || (i - first < 1000
             && elapsed () +. Option.get (Sample.median durations) <= s)
    in
    if not more then (List.rev reps, List.rev errors)
    else
      let before = elapsed () in
      let r = spawn ~workload ~index:i ~seed ~traced:false in
      let durations = (elapsed () -. before) :: durations in
      match r with
      | Ok rep -> go (i + 1) (rep :: reps) errors durations
      | Error e -> go (i + 1) reps (e :: errors) durations
  in
  go first [] [] []

let run_workload ~seed ~policy ~trace (w : Registry.workload) =
  let policy = match policy with Some p -> p | None -> Fixed w.reps in
  Printf.printf "== %s ==\n%s\n%!" w.wname w.why;
  let reps, errors = untraced_reps ~workload:w.wname ~seed ~first:0 policy in
  let traced_rep, traced_errors =
    if trace = Some false then (None, [])
    else
      let index = List.length reps + List.length errors in
      match spawn ~workload:w.wname ~index ~seed ~traced:true with
      | Ok r -> (Some r, [])
      | Error e -> (None, [ "traced " ^ e ])
  in
  { Report.name = w.wname; reps; traced_rep; errors = errors @ traced_errors }

let print_e2e (res : Report.workload_result) =
  Printf.printf "%-18s %14s %14s %14s %7s %3s  %s\n" "metric" "median" "q1"
    "q3" "iqr%" "n" "unit";
  List.iter
    (fun ((m : Registry.metric), xs) ->
      match Sample.summarize xs with
      | Some s ->
          Printf.printf "%-18s %14.6g %14.6g %14.6g %6.2f%% %3d  %s\n" m.name
            s.median s.q1 s.q3
            (100. *. s.iqr /. s.median)
            s.n m.unit
      | None ->
          Printf.printf "%-18s %14s  (unusable samples)\n" m.name "missing")
    (Report.samples res);
  match res.reps with
  | r :: _ ->
      List.iter
        (fun (name, v) ->
          let unit =
            match Registry.find name Registry.simulated with
            | Some m -> m.unit
            | None -> "?"
          in
          Printf.printf "%-18s %14.6g %14s %14s %7s %3s  %s (simulated)\n" name
            v "" "" "" "" unit)
        r.sim
  | [] -> ()

let print_traced (res : Report.workload_result) =
  match res.traced_rep with
  | None -> ()
  | Some t ->
      Printf.printf "traced rep: wall %.4f s" t.wall_s;
      Option.iter
        (Printf.printf ", tracing overhead %+.2f%%")
        (Report.overhead_pct res);
      print_newline ();
      Printf.printf "%-18s %7s %12s %12s\n" "layer" "spans" "total s" "self s";
      List.iter
        (fun (l : Trace.layer_time) ->
          Printf.printf "%-18s %7d %12.6f %12.6f\n" l.layer l.count l.total_s
            l.self_s)
        t.self_times;
      List.iter
        (fun ((m : Registry.metric), v) ->
          if v <> 0. then Printf.printf "  %-28s %14.6g %s\n" m.name v m.unit)
        (Report.layer_values res)

let write_file path text =
  let rec mkdir_p d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc text)

let suite ~workloads ~seed ~policy ~trace ~out ~trace_out =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "countq benchmark suite: seed %d, %d core(s); reps run one at a time in \
     fresh processes\n\n%!"
    seed cores;
  let results =
    List.map
      (fun w ->
        let res = run_workload ~seed ~policy ~trace w in
        if trace <> Some true then print_e2e res;
        print_traced res;
        List.iter (Printf.printf "FAILED CHECK: %s\n") (Report.check res);
        print_newline ();
        res)
      workloads
  in
  write_file out
    (Json.to_string (Report.results_json ~seed ~cores results) ^ "\n");
  let traced =
    List.filter_map (fun (r : Report.workload_result) -> r.traced_rep) results
  in
  if traced <> [] then
    write_file trace_out
      (String.concat ""
         (List.map
            (fun j -> Json.to_string j ^ "\n")
            (Json.Obj
               [
                 ("type", Json.Str "meta");
                 ("schema", Json.Str "countq-bench-trace/1");
                 ("seed", Json.Int seed);
                 ("cores", Json.Int cores);
               ]
            :: List.concat_map (fun (t : Report.rep) -> t.spans) traced)));
  Printf.printf "wrote %s%s\n" out
    (if traced <> [] then " and " ^ trace_out else "");
  let correct = List.for_all (fun r -> Report.check r = []) results in
  let attempted, failed = Report.totals results in
  (* One workload: plain metric names, as BENCHMARK.json declares them;
     several: prefixed with the workload. *)
  let key (res : Report.workload_result) name =
    match workloads with [ _ ] -> name | _ -> res.name ^ "." ^ name
  in
  let metrics =
    List.concat_map
      (fun (res : Report.workload_result) ->
        (if trace = Some true then []
         else
           List.map
             (fun ((m : Registry.metric), v) -> (key res m.name, m, v))
             (Report.e2e_medians res))
        @ List.map
            (fun ((m : Registry.metric), v) -> (key res m.name, m, v))
            (Report.layer_values res))
      results
  in
  print_endline
    (Json.to_string (Report.result_line ~correct ~attempted ~failed metrics));
  if not (correct && failed = 0) then exit 1

let compare_files a b =
  match (Report.read_results a, Report.read_results b) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      exit 2
  | Ok ra, Ok rb ->
      let rows = Report.compare_results ra rb in
      let cell = function Some v -> Printf.sprintf "%.6g" v | None -> "-" in
      Printf.printf "%-12s %-18s %14s %14s  %s\n" "workload" "metric" "base"
        "candidate" "verdict";
      List.iter
        (fun (r : Report.row) ->
          Printf.printf "%-12s %-18s %14s %14s  %s\n" r.r_workload r.r_metric
            (cell r.base) (cell r.cand) r.verdict)
        rows;
      if List.exists (fun (r : Report.row) -> r.fails) rows then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE] [--trace-out FILE]\n\
    \       main.exe --compare A.json B.json";
  exit 2

let () =
  let workloads = ref [] and seed = ref 42 and policy = ref None in
  let trace = ref None in
  let out = ref (Filename.concat default_dir "results.json") in
  let trace_out = ref (Filename.concat default_dir "trace.jsonl") in
  let nat s =
    match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--rep" :: w :: i :: "--seed" :: s :: traced ->
        child ~workload:w ~index:(nat i) ~seed:(nat s)
          ~traced:(traced = [ "--traced" ]);
        exit 0
    | [ "--compare"; a; b ] ->
        compare_files a b;
        exit 0
    | "--workload" :: w :: rest ->
        (match Registry.find_workload w with
        | Some wl -> workloads := !workloads @ [ wl ]
        | None ->
            Printf.eprintf "unknown workload %s (known: %s)\n" w
              (String.concat ", "
                 (List.map
                    (fun (w : Registry.workload) -> w.wname)
                    Registry.workloads));
            exit 2);
        go rest
    | "--seed" :: s :: rest ->
        seed := nat s;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> policy := Some (Budget x)
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--out" :: f :: rest ->
        out := f;
        go rest
    | "--trace-out" :: f :: rest ->
        trace_out := f;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let workloads = if !workloads = [] then Registry.workloads else !workloads in
  suite ~workloads ~seed:!seed ~policy:!policy ~trace:!trace ~out:!out
    ~trace_out:!trace_out
