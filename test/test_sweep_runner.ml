(* Tests for the domain-parallel sweep runner and its on-disk cache:
   jobs-count independence, cold/warm bit-identity, corruption and
   staleness fallback, and the spot-check regression guard. *)

module Sweep = Countq.Sweep
module Cache = Countq.Cache
module Run = Countq.Run
module Experiments = Countq.Experiments
module Table = Countq.Table
module Json = Countq_util.Json
module Rng = Countq_util.Rng
module Gen = Countq_topology.Gen
module Faults = Countq_simnet.Faults

(* A fresh private directory under the system temp dir; tests clean up
   behind themselves with [Cache.clear]. *)
let temp_dir () =
  let f = Filename.temp_file "countq-sweep" ".cache" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rm_dir dir =
  ignore (Cache.clear ~dir);
  (try Sys.rmdir dir with Sys_error _ -> ())

let render t = Format.asprintf "%a" Table.pp t

(* ---- determinism: jobs = k is bit-identical to jobs = 1 ---- *)

(* Synthetic grid points exercising every flavour the experiments use:
   pure RNG draws, a faulty run with its baseline, and a
   metrics-attached observed run. All on tiny graphs. *)
let point_of_kind ctx kind idx =
  let name = Printf.sprintf "k%d:%d" kind idx in
  match kind with
  | 0 ->
      Sweep.point ~name (fun ~rng ->
          Json.Arr
            [ Json.Int (Rng.below rng 1000); Json.Int (Rng.below rng 1000) ])
  | 1 ->
      Sweep.rows_point ~name (fun ~rng ->
          let n = 4 + Rng.below rng 3 in
          let s =
            Run.run_faulty ~pool:(Sweep.pool ctx) ~graph:(Gen.star n)
              ~protocol:`Central_count ~plan:(Faults.drop_nth 3)
              ~requests:(Helpers.all_nodes n) ()
          in
          [
            [
              string_of_int s.completed;
              string_of_int s.rounds;
              string_of_int s.extra_messages;
              string_of_bool s.safe;
            ];
          ])
  | _ ->
      Sweep.point ~name (fun ~rng ->
          let n = 4 + Rng.below rng 3 in
          let o =
            Run.observe ~graph:(Gen.path n) ~protocol:`Arrow
              ~requests:(Helpers.all_nodes n) ()
          in
          Json.Arr
            [
              Json.Int o.completed;
              Json.Int o.o_rounds;
              Json.Int o.o_messages;
              Json.Int (List.length o.spans);
            ])

let prop_jobs_independent =
  QCheck2.Test.make ~name:"sweep: jobs=k bit-identical to jobs=1" ~count:15
    ~print:(fun (kinds, jobs) ->
      Printf.sprintf "kinds=[%s] jobs=%d"
        (String.concat ";" (List.map string_of_int kinds))
        jobs)
    QCheck2.Gen.(pair (list_size (int_range 1 6) (int_range 0 2)) (int_range 2 5))
    (fun (kinds, jobs) ->
      let grid ctx = List.mapi (fun i k -> point_of_kind ctx k i) kinds in
      let serial = Sweep.serial () in
      let par = Sweep.ctx ~jobs () in
      let v1, _ = Sweep.run serial ~experiment:"PROP" (grid serial) in
      let vk, _ = Sweep.run par ~experiment:"PROP" (grid par) in
      v1 = vk)

let test_experiment_grids_job_independent () =
  (* The rewired experiments themselves: quick grids at jobs=3 must
     render identically to the serial default. *)
  let ctx = Sweep.ctx ~jobs:3 () in
  List.iter
    (fun id ->
      match Experiments.find id with
      | None -> Alcotest.failf "experiment %s not found" id
      | Some s ->
          Alcotest.(check string)
            (id ^ " parallel = serial")
            (render (s.run ~quick:true ()))
            (render (s.run ~quick:true ~ctx ())))
    [ "E3"; "E12"; "E13" ]

let test_duplicate_point_names_rejected () =
  let p () = Sweep.rows_point ~name:"dup" (fun ~rng:_ -> [ [ "x" ] ]) in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Sweep.run EDUP: duplicate point name \"dup\"")
    (fun () ->
      ignore (Sweep.run (Sweep.serial ()) ~experiment:"EDUP" [ p (); p () ]))

(* ---- the cache ---- *)

let counting_grid counter =
  List.map
    (fun i ->
      Sweep.rows_point ~name:(Printf.sprintf "p:%d" i) (fun ~rng ->
          incr counter;
          [ [ string_of_int i; string_of_int (Rng.below rng 1_000_000) ] ]))
    (Helpers.all_nodes 6)

let test_cache_cold_then_warm_identical () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let evals = ref 0 in
      let cold_ctx = Sweep.ctx ~cache:(Cache.create ~dir) () in
      let cold, cs =
        Sweep.run_rows cold_ctx ~experiment:"EC" (counting_grid evals)
      in
      Alcotest.(check int) "cold misses" 6 cs.misses;
      Alcotest.(check int) "cold evaluations" 6 !evals;
      (* A fresh handle on the same directory: everything hits, nothing
         re-evaluates, and the rows are bit-identical. *)
      let warm_ctx = Sweep.ctx ~cache:(Cache.create ~dir) () in
      let warm, ws =
        Sweep.run_rows warm_ctx ~experiment:"EC" (counting_grid evals)
      in
      Alcotest.(check int) "warm hits" 6 ws.hits;
      Alcotest.(check int) "warm misses" 0 ws.misses;
      Alcotest.(check int) "no re-evaluation" 6 !evals;
      Alcotest.(check (list (list string))) "bit-identical" cold warm)

(* The six sweep-grid experiments end to end: a warm pass over the cold
   pass's directory must serve every point from the cache, survive the
   spot check, and render byte-identical tables. *)
let test_grid_experiments_cold_then_warm () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let specs =
        List.map
          (fun id ->
            match Experiments.find id with
            | Some s -> s
            | None -> Alcotest.failf "experiment %s not found" id)
          [ "E25"; "E13"; "E10"; "E9"; "E3"; "E12" ]
      in
      let pass ~spot_check =
        let cache = Cache.create ~dir in
        let ctx = Sweep.ctx ~cache ~spot_check ~spot_seed:7L () in
        let tables =
          List.map
            (fun (s : Experiments.spec) -> render (s.run ~quick:true ~ctx ()))
            specs
        in
        (tables, Cache.hits cache, Cache.misses cache)
      in
      let cold, _, cold_misses = pass ~spot_check:false in
      let warm, warm_hits, warm_misses = pass ~spot_check:true in
      Alcotest.(check bool) "cold pass computed points" true (cold_misses > 0);
      Alcotest.(check int) "warm misses" 0 warm_misses;
      Alcotest.(check int) "warm hits = cold misses" cold_misses warm_hits;
      Alcotest.(check (list string)) "byte-identical tables" cold warm)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_cache_corrupted_line_recomputed () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let evals = ref 0 in
      let ctx () = Sweep.ctx ~cache:(Cache.create ~dir) () in
      let cold, _ =
        Sweep.run_rows (ctx ()) ~experiment:"EC" (counting_grid evals)
      in
      (* Truncate the first stored line mid-JSON: that entry must load
         as absent and recompute; the other five still hit. *)
      let path = Filename.concat dir "EC.jsonl" in
      let lines = String.split_on_char '\n' (read_file path) in
      let mangled =
        match lines with
        | first :: rest ->
            String.concat "\n"
              (String.sub first 0 (String.length first / 2) :: rest)
        | [] -> assert false
      in
      write_file path mangled;
      let warm, ws =
        Sweep.run_rows (ctx ()) ~experiment:"EC" (counting_grid evals)
      in
      Alcotest.(check int) "one miss" 1 ws.misses;
      Alcotest.(check int) "five hits" 5 ws.hits;
      Alcotest.(check (list (list string))) "recomputed identically" cold warm)

let test_cache_stale_config_tag_misses () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let evals = ref 0 in
      let ctx () = Sweep.ctx ~cache:(Cache.create ~dir) () in
      let _ =
        Sweep.run_rows (ctx ()) ~experiment:"EC" (counting_grid evals)
      in
      (* A different engine-config tag keys differently: nothing from
         the old configuration may be served. *)
      let _, ws =
        Sweep.run_rows ~config_tag:"engine:other" (ctx ()) ~experiment:"EC"
          (counting_grid evals)
      in
      Alcotest.(check int) "all miss under new tag" 6 ws.misses;
      Alcotest.(check int) "re-evaluated" 12 !evals)

let test_spot_check_catches_tampering () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let point () =
        Sweep.rows_point ~name:"only" (fun ~rng:_ -> [ [ "sentinel" ] ])
      in
      let _ =
        Sweep.run_rows
          (Sweep.ctx ~cache:(Cache.create ~dir) ())
          ~experiment:"ET" [ point () ]
      in
      (* Tamper with the stored value - still well-formed rows, wrong
         content. The spot check must refuse to serve it. *)
      let path = Filename.concat dir "ET.jsonl" in
      let replace_all ~sub ~by s =
        let b = Buffer.create (String.length s) in
        let n = String.length s and m = String.length sub in
        let i = ref 0 in
        while !i < n do
          if !i + m <= n && String.sub s !i m = sub then begin
            Buffer.add_string b by;
            i := !i + m
          end
          else begin
            Buffer.add_char b s.[!i];
            incr i
          end
        done;
        Buffer.contents b
      in
      write_file path
        (replace_all ~sub:"sentinel" ~by:"tampered" (read_file path));
      Alcotest.check_raises "mismatch raised"
        (Sweep.Cache_mismatch { experiment = "ET"; point = "only" })
        (fun () ->
          ignore
            (Sweep.run_rows
               (Sweep.ctx ~cache:(Cache.create ~dir) ~spot_check:true ())
               ~experiment:"ET" [ point () ])))

let test_summarize_and_clear () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let evals = ref 0 in
      let _ =
        Sweep.run_rows
          (Sweep.ctx ~cache:(Cache.create ~dir) ())
          ~experiment:"EC" (counting_grid evals)
      in
      let s = Cache.summarize ~dir in
      Alcotest.(check int) "entries" 6 s.entries;
      Alcotest.(check (list (pair string int))) "namespaces" [ ("EC", 6) ]
        s.namespaces;
      Alcotest.(check bool) "bytes counted" true (s.bytes > 0);
      Alcotest.(check int) "one file cleared" 1 (Cache.clear ~dir);
      Alcotest.(check int) "empty after clear" 0 (Cache.summarize ~dir).entries)

let suite =
  [
    Helpers.qcheck prop_jobs_independent;
    Alcotest.test_case "experiment grids jobs-independent" `Quick
      test_experiment_grids_job_independent;
    Alcotest.test_case "duplicate names rejected" `Quick
      test_duplicate_point_names_rejected;
    Alcotest.test_case "cache cold then warm identical" `Quick
      test_cache_cold_then_warm_identical;
    Alcotest.test_case "grid experiments cold then warm identical" `Quick
      test_grid_experiments_cold_then_warm;
    Alcotest.test_case "corrupted line recomputed" `Quick
      test_cache_corrupted_line_recomputed;
    Alcotest.test_case "stale config tag misses" `Quick
      test_cache_stale_config_tag_misses;
    Alcotest.test_case "spot check catches tampering" `Quick
      test_spot_check_catches_tampering;
    Alcotest.test_case "summarize and clear" `Quick test_summarize_and_clear;
  ]
