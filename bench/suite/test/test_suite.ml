(* Unit tests for the benchmark suite: the statistics against values
   computed by hand (and matching Python's statistics.quantiles), the
   verdict's bound boundary and unusable inputs, and the registry
   against BENCHMARK.json. *)

module Json = Countq_util.Json
module Sample = Bench_suite.Sample
module Registry = Bench_suite.Registry
module Report = Bench_suite.Report

let close = Alcotest.float 1e-12

let quartiles xs =
  match Sample.summarize xs with
  | Some s -> (s.q1, s.median, s.q3)
  | None -> Alcotest.fail "unexpectedly unusable"

let check_quartiles name xs (q1, q2, q3) =
  let a1, a2, a3 = quartiles xs in
  Alcotest.check close (name ^ " q1") q1 a1;
  Alcotest.check close (name ^ " median") q2 a2;
  Alcotest.check close (name ^ " q3") q3 a3

(* Positions i(n+1)/4: for n = 5 they are 1.5, 3, 4.5 (1-based). *)
let test_odd () =
  check_quartiles "1..5" [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3., 4.5);
  Alcotest.(check (option (float 0.))) "median" (Some 2.)
    (Sample.median [ 3.; 1.; 2. ])

(* n = 4: positions 1.25, 2.5, 3.75. *)
let test_even () =
  check_quartiles "1..4" [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  match Sample.summarize [ 4.; 1.; 3.; 2. ] with
  | Some s ->
      Alcotest.(check int) "n" 4 s.n;
      Alcotest.check close "iqr" 2.5 s.iqr
  | None -> Alcotest.fail "unusable"

let test_ties () =
  check_quartiles "2,2,2,5" [ 2.; 5.; 2.; 2. ] (2., 2., 4.25);
  check_quartiles "1,1,2,3,3,3,9" [ 3.; 1.; 9.; 3.; 2.; 1.; 3. ] (1., 3., 3.)

(* Two samples extrapolate past the range, as Python's do; one sample
   is its own quartiles. *)
let test_small () =
  check_quartiles "1,3" [ 3.; 1. ] (0.5, 2., 3.5);
  check_quartiles "7" [ 7. ] (7., 7., 7.)

let test_unusable_samples () =
  let none name xs =
    Alcotest.(check bool) name true (Sample.summarize xs = None)
  in
  none "empty" [];
  none "nan" [ 1.; Float.nan; 2. ];
  none "infinity" [ 1.; Float.infinity ];
  none "negative infinity" [ Float.neg_infinity ]

let verdict =
  Alcotest.testable
    (fun f v -> Format.pp_print_string f (Sample.verdict_label v))
    ( = )

let v ?(better = Sample.Lower) ?(bound = 0.1) ?(floor = 0.) base cand =
  Sample.verdict ~better ~bound ~floor ~base ~cand

let test_bound_boundary () =
  let base = [ 100.; 100.; 100. ] in
  Alcotest.check verdict "exactly at the bound is same" Sample.Same
    (v base [ 110.; 110.; 110. ]);
  Alcotest.check verdict "past the bound is worse" Sample.Worse
    (v base [ 110.5; 110.5; 110.5 ]);
  Alcotest.check verdict "past the bound the other way is better"
    Sample.Better (v base [ 89.5; 89.5; 89.5 ]);
  Alcotest.check verdict "higher-better drop is worse" Sample.Worse
    (v ~better:Higher base [ 89.; 89.; 89. ]);
  Alcotest.check verdict "higher-better at the bound is same" Sample.Same
    (v ~better:Higher base [ 90.; 90.; 90. ])

let test_floor () =
  Alcotest.check verdict "floor absorbs a small absolute change" Sample.Same
    (v ~floor:0.01 [ 0.001; 0.001 ] [ 0.005; 0.005 ]);
  Alcotest.check verdict "beyond the floor is worse" Sample.Worse
    (v ~floor:0.01 [ 0.001; 0.001 ] [ 0.02; 0.02 ])

let test_unresolved () =
  (* IQR of the base is 30 at median 100: wider than a 10% bound. *)
  let noisy = [ 70.; 85.; 100.; 115.; 130. ] in
  Alcotest.check verdict "spread wider than the bound" Sample.Unresolved
    (v noisy [ 100.; 101.; 99. ]);
  Alcotest.check verdict "unless every candidate beats every base sample"
    Sample.Better (v noisy [ 60.; 61.; 62. ])

let test_unusable_verdicts () =
  let unusable name r =
    Alcotest.(check bool) name true
      (match r with Sample.Unusable _ -> true | _ -> false)
  in
  unusable "nan in base" (v [ 1.; Float.nan ] [ 1. ]);
  unusable "infinity in candidate" (v [ 1. ] [ Float.infinity ]);
  unusable "missing candidate" (v [ 1. ] []);
  unusable "zero base" (v [ 0.; 0. ] [ 1.; 1. ]);
  unusable "negative base" (v [ -1. ] [ 1. ])

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: its format, and agreement with the registry.      *)

let benchmark =
  lazy
    (match
       Json.of_string
         (In_channel.with_open_text "../../../BENCHMARK.json"
            In_channel.input_all)
     with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %s" k

let str k j =
  match Json.to_str (field k j) with
  | Some s -> s
  | None -> Alcotest.failf "%s: not a string" k

let list k j =
  match Json.to_list (field k j) with
  | Some l -> l
  | None -> Alcotest.failf "%s: not a list" k

let keys = function Json.Obj kvs -> List.map fst kvs | _ -> []
let better_label = function Sample.Lower -> "lower" | Sample.Higher -> "higher"
let strings = Alcotest.(list string)

let test_top_level () =
  let b = Lazy.force benchmark in
  Alcotest.check strings "keys"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    (keys b);
  Alcotest.check strings "paths" [ "bench/suite" ]
    (List.filter_map Json.to_str (list "paths" b));
  match Json.to_int (field "run_seconds" b) with
  | Some s -> Alcotest.(check bool) "run_seconds in 1..60" true (s >= 1 && s <= 60)
  | None -> Alcotest.fail "run_seconds is not an integer"

let test_workloads () =
  let b = Lazy.force benchmark in
  let ws = list "workloads" b in
  Alcotest.(check bool) "2 to 8 workloads" true
    (List.length ws >= 2 && List.length ws <= 8);
  Alcotest.check strings "names, in order"
    (List.map (fun (w : Registry.workload) -> w.wname) Registry.workloads)
    (List.map (str "name") ws);
  Alcotest.check strings "whys"
    (List.map (fun (w : Registry.workload) -> w.why) Registry.workloads)
    (List.map (str "why") ws);
  List.iter
    (fun w ->
      Alcotest.check strings "workload keys" [ "name"; "why" ] (keys w);
      Alcotest.(check bool) "why fits one line" true
        (String.length (str "why" w) <= 200 && not (String.contains (str "why" w) '\n')))
    ws

let test_end_to_end () =
  let b = Lazy.force benchmark in
  let e = list "end_to_end" b in
  Alcotest.(check bool) "1 to 16 metrics" true
    (List.length e >= 1 && List.length e <= 16);
  List.iter2
    (fun (m : Registry.metric) j ->
      Alcotest.check strings "keys" [ "name"; "unit"; "better"; "bound" ] (keys j);
      Alcotest.(check string) "name" m.name (str "name" j);
      Alcotest.(check string) (m.name ^ " unit") m.unit (str "unit" j);
      Alcotest.(check string) (m.name ^ " better") (better_label m.better) (str "better" j);
      match field "bound" j with
      | Json.Float f ->
          Alcotest.(check (float 0.)) (m.name ^ " bound") m.bound f;
          Alcotest.(check bool) (m.name ^ " bound <= 0.25") true (f > 0. && f <= 0.25)
      | _ -> Alcotest.failf "%s: bound is not a number" m.name)
    Registry.end_to_end e;
  Alcotest.(check int) "same count" (List.length Registry.end_to_end) (List.length e);
  match Registry.find "setup_s" Registry.end_to_end with
  | Some s ->
      Alcotest.(check string) "setup_s unit" "s" s.unit;
      Alcotest.(check bool) "setup_s lower" true (s.better = Sample.Lower);
      Alcotest.(check bool) "setup_s has the largest bound" true
        (List.for_all (fun (m : Registry.metric) -> m.bound <= s.bound) Registry.end_to_end)
  | None -> Alcotest.fail "setup_s is not declared"

let test_per_layer () =
  let b = Lazy.force benchmark in
  let p = list "per_layer" b in
  Alcotest.(check bool) "1 to 128 metrics" true
    (List.length p >= 1 && List.length p <= 128);
  Alcotest.check strings "names"
    (List.map (fun (m : Registry.metric) -> m.name) Registry.per_layer)
    (List.map (str "name") p);
  List.iter2
    (fun (m : Registry.metric) j ->
      Alcotest.check strings "keys" [ "name"; "unit"; "better" ] (keys j);
      Alcotest.(check string) (m.name ^ " unit") m.unit (str "unit" j);
      Alcotest.(check string) (m.name ^ " better") (better_label m.better) (str "better" j))
    Registry.per_layer p

(* BENCHMARK.json's name rule: at most 64 of [A-Za-z0-9_.-], starting with
   a letter or digit. *)
let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let test_names () =
  let all =
    List.map (fun (w : Registry.workload) -> w.wname) Registry.workloads
    @ List.map
        (fun (m : Registry.metric) -> m.name)
        (Registry.end_to_end @ Registry.simulated @ Registry.per_layer)
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (valid_name n))
    all;
  Alcotest.(check int) "every name used once" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is rejected") false (valid_name n))
    [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun (w : Registry.workload) ->
      List.iter
        (fun s ->
          Alcotest.(check bool) (w.wname ^ " declares " ^ s) true
            (Registry.find s Registry.simulated <> None))
        w.simulated)
    Registry.workloads

(* ------------------------------------------------------------------ *)
(* What a workload emits, on synthetic reps.                           *)

let rep ?(layers = []) ?(sim = []) i =
  {
    Report.workload = "w";
    rep = i;
    traced = false;
    setup_s = 0.01;
    wall_s = 1. +. (0.01 *. float_of_int i);
    ops = 100;
    attempted = 100;
    failed = 0;
    peak_rss_mb = Some 50.;
    sim;
    fingerprint = "f";
    layers;
    self_times = [];
    spans = [];
    errors = [];
  }

let result (w : Registry.workload) ?(traced_layers = []) () =
  let sim = List.map (fun s -> (s, 1.)) w.simulated in
  {
    Report.name = w.wname;
    reps = List.init 3 (rep ~sim);
    traced_rep = Some { (rep ~sim ~layers:traced_layers 3) with traced = true };
    errors = [];
  }

let test_emits () =
  List.iter
    (fun (w : Registry.workload) ->
      let res = result w () in
      Alcotest.check strings (w.wname ^ " end-to-end")
        (List.map (fun (m : Registry.metric) -> m.name) Registry.end_to_end)
        (List.map (fun ((m : Registry.metric), _) -> m.name) (Report.e2e_medians res));
      Alcotest.check strings (w.wname ^ " per-layer")
        (List.map (fun (m : Registry.metric) -> m.name) Registry.per_layer)
        (List.map (fun ((m : Registry.metric), _) -> m.name) (Report.layer_values res));
      Alcotest.check strings (w.wname ^ " is correct") [] (Report.check res))
    Registry.workloads

let test_check_flags () =
  let w = List.hd Registry.workloads in
  let flagged name res =
    Alcotest.(check bool) name true (Report.check res <> [])
  in
  flagged "undeclared per-layer name"
    (result w ~traced_layers:[ ("engine.bogus", 1.) ] ());
  let res = result w () in
  flagged "simulated outputs differ between reps"
    {
      res with
      reps = res.reps @ [ { (List.hd res.reps) with rep = 9; fingerprint = "g" } ];
    };
  flagged "undeclared simulated metrics" { res with reps = [ rep 0 ] };
  Alcotest.(check bool) "missing peak RSS is left out, not reported as 0" false
    (List.exists
       (fun ((m : Registry.metric), _) -> m.name = "peak_rss_mb")
       (Report.e2e_medians
          {
            res with
            reps = List.map (fun r -> { r with Report.peak_rss_mb = None }) res.reps;
          }))

let () =
  Alcotest.run "bench-suite"
    [
      ( "sample",
        [
          Alcotest.test_case "quartiles, odd count" `Quick test_odd;
          Alcotest.test_case "quartiles, even count" `Quick test_even;
          Alcotest.test_case "quartiles, ties" `Quick test_ties;
          Alcotest.test_case "quartiles, one and two samples" `Quick test_small;
          Alcotest.test_case "NaN and infinity are unusable" `Quick test_unusable_samples;
          Alcotest.test_case "verdict at the bound boundary" `Quick test_bound_boundary;
          Alcotest.test_case "verdict with an absolute floor" `Quick test_floor;
          Alcotest.test_case "spread wider than the bound" `Quick test_unresolved;
          Alcotest.test_case "unusable verdicts" `Quick test_unusable_verdicts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "BENCHMARK.json top level" `Quick test_top_level;
          Alcotest.test_case "workloads match" `Quick test_workloads;
          Alcotest.test_case "end-to-end metrics match" `Quick test_end_to_end;
          Alcotest.test_case "per-layer metrics match" `Quick test_per_layer;
          Alcotest.test_case "names and caps" `Quick test_names;
          Alcotest.test_case "each workload emits its metrics" `Quick test_emits;
          Alcotest.test_case "check flags bad reps" `Quick test_check_flags;
        ] );
    ]
