(* Tests for the core facade: tables, uniform drivers, and the
   experiment registry (quick mode). *)

module Gen = Countq_topology.Gen
module Table = Countq.Table
module Run = Countq.Run
module Experiments = Countq.Experiments

(* ---- tables ---- *)

let sample_table () =
  Table.make ~id:"T" ~title:"demo" ~paper_ref:"none"
    ~headers:[ "a"; "b" ]
    ~notes:[ "a note" ]
    [ [ "1"; "2" ]; [ "30"; "four" ] ]

let test_table_shape_validated () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.make T: row 0 has 1 cells, expected 2") (fun () ->
      ignore
        (Table.make ~id:"T" ~title:"t" ~paper_ref:"r" ~headers:[ "a"; "b" ]
           [ [ "only" ] ]))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_table_render_contains_cells () =
  let s = Format.asprintf "%a" Table.pp (sample_table ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " present") true (contains_substring s frag))
    [ "demo"; "four"; "a note" ]

let test_table_csv () =
  let csv = Table.to_csv (sample_table ()) in
  Alcotest.(check string) "csv" "a,b\n1,2\n30,four\n" csv

let test_table_csv_quoting () =
  let t =
    Table.make ~id:"Q" ~title:"q" ~paper_ref:"r" ~headers:[ "x" ]
      [ [ "has,comma" ]; [ "has\"quote" ] ]
  in
  Alcotest.(check string) "quoted" "x\n\"has,comma\"\n\"has\"\"quote\"\n"
    (Table.to_csv t)

let test_table_markdown () =
  let md = Table.to_markdown (sample_table ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " present") true (contains_substring md frag))
    [ "## T — demo"; "| a | b |"; "|---|---|"; "| 30 | four |"; "- a note" ]

let test_table_markdown_escapes_pipes () =
  let t =
    Table.make ~id:"P" ~title:"p" ~paper_ref:"r" ~headers:[ "x" ]
      [ [ "a|b" ] ]
  in
  Alcotest.(check bool) "escaped" true
    (contains_substring (Table.to_markdown t) "a\\|b")

(* Code points, not bytes: the display width of a UTF-8 line. *)
let utf8_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let test_table_utf8_alignment () =
  let t =
    Table.make ~id:"U" ~title:"u" ~paper_ref:"r" ~headers:[ "bound"; "n" ]
      [ [ "⊥"; "1" ]; [ "Θ(log n)"; "22" ]; [ "ok"; "333" ] ]
  in
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Table.pp t) in
  (* The header, the rule and the three rows: the lines after the
     blank one under the banner, up to the end of the table. *)
  let rec body = function "" :: rest -> rest | _ :: rest -> body rest | [] -> [] in
  let rows = List.filteri (fun i _ -> i < 5) (body lines) in
  Alcotest.(check int) "five table lines" 5 (List.length rows);
  let widths = List.map utf8_width rows in
  Alcotest.(check (list int)) "every line equally wide"
    (List.map (fun _ -> List.hd widths) widths)
    widths;
  Alcotest.(check string) "markdown keeps the raw cells"
    "## U — u\n\n*Reproduces: r*\n\n| bound | n |\n|---|---|\n| ⊥ | 1 |\n\
     | Θ(log n) | 22 |\n| ok | 333 |\n"
    (Table.to_markdown t)

let test_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.142);
  Alcotest.(check string) "float decimals" "3.1416"
    (Table.cell_float ~decimals:4 3.14159);
  Alcotest.(check string) "true" "yes" (Table.cell_bool true);
  Alcotest.(check string) "false" "NO" (Table.cell_bool false)

(* ---- drivers ---- *)

let test_counting_driver_all_protocols () =
  let g = Gen.square_mesh 4 in
  let requests = Helpers.all_nodes 16 in
  List.iter
    (fun protocol ->
      let s = Run.counting ~graph:g ~protocol ~requests () in
      Alcotest.(check bool)
        (s.protocol ^ " valid")
        true s.valid;
      Alcotest.(check int) "k" 16 s.k;
      Alcotest.(check int) "normalisation"
        (s.total_delay * s.expansion)
        s.normalized_delay)
    [ `Central; `Combining; `Diffracting; `Funnel; `Network; `Sweep ]

let test_queuing_driver_all_protocols () =
  let g = Gen.square_mesh 4 in
  let requests = [ 2; 7; 9; 14 ] in
  List.iter
    (fun protocol ->
      let s = Run.queuing ~graph:g ~protocol ~requests () in
      Alcotest.(check bool)
        (s.protocol ^ " valid")
        true s.valid;
      Alcotest.(check int) "k" 4 s.k)
    [ `Arrow; `Arrow_notify; `Central; `Token_ring ]

let test_best_counting_picks_minimum () =
  let g = Gen.complete 32 in
  let requests = Helpers.all_nodes 32 in
  let best = Run.best_counting ~graph:g ~requests () in
  List.iter
    (fun protocol ->
      let s = Run.counting ~graph:g ~protocol ~requests () in
      Alcotest.(check bool)
        (s.protocol ^ " not cheaper than best")
        true
        (s.normalized_delay >= best.normalized_delay))
    [ `Central; `Combining; `Network; `Sweep ]

let test_best_counting_covers_balancers () =
  (* The balancer protocols run inside best_counting at the adaptive
     width; rerunning them standalone at that width must not beat it. *)
  let g = Gen.complete 32 in
  let requests = Helpers.all_nodes 32 in
  let best = Run.best_counting ~graph:g ~requests () in
  let width =
    Countq_counting.Funnel.adaptive_width ~n:32 ~concurrency:32
  in
  List.iter
    (fun protocol ->
      let s = Run.counting ~width ~graph:g ~protocol ~requests () in
      Alcotest.(check bool)
        (s.protocol ^ " not cheaper than best")
        true
        (s.normalized_delay >= best.normalized_delay))
    [ `Diffracting; `Funnel ]

(* ---- experiments ---- *)

let test_registry_complete () =
  Alcotest.(check int) "32 experiments" 32 (List.length Experiments.all);
  List.iteri
    (fun i (s : Experiments.spec) ->
      Alcotest.(check string) "ids in order"
        (Printf.sprintf "E%d" (i + 1))
        s.id)
    Experiments.all

let test_find () =
  (match Experiments.find "e9" with
  | Some s -> Alcotest.(check string) "case-insensitive" "E9" s.id
  | None -> Alcotest.fail "E9 must exist");
  Alcotest.(check bool) "unknown" true (Experiments.find "E99" = None)

let test_all_experiments_quick () =
  List.iter
    (fun (s : Experiments.spec) ->
      let t = s.run ~quick:true () in
      Alcotest.(check bool) (s.id ^ " has rows") true (List.length t.rows > 0);
      Alcotest.(check string) (s.id ^ " id matches") s.id t.id)
    Experiments.all

let test_experiment_checks_pass () =
  (* Every yes/NO cell in the quick tables must read "yes": these cells
     encode the paper's inequalities. One exception: E27's
     queue/arrow-static rows are the sacrificial baseline — the static
     arrow losing operations under churn is the experiment's claim, so
     a NO there is the expected shape (test_dynamic.ml pins it) while
     a NO on any surviving protocol is still a failure. *)
  List.iter
    (fun (s : Experiments.spec) ->
      let t = s.run ~quick:true () in
      List.iter
        (fun row ->
          if not (s.id = "E27" && List.mem "queue/arrow-static" row) then
            List.iter
              (fun cell ->
                if cell = "NO" then
                  Alcotest.fail
                    (Printf.sprintf "%s has a failing check cell" s.id))
              row)
        t.rows)
    Experiments.all

let test_experiments_deterministic () =
  (* Every table is a pure function of the committed seeds: rendering
     an experiment twice must give byte-identical output. *)
  List.iter
    (fun id ->
      match Experiments.find id with
      | None -> Alcotest.fail (id ^ " missing")
      | Some s ->
          let once = Format.asprintf "%a" Table.pp (s.run ~quick:true ()) in
          let again = Format.asprintf "%a" Table.pp (s.run ~quick:true ()) in
          Alcotest.(check string) (id ^ " deterministic") once again)
    [ "E5"; "E9"; "E12"; "E18" ]

let suite =
  [
    Alcotest.test_case "table shape validated" `Quick test_table_shape_validated;
    Alcotest.test_case "experiments deterministic" `Quick
      test_experiments_deterministic;
    Alcotest.test_case "table render" `Quick test_table_render_contains_cells;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "table csv quoting" `Quick test_table_csv_quoting;
    Alcotest.test_case "table markdown" `Quick test_table_markdown;
    Alcotest.test_case "table markdown pipes" `Quick test_table_markdown_escapes_pipes;
    Alcotest.test_case "table utf-8 alignment" `Quick test_table_utf8_alignment;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "counting drivers" `Quick test_counting_driver_all_protocols;
    Alcotest.test_case "queuing drivers" `Quick test_queuing_driver_all_protocols;
    Alcotest.test_case "best counting" `Quick test_best_counting_picks_minimum;
    Alcotest.test_case "best counting covers balancers" `Quick
      test_best_counting_covers_balancers;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "all experiments quick" `Quick test_all_experiments_quick;
    Alcotest.test_case "experiment checks pass" `Quick test_experiment_checks_pass;
  ]
