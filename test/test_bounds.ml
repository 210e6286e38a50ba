(* Tests for the bounds libraries: tower arithmetic, log*, the
   Section 3 lower-bound evaluators, the influence recurrences, and the
   Section 4 closed forms. *)

module Tow = Countq_bounds.Tow
module Lower = Countq_bounds.Lower
module Influence = Countq_bounds.Influence
module Tbounds = Countq_tsp.Tbounds

let test_tow_small () =
  List.iter
    (fun (j, expected) ->
      match Tow.tow j with
      | Tow.Finite v ->
          Alcotest.(check (float 1e-6)) (Printf.sprintf "tow %d" j) expected v
      | Tow.Huge _ -> Alcotest.fail "should be finite")
    [ (0, 1.); (1, 2.); (2, 4.); (3, 16.); (4, 65536.) ]

let test_tow_huge () =
  match Tow.tow 5 with
  | Tow.Huge _ -> ()
  | Tow.Finite v ->
      (* 2^65536 overflows float; allow Finite infinity only if the
         representation chose to keep it. *)
      Alcotest.(check bool) "tow 5 beyond float" true (v = infinity)

let test_tow_exceeds () =
  Alcotest.(check bool) "tow 4 > 65535" true (Tow.tow_exceeds 4 65535.);
  Alcotest.(check bool) "tow 4 > 65536 is false" false (Tow.tow_exceeds 4 65536.);
  Alcotest.(check bool) "tow 6 > 1e300" true (Tow.tow_exceeds 6 1e300)

let test_log_star () =
  List.iter
    (fun (k, expected) ->
      Alcotest.(check int) (Printf.sprintf "log* %d" k) expected
        (Tow.log_star_int k))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (16, 3); (17, 4); (65536, 4); (65537, 5) ]

let test_min_t_with_tow_ge () =
  (* smallest t with tow(2t) >= k. tow 0 = 1, tow 2 = 4, tow 4 = 65536. *)
  List.iter
    (fun (k, expected) ->
      Alcotest.(check int) (Printf.sprintf "k=%d" k) expected
        (Tow.min_t_with_tow_ge k))
    [ (1, 0); (2, 1); (4, 1); (5, 2); (65536, 2); (65537, 3) ]

let test_latency_floor () =
  Alcotest.(check int) "k=0" 0 (Lower.latency_floor_count 0);
  Alcotest.(check int) "k=1" 0 (Lower.latency_floor_count 1);
  Alcotest.(check int) "k=4" 1 (Lower.latency_floor_count 4);
  Alcotest.(check int) "k=1000" 2 (Lower.latency_floor_count 1000)

let test_contention_lb_monotone () =
  let prev = ref 0 in
  List.iter
    (fun n ->
      let lb = Lower.contention_lb n in
      Alcotest.(check bool) "monotone" true (lb >= !prev);
      Alcotest.(check bool) "at least linear-ish" true (lb >= n - 4);
      prev := lb)
    [ 4; 16; 64; 256; 1024 ]

let test_contention_lb_value () =
  (* n = 5: floors are k=1:0, k=2:1, k=3:1, k=4:1, k=5:2 => 5. *)
  Alcotest.(check int) "n=5" 5 (Lower.contention_lb 5)

let test_diameter_lb () =
  Alcotest.(check int) "alpha=10" 15 (Lower.diameter_lb ~diameter:10);
  Alcotest.(check int) "alpha=0" 0 (Lower.diameter_lb ~diameter:0);
  Alcotest.(check int) "alpha=1" 0 (Lower.diameter_lb ~diameter:1);
  Alcotest.(check int) "alpha=2" 1 (Lower.diameter_lb ~diameter:2)

let test_latency_floor_diameter () =
  Alcotest.(check int) "far count" 5
    (Lower.latency_floor_diameter ~diameter:20 ~n:100 ~k:95);
  Alcotest.(check int) "low count clamps" 0
    (Lower.latency_floor_diameter ~diameter:20 ~n:100 ~k:50)

let test_best_lb () =
  let n = 100 in
  Alcotest.(check int) "diameter wins on the list"
    (Lower.diameter_lb ~diameter:99)
    (Lower.best_lb ~n ~diameter:99);
  Alcotest.(check int) "contention wins on K_n" (Lower.contention_lb n)
    (Lower.best_lb ~n ~diameter:1)

let test_influence_table_envelope () =
  List.iter
    (fun (r : Influence.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "within envelope at t=%d" r.t)
        true r.within_envelope)
    (Influence.table ~rounds:10)

let test_influence_base_case () =
  match Influence.table ~rounds:0 with
  | [ r ] ->
      Alcotest.(check (float 0.)) "a0" 1. r.a;
      Alcotest.(check (float 0.)) "b0" 1. r.b
  | _ -> Alcotest.fail "single row"

let test_rounds_to_reach () =
  Alcotest.(check int) "already there" 0 (Influence.rounds_to_reach 1.);
  let t = Influence.rounds_to_reach 1e6 in
  Alcotest.(check bool) "a few rounds suffice" true (t >= 3 && t <= 5)

let test_f_recurrence () =
  Alcotest.(check int) "f 0" 0 (Tbounds.f 0);
  Alcotest.(check int) "f 1" 2 (Tbounds.f 1);
  Alcotest.(check int) "f 2" 8 (Tbounds.f 2);
  Alcotest.(check int) "f 3" 22 (Tbounds.f 3)

let test_f_bound_lemma48 () =
  for k = 0 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "f %d < 2^(k+2)" k)
      true
      (Tbounds.f k < Tbounds.f_bound k)
  done

let test_log2_ceil () =
  List.iter
    (fun (k, e) ->
      Alcotest.(check int) (Printf.sprintf "lg %d" k) e (Tbounds.log2_ceil k))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (1024, 10); (1025, 11) ]

let test_perfect_binary_bound () =
  (* d = floor(log2 15) = 3: 2*3*4 + 8*15 = 144. *)
  Alcotest.(check int) "n=15" 144 (Tbounds.perfect_binary_bound ~n:15)

let test_rosenkrantz_ratio () =
  Alcotest.(check (float 1e-9)) "k=1" 1.0 (Tbounds.rosenkrantz_ratio 1);
  Alcotest.(check (float 1e-9)) "k=8" 2.0 (Tbounds.rosenkrantz_ratio 8);
  Alcotest.(check (float 1e-9)) "k=9" 2.5 (Tbounds.rosenkrantz_ratio 9);
  Alcotest.(check (float 1e-9)) "path k=1" 2.0 (Tbounds.nn_path_ratio 1);
  Alcotest.(check (float 1e-9)) "path k=10" 5.0 (Tbounds.nn_path_ratio 10)

(* The NN path from a fixed start visits k + 1 points, so the factor is
   ceil(lg(k+1)) + 1: at a power of two k it is one more than
   ceil(lg k) + 1 would give. *)
let test_constant_degree_tree_bound () =
  let b k = Tbounds.constant_degree_tree_bound ~n:64 ~k in
  Alcotest.(check int) "k=32 (power of two)" 448 (b 32);
  Alcotest.(check int) "k=31" 384 (b 31);
  Alcotest.(check int) "k=1" 128 (b 1);
  Alcotest.(check int) "k=0" 0 (b 0)

let prop_log_star_inverse_of_tow =
  QCheck2.Test.make ~name:"log* (tow j) = j for small towers" ~count:5
    QCheck2.Gen.(int_range 0 4)
    (fun j ->
      match Tow.tow j with
      | Tow.Finite v -> Tow.log_star v = j
      | Tow.Huge _ -> true)

let prop_latency_floor_monotone =
  QCheck2.Test.make ~name:"latency floor is monotone in the count" ~count:100
    QCheck2.Gen.(int_range 1 100_000)
    (fun k -> Lower.latency_floor_count k <= Lower.latency_floor_count (k + 1))

let suite =
  [
    Alcotest.test_case "tow small" `Quick test_tow_small;
    Alcotest.test_case "tow huge" `Quick test_tow_huge;
    Alcotest.test_case "tow exceeds" `Quick test_tow_exceeds;
    Alcotest.test_case "log*" `Quick test_log_star;
    Alcotest.test_case "min t with tow >= k" `Quick test_min_t_with_tow_ge;
    Alcotest.test_case "latency floor" `Quick test_latency_floor;
    Alcotest.test_case "contention lb monotone" `Quick test_contention_lb_monotone;
    Alcotest.test_case "contention lb value" `Quick test_contention_lb_value;
    Alcotest.test_case "diameter lb" `Quick test_diameter_lb;
    Alcotest.test_case "diameter latency floor" `Quick test_latency_floor_diameter;
    Alcotest.test_case "best lb" `Quick test_best_lb;
    Alcotest.test_case "influence envelope" `Quick test_influence_table_envelope;
    Alcotest.test_case "influence base case" `Quick test_influence_base_case;
    Alcotest.test_case "rounds to reach" `Quick test_rounds_to_reach;
    Alcotest.test_case "f recurrence" `Quick test_f_recurrence;
    Alcotest.test_case "f bound (Lemma 4.8)" `Quick test_f_bound_lemma48;
    Alcotest.test_case "log2 ceil" `Quick test_log2_ceil;
    Alcotest.test_case "perfect binary bound" `Quick test_perfect_binary_bound;
    Alcotest.test_case "rosenkrantz ratio" `Quick test_rosenkrantz_ratio;
    Alcotest.test_case "constant-degree tree bound" `Quick
      test_constant_degree_tree_bound;
    Helpers.qcheck prop_log_star_inverse_of_tow;
    Helpers.qcheck prop_latency_floor_monotone;
  ]
