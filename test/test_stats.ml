(* Tests for Countq_util.Stats. *)

module Stats = Countq_util.Stats

let force = function
  | Some v -> v
  | None -> Alcotest.fail "unexpected None from Stats"

let test_single () =
  let s = force (Stats.summarize [ 7 ]) in
  Alcotest.(check int) "count" 1 s.count;
  Alcotest.(check (float 0.)) "mean" 7. s.mean;
  Alcotest.(check (float 0.)) "median" 7. s.median;
  Alcotest.(check int) "min" 7 s.min;
  Alcotest.(check int) "max" 7 s.max;
  Alcotest.(check (float 0.)) "stddev" 0. s.stddev

let test_basic () =
  let s = force (Stats.summarize [ 4; 1; 3; 2 ]) in
  Alcotest.(check int) "total" 10 s.total;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "median" 2.5 s.median;
  Alcotest.(check int) "min" 1 s.min;
  Alcotest.(check int) "max" 4 s.max

let test_stddev () =
  let s = force (Stats.summarize [ 2; 4; 4; 4; 5; 5; 7; 9 ]) in
  Alcotest.(check (float 1e-9)) "classic example" 2.0 s.stddev

let test_percentile_interpolation () =
  let sorted = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "p0" 10. (force (Stats.percentile sorted 0.));
  Alcotest.(check (float 1e-9)) "p100" 40. (force (Stats.percentile sorted 1.));
  Alcotest.(check (float 1e-9))
    "p50 interpolates" 25.
    (force (Stats.percentile sorted 0.5))

let test_percentile_validation () =
  Alcotest.(check (option (float 0.)))
    "empty is None" None
    (Stats.percentile [||] 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.percentile: q outside [0, 1]") (fun () ->
      ignore (Stats.percentile [| 1. |] 1.5));
  Alcotest.check_raises "q out of range, empty input"
    (Invalid_argument "Stats.percentile: q outside [0, 1]") (fun () ->
      ignore (Stats.percentile_ints [] 1.5))

let test_empty_total () =
  (* Empty inputs are a normal outcome (every span stranded), not an
     error: the whole Stats surface is total on them. *)
  Alcotest.(check bool) "summarize empty" true (Stats.summarize [] = None);
  Alcotest.(check (option (float 0.)))
    "percentile_ints empty" None
    (Stats.percentile_ints [] 0.99);
  (* A zero-completion run used to crash the timeline's histogram on
     [List.fold_left min max_int []]. *)
  Alcotest.(check bool) "histogram empty" true (Stats.histogram [] = []);
  Alcotest.(check string)
    "render_histogram empty" ""
    (Stats.render_histogram (Stats.histogram ~bins:7 []))

let test_percentile_ints () =
  let samples = [ 40; 10; 30; 20 ] in
  Alcotest.(check (float 1e-9)) "p0" 10. (force (Stats.percentile_ints samples 0.));
  Alcotest.(check (float 1e-9)) "p50" 25. (force (Stats.percentile_ints samples 0.5));
  Alcotest.(check (float 1e-9)) "p100" 40. (force (Stats.percentile_ints samples 1.))

let test_histogram_small_span () =
  (* Span smaller than the bin budget: one bucket per distinct value. *)
  match Stats.histogram ~bins:10 [ 3; 3; 4 ] with
  | [ { lo = 3; hi = 3; bcount = 2 }; { lo = 4; hi = 4; bcount = 1 } ] -> ()
  | bs ->
      Alcotest.failf "unexpected buckets: %s"
        (String.concat ";"
           (List.map
              (fun (b : Stats.bucket) ->
                Printf.sprintf "{%d,%d,%d}" b.lo b.hi b.bcount)
              bs))

let prop_histogram_partitions =
  QCheck2.Test.make ~name:"histogram partitions the range, counts conserve"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (int_range (-100) 100))
        (int_range 1 12))
    (fun (samples, bins) ->
      let bs = Stats.histogram ~bins samples in
      let lo = List.fold_left min max_int samples in
      let hi = List.fold_left max min_int samples in
      let rec contiguous = function
        | (a : Stats.bucket) :: (b : Stats.bucket) :: rest ->
            a.hi + 1 = b.lo && contiguous (b :: rest)
        | _ -> true
      in
      List.length bs <= max bins (hi - lo + 1)
      && (List.hd bs).lo = lo
      && (List.nth bs (List.length bs - 1)).hi = hi
      && contiguous bs
      && List.fold_left (fun acc (b : Stats.bucket) -> acc + b.bcount) 0 bs
         = List.length samples
      && List.for_all
           (fun (b : Stats.bucket) ->
             b.bcount
             = List.length
                 (List.filter (fun x -> x >= b.lo && x <= b.hi) samples))
           bs)

let test_render_histogram_golden () =
  let rendered =
    Stats.render_histogram ~width:4 (Stats.histogram ~bins:2 [ 0; 0; 1 ])
  in
  let expected =
    Printf.sprintf "%6d..%-6d %6d %s\n%6d..%-6d %6d %s\n" 0 0 2 "####" 1 1 1
      "##"
  in
  Alcotest.(check string) "golden" expected rendered

let check_buckets name ~expect_n ~samples ~bins =
  let bs = Stats.histogram ~bins samples in
  let lo = List.fold_left min max_int samples in
  let hi = List.fold_left max min_int samples in
  Alcotest.(check int) (name ^ ": bucket count") expect_n (List.length bs);
  Alcotest.(check int) (name ^ ": first lo") lo (List.hd bs).lo;
  Alcotest.(check int)
    (name ^ ": last hi")
    hi
    (List.nth bs (List.length bs - 1)).hi;
  Alcotest.(check int)
    (name ^ ": counts conserve")
    (List.length samples)
    (List.fold_left (fun acc (b : Stats.bucket) -> acc + b.bcount) 0 bs);
  let rec contiguous = function
    | (a : Stats.bucket) :: (b : Stats.bucket) :: rest ->
        Alcotest.(check int) (name ^ ": contiguous") (a.hi + 1) b.lo;
        contiguous (b :: rest)
    | _ -> ()
  in
  contiguous bs;
  bs

let test_histogram_single_value () =
  (* All-equal samples: span 1, so exactly one bucket regardless of the
     bin budget. *)
  match check_buckets "single" ~expect_n:1 ~samples:[ 5; 5; 5 ] ~bins:10 with
  | [ { lo = 5; hi = 5; bcount = 3 } ] -> ()
  | _ -> Alcotest.fail "single-value histogram"

let test_histogram_bins_exceed_span () =
  (* bins > span: one bucket per value in the range, including the
     empty middle one. *)
  match
    check_buckets "bins>span" ~expect_n:3 ~samples:[ 7; 9; 9 ] ~bins:100
  with
  | [
      { lo = 7; hi = 7; bcount = 1 };
      { lo = 8; hi = 8; bcount = 0 };
      { lo = 9; hi = 9; bcount = 2 };
    ] ->
      ()
  | _ -> Alcotest.fail "bins-exceed-span histogram"

let test_histogram_extreme_span () =
  (* min_int and max_int together: the span [hi - lo + 1] does not fit
     a native int, the buckets must still partition exactly. *)
  let bs =
    check_buckets "extreme" ~expect_n:4
      ~samples:[ min_int; -1; 0; max_int ]
      ~bins:4
  in
  List.iter
    (fun (b : Stats.bucket) ->
      Alcotest.(check bool) "extreme: bounds ordered" true (b.lo <= b.hi))
    bs;
  (* Width of each bucket is span/4 = 2^61 exactly: check via the
     difference, which fits an int. *)
  List.iter
    (fun (b : Stats.bucket) ->
      Alcotest.(check int) "extreme: width" (1 lsl 61) (b.hi - b.lo + 1))
    bs

let test_histogram_extreme_span_remainder () =
  (* A full-range span minus a little, with bins that do not divide it:
     the first [span mod bins] buckets are one wider. *)
  let bs =
    check_buckets "extreme-rem" ~expect_n:3
      ~samples:[ min_int + 1; max_int ]
      ~bins:3
  in
  let widths = List.map (fun (b : Stats.bucket) -> b.hi - b.lo) bs in
  (* span = 2^63 - 1 (as a mathematical value); widths differ by at
     most one, wider buckets first. *)
  (match widths with
  | [ a; b; c ] ->
      Alcotest.(check bool) "extreme-rem: monotone widths" true
        (a >= b && b >= c && a - c <= 1)
  | _ -> Alcotest.fail "bucket count");
  Alcotest.(check int) "extreme-rem: total samples" 2
    (List.fold_left (fun acc (b : Stats.bucket) -> acc + b.bcount) 0 bs)

let test_histogram_remainder_widths () =
  (* span 10 over 4 bins: widths 3,3,2,2 (remainder spread first). *)
  let bs =
    check_buckets "remainder" ~expect_n:4
      ~samples:[ 0; 3; 5; 9 ]
      ~bins:4
  in
  Alcotest.(check (list int))
    "remainder: widths" [ 3; 3; 2; 2 ]
    (List.map (fun (b : Stats.bucket) -> b.hi - b.lo + 1) bs)

let test_percentile_single_value () =
  let sorted = [| 42. |] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%.2f" q)
        42.
        (force (Stats.percentile sorted q)))
    [ 0.; 0.25; 0.5; 0.95; 1. ]

let prop_bounds_hold =
  QCheck2.Test.make ~name:"min <= median <= p95 <= max, mean in range"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 1000))
    (fun samples ->
      let s = match Stats.summarize samples with
        | Some s -> s
        | None -> QCheck2.assume_fail ()
      in
      float_of_int s.min <= s.median
      && s.median <= s.p95 +. 1e-9
      && s.p95 <= float_of_int s.max +. 1e-9
      && s.mean >= float_of_int s.min
      && s.mean <= float_of_int s.max)

(* [percentile_ints] sorts the ints and maps them to floats after;
   [float_of_int] is monotone, so that agrees with sorting the floats,
   even for ints too wide to convert exactly. *)
let prop_percentile_ints_matches_float_sort =
  QCheck2.Test.make ~name:"percentile_ints = percentile over sorted floats"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60)
           (oneof [ int_range (-1000) 1000; int ]))
        (float_range 0. 1.))
    (fun (samples, q) ->
      let a = Array.of_list (List.map float_of_int samples) in
      Array.sort Float.compare a;
      Stats.percentile_ints samples q = Stats.percentile a q)

let suite =
  [
    Alcotest.test_case "single" `Quick test_single;
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile interpolation" `Quick
      test_percentile_interpolation;
    Alcotest.test_case "percentile validation" `Quick test_percentile_validation;
    Alcotest.test_case "empty is total" `Quick test_empty_total;
    Alcotest.test_case "percentile_ints" `Quick test_percentile_ints;
    Helpers.qcheck prop_percentile_ints_matches_float_sort;
    Alcotest.test_case "histogram small span" `Quick test_histogram_small_span;
    Alcotest.test_case "histogram single value" `Quick
      test_histogram_single_value;
    Alcotest.test_case "histogram bins exceed span" `Quick
      test_histogram_bins_exceed_span;
    Alcotest.test_case "histogram extreme span" `Quick
      test_histogram_extreme_span;
    Alcotest.test_case "histogram extreme span, remainder" `Quick
      test_histogram_extreme_span_remainder;
    Alcotest.test_case "histogram remainder widths" `Quick
      test_histogram_remainder_widths;
    Alcotest.test_case "percentile single value" `Quick
      test_percentile_single_value;
    Alcotest.test_case "render histogram golden" `Quick
      test_render_histogram_golden;
    Helpers.qcheck prop_histogram_partitions;
    Helpers.qcheck prop_bounds_hold;
  ]
