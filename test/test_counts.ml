(* Tests for the counting-output validator. *)

module Counts = Countq_counting.Counts

let o node count round = { Counts.node; count; round }

let test_valid () =
  let outcomes = [ o 3 2 5; o 1 1 2; o 7 3 9 ] in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (Counts.validate ~requests:[ 1; 3; 7 ] outcomes))

let test_empty () =
  Alcotest.(check bool) "empty valid" true
    (Result.is_ok (Counts.validate ~requests:[] []))

let test_unrequested () =
  match Counts.validate ~requests:[ 1 ] [ o 1 1 1; o 2 2 1 ] with
  | Error (Counts.Unrequested_count 2) -> ()
  | _ -> Alcotest.fail "expected Unrequested_count 2"

let test_duplicate_node () =
  match Counts.validate ~requests:[ 1; 2 ] [ o 1 1 1; o 1 2 1 ] with
  | Error (Counts.Duplicate_node 1) -> ()
  | _ -> Alcotest.fail "expected Duplicate_node"

let test_missing_node () =
  match Counts.validate ~requests:[ 1; 2 ] [ o 1 1 1 ] with
  | Error (Counts.Missing_node 2) -> ()
  | _ -> Alcotest.fail "expected Missing_node"

let test_bad_count_set_gap () =
  match Counts.validate ~requests:[ 1; 2 ] [ o 1 1 1; o 2 3 1 ] with
  | Error Counts.Bad_count_set -> ()
  | _ -> Alcotest.fail "expected Bad_count_set (gap)"

let test_bad_count_set_zero () =
  match Counts.validate ~requests:[ 1 ] [ o 1 0 1 ] with
  | Error Counts.Bad_count_set -> ()
  | _ -> Alcotest.fail "expected Bad_count_set (zero)"

let test_bad_count_set_duplicate_count () =
  match Counts.validate ~requests:[ 1; 2 ] [ o 1 1 1; o 2 1 1 ] with
  | Error Counts.Bad_count_set -> ()
  | _ -> Alcotest.fail "expected Bad_count_set (duplicate)"

(* The validator as first written (a Set, a polymorphic Hashtbl and a
   list sort), kept verbatim as the oracle for [Counts.validate]. *)
let validate_oracle ~requests outcomes =
  let open Counts in
  let exception E of error in
  try
    let module S = Set.Make (Int) in
    let request_set = S.of_list requests in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun o ->
        if not (S.mem o.node request_set) then raise (E (Unrequested_count o.node));
        if Hashtbl.mem seen o.node then raise (E (Duplicate_node o.node));
        Hashtbl.replace seen o.node ())
      outcomes;
    S.iter
      (fun v -> if not (Hashtbl.mem seen v) then raise (E (Missing_node v)))
      request_set;
    let k = List.length outcomes in
    let counts = List.sort compare (List.map (fun o -> o.count) outcomes) in
    let expected = List.init k (fun i -> i + 1) in
    if counts <> expected then raise (E Bad_count_set);
    Ok ()
  with E e -> Error e

(* Requests with duplicates in any order over nodes 0..12, and the
   outcomes of a correct run over them, shuffled, then up to three
   mutations: drop an outcome (a missing node), insert one anywhere
   (nodes 0..14, so unrequested or repeated ones too), or rewrite a
   count (0, |R|+1 or a repeat). *)
let gen_case =
  let open QCheck2.Gen in
  let* requests = list_size (int_range 0 10) (int_range 0 12) in
  let distinct = List.sort_uniq Int.compare requests in
  let k = List.length distinct in
  let* nodes = shuffle_l distinct in
  let* counts = shuffle_l (List.init k (fun i -> i + 1)) in
  let* mutations =
    list_size (int_range 0 3)
      (triple (int_range 0 2) (int_range 0 10)
         (pair (int_range 0 14) (int_range 0 (k + 1))))
  in
  let mutate outs (kind, at, (node, count)) =
    let len = List.length outs in
    let at = if len = 0 then 0 else at mod (len + 1) in
    match kind with
    | 0 -> List.filteri (fun i _ -> i <> at) outs
    | 1 ->
        List.filteri (fun i _ -> i < at) outs
        @ (o node count 0 :: List.filteri (fun i _ -> i >= at) outs)
    | _ ->
        List.mapi (fun i x -> if i = at then { x with Counts.count } else x) outs
  in
  let outcomes =
    List.fold_left mutate (List.map2 (fun v c -> o v c 0) nodes counts) mutations
  in
  return (requests, outcomes)

let print_case (requests, outcomes) =
  Printf.sprintf "requests [%s], outcomes [%s]"
    (String.concat "; " (List.map string_of_int requests))
    (String.concat "; "
       (List.map
          (fun (x : Counts.outcome) -> Printf.sprintf "%d:%d" x.node x.count)
          outcomes))

let prop_matches_oracle =
  QCheck2.Test.make ~name:"validate = the Set/Hashtbl/sort oracle" ~count:2000
    ~print:print_case gen_case (fun (requests, outcomes) ->
      Counts.validate ~requests outcomes = validate_oracle ~requests outcomes)

(* ---- long-lived results ---- *)

module Engine = Countq_simnet.Engine

(* Node 0 issues at rounds 0 and 2, node 2 at round 1: ops 0 and 3
   (Counts.op on 3 nodes) and op 2. *)
let schedule = Engine.schedule ~name:"test" ~n:3 [ (0, 2); (2, 1); (0, 0) ]

let long_lived completions =
  Counts.of_long_lived ~schedule
    {
      Engine.completions =
        List.map
          (fun (node, round, op, count) -> { Engine.node; round; value = (op, count) })
          completions;
      rounds = 9;
      messages = 0;
      max_link_backlog = 0;
      expansion = 1;
    }

let all_three = [ (0, 3, 0, 1); (2, 4, 2, 2); (0, 9, 3, 3) ]

let test_long_lived_exact () =
  let r = long_lived all_three in
  Alcotest.(check bool) "exact" true r.counts_exact;
  Alcotest.(check (list (pair int int)))
    "(seq, delay) from each op's issue round"
    [ (0, 3); (0, 3); (1, 7) ]
    (List.map (fun (o : Counts.long_lived_outcome) -> (o.seq, o.delay)) r.outcomes);
  Alcotest.(check (pair int int)) "total and max delay" (13, 7)
    (r.total_delay, r.max_delay)

let test_long_lived_lost_top_rank () =
  (* Ranks {1, 2} over two outcomes look exact, but three ops were
     scheduled. *)
  let r = long_lived (List.filter (fun (_, _, _, c) -> c <> 3) all_three) in
  Alcotest.(check bool) "not exact" false r.counts_exact

let test_long_lived_op_twice () =
  let r = long_lived [ (0, 3, 0, 1); (2, 4, 2, 2); (0, 5, 0, 3) ] in
  Alcotest.(check bool) "not exact" false r.counts_exact

let suite =
  [
    Alcotest.test_case "valid" `Quick test_valid;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "unrequested" `Quick test_unrequested;
    Alcotest.test_case "duplicate node" `Quick test_duplicate_node;
    Alcotest.test_case "missing node" `Quick test_missing_node;
    Alcotest.test_case "count gap" `Quick test_bad_count_set_gap;
    Alcotest.test_case "count zero" `Quick test_bad_count_set_zero;
    Alcotest.test_case "count duplicate" `Quick test_bad_count_set_duplicate_count;
    Helpers.qcheck prop_matches_oracle;
    Alcotest.test_case "long-lived: exact" `Quick test_long_lived_exact;
    Alcotest.test_case "long-lived: lost top rank" `Quick
      test_long_lived_lost_top_rank;
    Alcotest.test_case "long-lived: op completes twice" `Quick
      test_long_lived_op_twice;
  ]
