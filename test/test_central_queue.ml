(* Tests for the centralised queuing baseline. *)

module Gen = Countq_topology.Gen
module CQ = Countq_queuing.Central_queue
module Arrow = Countq_arrow

let check_valid msg (r : Arrow.Protocol.run_result) =
  match r.order with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" msg Arrow.Order.pp_error e)

let test_empty () =
  let r = Helpers.queued (CQ.one_shot ~graph:(Gen.star 5) ~requests:[] ()) in
  Alcotest.(check int) "no outcomes" 0 (List.length r.outcomes)

let test_star_all () =
  let n = 16 in
  let r =
    Helpers.queued
      (CQ.one_shot ~graph:(Gen.star n) ~requests:(Helpers.all_nodes n) ())
  in
  check_valid "star all" r;
  Alcotest.(check int) "n outcomes" n (List.length r.outcomes)

let test_first_is_init () =
  let r =
    Helpers.queued (CQ.one_shot ~graph:(Gen.path 6) ~requests:[ 2; 4 ] ())
  in
  check_valid "path" r;
  match r.order with
  | Ok (first :: _) ->
      let first_outcome =
        List.find
          (fun (o : Arrow.Types.outcome) -> o.op = first)
          r.outcomes
      in
      Alcotest.(check bool) "head pred Init" true
        (first_outcome.pred = Arrow.Types.Init)
  | _ -> Alcotest.fail "non-empty order expected"

let test_quadratic_on_star () =
  let total n =
    (Helpers.queued
       (CQ.one_shot ~graph:(Gen.star n) ~requests:(Helpers.all_nodes n) ())).total_delay
  in
  let t32 = total 32 and t64 = total 64 in
  let growth = float_of_int t64 /. float_of_int t32 in
  Alcotest.(check bool)
    (Printf.sprintf "quadratic growth (x%.2f)" growth)
    true
    (growth > 3.0 && growth < 5.0)

let test_matches_counting_cost_on_star () =
  (* Section 5's point: on the star the counting and queuing baselines
     pay the same serialisation cost. *)
  let n = 24 in
  let requests = Helpers.all_nodes n in
  let q = (Helpers.queued (CQ.one_shot ~graph:(Gen.star n) ~requests ())).total_delay in
  let c =
    (Helpers.counted
       (Countq_counting.Central.one_shot ~graph:(Gen.star n) ~requests ())).total_delay
  in
  Alcotest.(check int) "identical serialisation" c q

let prop_spec =
  QCheck2.Test.make ~name:"central queue yields a valid total order"
    ~count:100 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let r = Helpers.queued (CQ.one_shot ~graph:g ~requests ()) in
      Result.is_ok r.order)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "star all" `Quick test_star_all;
    Alcotest.test_case "head pred is Init" `Quick test_first_is_init;
    Alcotest.test_case "quadratic on star" `Quick test_quadratic_on_star;
    Alcotest.test_case "matches counting on star" `Quick
      test_matches_counting_cost_on_star;
    Helpers.qcheck prop_spec;
  ]
