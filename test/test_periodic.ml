(* Tests for the periodic counting network and its embedding. *)

module Gen = Countq_topology.Gen
module Bitonic = Countq_counting.Bitonic
module Periodic = Countq_counting.Periodic
module Network = Countq_counting.Network
module Counts = Countq_counting.Counts

let test_sizes () =
  (* |Periodic[w]| = (w/2) log² w; depth = log² w. *)
  List.iter
    (fun (w, size, depth) ->
      let net = Periodic.create ~width:w in
      Alcotest.(check int) (Printf.sprintf "size w=%d" w) size (Bitonic.size net);
      Alcotest.(check int) (Printf.sprintf "depth w=%d" w) depth (Bitonic.depth net))
    [ (1, 0, 0); (2, 1, 1); (4, 8, 4); (8, 36, 9); (16, 128, 16); (32, 400, 25) ]

let test_block_layers () =
  Alcotest.(check int) "w=1" 0 (Periodic.block_layers 1);
  Alcotest.(check int) "w=16" 4 (Periodic.block_layers 16);
  Alcotest.check_raises "w=12 rejected"
    (Invalid_argument "Periodic.block_layers: width must be a power of two >= 1")
    (fun () -> ignore (Periodic.block_layers 12))

let drive net m next_wire =
  let st = Bitonic.State.create net in
  let counts = ref [] in
  for t = 0 to m - 1 do
    let out = Bitonic.State.push st ~wire:(next_wire t) in
    let nth = (Bitonic.State.exit_counts st).(out) - 1 in
    counts :=
      Bitonic.count_of_exit ~width:(Bitonic.width net) ~wire:out ~nth :: !counts
  done;
  (Bitonic.State.has_step_property st, List.sort compare !counts)

let test_step_property () =
  List.iter
    (fun w ->
      let net = Periodic.create ~width:w in
      List.iter
        (fun m ->
          let step, counts = drive net m (fun t -> (t * 11 + 5) mod w) in
          Alcotest.(check bool) (Printf.sprintf "step w=%d m=%d" w m) true step;
          Alcotest.(check (list int))
            (Printf.sprintf "counts w=%d m=%d" w m)
            (List.init m (fun i -> i + 1))
            counts)
        [ 0; 1; 5; 17; 64; 129 ])
    [ 1; 2; 4; 8; 16 ]

let test_embedding_on_graph () =
  let n = 32 in
  let g = Gen.complete n in
  let net = Periodic.create ~width:8 in
  let r =
    Helpers.counted
      (Network.one_shot ~net ~graph:g ~requests:(Helpers.all_nodes n) ())
  in
  match r.valid with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "periodic embedding: %a" Counts.pp_error e)

let test_width_net_disagreement () =
  let net = Periodic.create ~width:8 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Network.one_shot: width disagrees with the given net")
    (fun () ->
      ignore
        (Helpers.counted (Network.one_shot ~width:4 ~net ~graph:(Gen.complete 8)
           ~requests:[ 0; 1 ] ())))

let prop_periodic_counts =
  QCheck2.Test.make
    ~name:"periodic: step property + exact count set for random inputs"
    ~count:80
    QCheck2.Gen.(
      pair (int_range 0 5 >|= fun e -> 1 lsl e)
        (pair (int_range 0 100) (int_range 0 1_000_000)))
    (fun (w, (m, seed)) ->
      let net = Periodic.create ~width:w in
      let rng = Countq_util.Rng.create (Int64.of_int seed) in
      let step, counts = drive net m (fun _ -> Countq_util.Rng.below rng w) in
      step && counts = List.init m (fun i -> i + 1))

let prop_embedding_spec =
  QCheck2.Test.make ~name:"periodic embedding meets the counting spec"
    ~count:40 ~print:Helpers.instance_print Helpers.instance_gen
    (fun (_, g, requests) ->
      let net = Periodic.create ~width:4 in
      let r = Helpers.counted (Network.one_shot ~net ~graph:g ~requests ()) in
      Result.is_ok r.valid)

let suite =
  [
    Alcotest.test_case "sizes and depths" `Quick test_sizes;
    Alcotest.test_case "block layers" `Quick test_block_layers;
    Alcotest.test_case "step property" `Quick test_step_property;
    Alcotest.test_case "embedding on graph" `Quick test_embedding_on_graph;
    Alcotest.test_case "width/net disagreement" `Quick test_width_net_disagreement;
    Helpers.qcheck prop_periodic_counts;
    Helpers.qcheck prop_embedding_spec;
  ]
