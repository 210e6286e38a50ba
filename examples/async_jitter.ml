(* Asynchrony and stronger coordination: two extensions in one demo.

   Part 1 runs the same one-shot arrow and central-counting instances
   under increasingly hostile link-delay models (Section 2.1's general
   asynchronous model) and shows that correctness never budges while
   the delay gap between queuing and counting persists.

   Part 2 runs distributed fetch&add (every processor atomically adds
   its own increment and learns the sum before it) — the direction of
   the paper's closing open question — and shows it costs exactly what
   counting costs in the same structures.

   Run with:  dune exec examples/async_jitter.exe *)

module Gen = Countq_topology.Gen
module Spanning = Countq_topology.Spanning
module Async = Countq_simnet.Async
module Oneshot = Countq_simnet.Oneshot
module Arrow = Countq_arrow
module Central = Countq_counting.Central
module FA = Countq_counting.Fetch_add
module Rng = Countq_util.Rng

let () =
  let g = Gen.square_mesh 8 in
  let n = 64 in
  let requests = List.init n (fun i -> i) in
  let tree = Spanning.best_for_arrow g in

  Format.printf "== part 1: the separation survives asynchrony ==@.";
  Format.printf "%-14s %-14s %-14s@." "link delays" "arrow total"
    "counting total";
  List.iter
    (fun (name, delay) ->
      let q =
        Arrow.Protocol.of_engine
          (Oneshot.async ~delay (Arrow.Protocol.one_shot ~tree ~requests ()))
      in
      let c =
        Countq_counting.Counts.of_engine ~requests
          (Oneshot.async ~delay (Central.one_shot ~graph:g ~requests ()))
      in
      assert (Result.is_ok q.order);
      assert (Result.is_ok c.valid);
      Format.printf "%-14s %-14d %-14d@." name q.total_delay c.total_delay)
    [
      ("constant-1", Async.Constant 1);
      ("uniform-1-8", Async.Uniform { min = 1; max = 8; seed = 1L });
      ( "adversarial",
        Async.Per_message
          (fun ~src ~dst ~send_time -> 1 + ((src + dst + send_time) mod 11)) );
    ];

  Format.printf "@.== part 2: fetch&add costs what counting costs ==@.";
  let rng = Rng.create 99L in
  let fa_requests = List.map (fun v -> (v, 1 + Rng.below rng 100)) requests in
  let fa = FA.run_central ~graph:g ~requests:fa_requests () in
  let counting = Central.run ~graph:g ~requests () in
  assert (Result.is_ok fa.valid);
  let total =
    List.fold_left (fun acc (_, i) -> acc + i) 0 fa_requests
  in
  let last =
    List.fold_left
      (fun acc (o : FA.outcome) -> max acc (o.before + o.increment))
      0 fa.outcomes
  in
  Format.printf "fetch&add total delay %d vs counting %d (same: %b)@."
    fa.total_delay counting.total_delay
    (fa.total_delay = counting.total_delay);
  Format.printf "sum conservation: last prefix + increment = %d = Σ increments = %d@."
    last total
