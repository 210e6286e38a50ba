(* Shared helpers for the test suites. *)

module Rng = Countq_util.Rng
module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Tree = Countq_topology.Tree

let qcheck = QCheck_alcotest.to_alcotest

(* A deterministic RNG per test, derived from a fixed master seed so
   failures replay exactly. *)
let rng () = Rng.create 0xdeadbeefL

let all_nodes n = List.init n (fun i -> i)

(* QCheck generator: a small connected topology from the paper's zoo,
   tagged with a printable name. *)
let topology_gen =
  let open QCheck2.Gen in
  let* pick = int_range 0 6 in
  match pick with
  | 0 ->
      let* n = int_range 1 40 in
      return (Printf.sprintf "complete-%d" n, Gen.complete n)
  | 1 ->
      let* n = int_range 1 60 in
      return (Printf.sprintf "path-%d" n, Gen.path n)
  | 2 ->
      let* n = int_range 2 40 in
      return (Printf.sprintf "star-%d" n, Gen.star n)
  | 3 ->
      let* s = int_range 2 7 in
      return (Printf.sprintf "mesh-%dx%d" s s, Gen.square_mesh s)
  | 4 ->
      let* d = int_range 1 5 in
      return (Printf.sprintf "hypercube-%d" d, Gen.hypercube d)
  | 5 ->
      let* h = int_range 0 4 in
      return
        (Printf.sprintf "pbt-2-%d" h, Gen.perfect_tree ~arity:2 ~height:h)
  | _ ->
      let* n = int_range 1 50 in
      let* seed = int_range 0 10_000 in
      return
        ( Printf.sprintf "rtree-%d-%d" n seed,
          Gen.random_tree (Rng.create (Int64.of_int seed)) n )

let topology_print (name, _) = name

(* A topology together with a (possibly empty) request subset. *)
let instance_gen =
  let open QCheck2.Gen in
  let* name, g = topology_gen in
  let n = Graph.n g in
  let* mask = list_size (return n) bool in
  let requests =
    List.filteri (fun i _ -> List.nth mask i) (all_nodes n)
  in
  return (name, g, requests)

let instance_print (name, g, requests) =
  Printf.sprintf "%s (n=%d) R={%s}" name (Graph.n g)
    (String.concat "," (List.map string_of_int requests))

(* A non-empty request instance. *)
let nonempty_instance_gen =
  let open QCheck2.Gen in
  let* name, g, requests = instance_gen in
  if requests = [] then return (name, g, [ 0 ]) else return (name, g, requests)

let check_sorted_ints msg l =
  Alcotest.(check (list int)) msg (List.sort compare l) l

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Shared by the engine equivalence suites (equiv, event-engine,
   shard): a seed-parameterised flooding protocol, and the arbiter,
   fault-plan, churn and config menus they draw scenarios from.        *)

module Engine = Countq_simnet.Engine
module Faults = Countq_simnet.Faults
module Dynamic = Countq_simnet.Dynamic

(* A cheap avalanche mix so the random protocols are pure functions of
   their inputs (every engine must see the exact same behaviour,
   including across re-runs on shrunk counterexamples). *)
let mix a b =
  let h = ref ((a * 0x9e3779b1) + (b * 0x85ebca6b)) in
  h := !h lxor (!h lsr 13);
  h := !h * 0xc2b2ae35;
  h := !h lxor (!h lsr 16);
  !h land max_int

type msg = { ttl : int; tag : int }

let pick_nbr graph v h =
  let a = Graph.neighbors graph v in
  if Array.length a = 0 then None else Some a.(h mod Array.length a)

(* Roughly a third of the nodes start a bounded-ttl random walk that
   forks with fanout 0..2 per hop and sprinkles completions. [starts]
   gates on_start to a request subset, so the lazy-starter contract
   holds off the subset. With [wakes], handlers also ask for wakes:
   near and far-future ones at time 0, same-round and later ones from
   receives, some twice over, and a woken node sends, completes and
   sometimes asks again. *)
let hash_protocol ?starts ?(wakes = false) ~seed ~graph () =
  let may_start node =
    match starts with None -> true | Some l -> List.mem node l
  in
  let wake_at h ~near ~far =
    if not wakes then []
    else
      match h mod 12 with
      | 0 | 1 | 2 -> [ Engine.Wake near ]
      | 3 -> [ Engine.Wake near; Engine.Wake near ]
      | 4 -> [ Engine.Wake far ]
      | _ -> []
  in
  {
    Engine.name = "qcheck-hash";
    initial_state = (fun v -> mix seed v);
    on_start =
      (fun ~node s ->
        if not (may_start node) then (s, [])
        else
          let h = mix seed node in
          let acts =
            if h mod 3 = 0 then
              match pick_nbr graph node h with
              | Some d ->
                  [ Engine.Send (d, { ttl = 2 + (h mod 5); tag = h land 0xffff }) ]
              | None -> []
            else []
          in
          let acts =
            if h mod 7 = 0 then Engine.Complete (node, h land 0xff) :: acts
            else acts
          in
          (s, acts @ wake_at (h lsr 3) ~near:(1 + (h mod 5)) ~far:(300 + (h mod 50))));
    on_receive =
      (fun ~round ~node ~src m s ->
        let h = mix (mix s m.tag) (mix src round) in
        let acts = ref [] in
        (if m.ttl > 0 then
           let fan = match h mod 4 with 0 -> 0 | 1 | 2 -> 1 | _ -> 2 in
           for i = 1 to fan do
             match pick_nbr graph node (mix h i) with
             | Some d ->
                 acts :=
                   Engine.Send
                     (d, { ttl = m.ttl - 1; tag = mix m.tag i land 0xffff })
                   :: !acts
             | None -> ()
           done);
        if h mod 5 = 0 then acts := Engine.Complete (node, m.tag) :: !acts;
        let later = round + (h lsr 5 mod 3) in
        (mix s (m.tag + 1), !acts @ wake_at (h lsr 3) ~near:later ~far:(round + 200)));
    on_wake =
      (fun ~round ~node s ->
        let h = mix s (mix round node) in
        let acts =
          match pick_nbr graph node h with
          | Some d when h mod 2 = 0 ->
              [ Engine.Send (d, { ttl = 1 + (h mod 3); tag = h land 0xffff }) ]
          | _ -> []
        in
        let acts =
          if h mod 3 = 0 then Engine.Complete (node, h land 0xff) :: acts else acts
        in
        let again =
          if h lsr 4 mod 4 = 0 then [ Engine.Wake (round + 1 + (h mod 4)) ] else []
        in
        let acts = acts @ again in
        (mix s h, acts));
  }

(* What one scheduled event does at (round, node): a pure function of
   the seed, shared by the injection and on_wake encodings. *)
let fire ~seed ~graph ~round ~node s =
  let h = mix seed (mix round node) in
  let acts =
    match pick_nbr graph node h with
    | Some d -> [ Engine.Send (d, { ttl = 1 + (h mod 3); tag = h land 0xffff }) ]
    | None -> []
  in
  let acts =
    if h mod 4 = 0 then Engine.Complete (node, h land 0xff) :: acts else acts
  in
  (mix s h, acts)

let arbiter_of = function
  | 0 -> Engine.Round_robin
  | 1 -> Engine.Lowest_sender_first
  | _ ->
      Engine.Custom
        (fun ~round ~node ~candidates ->
          List.nth candidates (mix round node mod List.length candidates))

let arbiter_label = function
  | 0 -> "round-robin"
  | 1 -> "lowest-sender"
  | _ -> "custom-hash"

(* 0 is "no plan attached". *)
let plan_of = function
  | 0 -> Faults.none
  | 1 -> Faults.drop_nth 3
  | 2 -> Faults.dup_nth 5
  | 3 -> Faults.delay_nth ~by:4 2
  | 4 -> Faults.delay_nth ~by:50 1
  | 5 -> Faults.random ~label:"lossy" ~seed:42L ~drop:0.1 ()
  | 6 ->
      Faults.random ~label:"chaos" ~seed:7L ~drop:0.05 ~duplicate:0.1
        ~delay:0.2 ~delay_max:9 ()
  | 7 ->
      Faults.crash_only ~label:"crash-restart"
        [ { node = 0; at_round = 2; recover_at = Some 6 } ]
  | 9 ->
      Faults.crash_only ~label:"crash-for-good"
        [ { node = 1; at_round = 3; recover_at = None } ]
  | _ -> Faults.random ~label:"jitter" ~seed:9L ~delay:0.4 ~delay_max:30 ()

let plan_label p = if p = 0 then "-" else Faults.label (plan_of p)

(* Dynamic-schedule variants: churn and flaps move nodes and links
   under the run, so empty shards (every member down) and rerouted
   cross-shard traffic both happen. *)
let dyn_of graph = function
  | 0 -> None
  | 1 -> Some (Dynamic.identity graph)
  | 2 -> Some (Dynamic.node_churn ~seed:5L ~rate:0.3 ~epoch:4 graph)
  | _ -> Some (Dynamic.link_flaps ~seed:11L ~rate:0.25 ~epoch:4 graph)

let dyn_label = function
  | 0 -> "static"
  | 1 -> "identity"
  | 2 -> "churn"
  | _ -> "flaps"

let config_of (rc, sc, arb, maxr) =
  {
    Engine.receive_capacity = rc;
    send_capacity = sc;
    arbiter = arbiter_of arb;
    max_rounds = maxr;
  }

let config_label (rc, sc, arb, maxr) =
  Printf.sprintf "rcv=%d snd=%d arb=%s max_rounds=%d" rc sc (arbiter_label arb) maxr

(* A run's result, or its round-limit payload. *)
let outcome run =
  match run () with
  | r -> Ok r
  | exception Engine.Round_limit_exceeded { limit; outstanding; queued; held; busiest }
    ->
      Error (limit, outstanding, queued, held, busiest)

(* A recording active tap: every deliver, complete and round-end
   callback, in order, into [events]; on_round_end answers `Halt from
   round [halt_at] on. *)
let recording_tap ?halt_at events =
  {
    Engine.no_tap with
    passive = false;
    on_deliver =
      (fun ~round ~src ~dst -> events := `Deliver (round, src, dst) :: !events);
    on_complete =
      (fun ~round ~node ~value -> events := `Complete (round, node, value) :: !events);
    on_round_end =
      (fun ~round ~in_flight ->
        events := `Round_end (round, in_flight) :: !events;
        match halt_at with Some h when round >= h -> `Halt | _ -> `Continue);
  }

(* Both taps when both are given. *)
let both_taps a b =
  match (a, b) with
  | Some a, Some b -> Some (Engine.both a b)
  | Some t, None | None, Some t -> Some t
  | None, None -> None
