(* Paper-reproduction experiments E1-E13. See experiments.mli. *)

module Graph = Countq_topology.Graph
module Gen = Countq_topology.Gen
module Bfs = Countq_topology.Bfs
module Tree = Countq_topology.Tree
module Spanning = Countq_topology.Spanning
module Hamilton = Countq_topology.Hamilton
module Rng = Countq_util.Rng
module Arrow = Countq_arrow
module Counting = Countq_counting
module Queuing = Countq_queuing
module Tsp = Countq_tsp
module Bounds = Countq_bounds
module Multicast = Countq_multicast
module Json = Countq_util.Json
module Engine = Countq_simnet.Engine
module Oneshot = Countq_simnet.Oneshot

type spec = {
  id : string;
  title : string;
  paper_ref : string;
  run : ?quick:bool -> ?ctx:Sweep.ctx -> unit -> Table.t;
}

let all_nodes n = List.init n (fun i -> i)

let seed = 0xc0417L

let sample_requests rng ~k ~n = Rng.sample rng ~k ~n

let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 - one concrete run, both problems, same request set.     *)

let e1_model_demo ?quick:(_ = false) () =
  let g = Gen.square_mesh 3 in
  let requests = [ 0; 4; 8 ] in
  let tree = Spanning.best_for_arrow g in
  let queue_run =
    Arrow.Protocol.of_engine (Oneshot.run (Arrow.Protocol.one_shot ~tree ~requests ()))
  in
  let count_run =
    Counting.Counts.of_engine ~requests
      (Oneshot.run
         (Counting.Combining.one_shot ~tree:(Spanning.bfs g ~root:0) ~requests ()))
  in
  let count_of v =
    List.find (fun (o : Counting.Counts.outcome) -> o.node = v)
      count_run.outcomes
  in
  let queue_of v =
    List.find (fun (o : Arrow.Types.outcome) -> o.op.origin = v)
      queue_run.outcomes
  in
  let rows =
    List.map
      (fun v ->
        let c = count_of v in
        let q = queue_of v in
        [
          Table.cell_int v;
          Table.cell_int c.count;
          Table.cell_int c.round;
          Format.asprintf "%a" Arrow.Types.pp_pred q.pred;
          Table.cell_int q.round;
        ])
      requests
  in
  let order_ok =
    match queue_run.order with Ok _ -> true | Error _ -> false
  in
  Table.make ~id:"E1" ~title:"counting vs queuing on one 3x3-mesh run"
    ~paper_ref:"Fig. 1 (model illustration), Section 2.2 specifications"
    ~headers:[ "node"; "count"; "count delay"; "pred"; "queue delay" ]
    ~notes:
      [
        Printf.sprintf "counting output valid: %s"
          (Table.cell_bool (Result.is_ok count_run.valid));
        Printf.sprintf "queuing total order valid: %s" (Table.cell_bool order_ok);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: Theorem 3.5 - counting vs the n log* n floor on K_n.            *)

let e2_counting_lb_general ?quick:(quick = false) () =
  let sizes = if quick then [ 16; 32 ] else [ 16; 32; 64; 128; 256 ] in
  let rows =
    List.map
      (fun n ->
        let g = Gen.complete n in
        let best = Run.best_counting ~graph:g ~requests:(all_nodes n) () in
        let lb = Bounds.Lower.contention_lb n in
        [
          Table.cell_int n;
          best.protocol;
          Table.cell_int best.normalized_delay;
          Table.cell_int lb;
          Table.cell_float (ratio best.normalized_delay lb);
          Table.cell_bool (best.normalized_delay >= lb);
        ])
      sizes
  in
  Table.make ~id:"E2" ~title:"counting on K_n vs the Omega(n log* n) lower bound"
    ~paper_ref:"Theorem 3.5"
    ~headers:
      [ "n"; "best protocol"; "measured total"; "lower bound"; "ratio"; "measured >= bound" ]
    ~notes:
      [
        "measured = best normalised total delay across the counting portfolio, R = V";
        "the bound applies to ANY counting algorithm on ANY graph; K_n is the hardest case for it";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: Theorem 3.6 - high-diameter floor on the list and the mesh.     *)

let e3_counting_lb_diameter ?quick:(quick = false) ?ctx () =
  let ctx = Sweep.of_option ctx in
  (* Ceilings doubled (256 -> 512 nodes on the list, 16^2 -> 24^2 on
     the mesh) when the engine went active-set; the Theta(n^2)-round
     regime here is exactly what idle-proportional rounds pay off on. *)
  let list_sizes = if quick then [ 16; 32 ] else [ 16; 32; 64; 128; 256; 512 ] in
  let mesh_sides = if quick then [ 4; 6 ] else [ 4; 6; 8; 12; 16; 24 ] in
  let row topo g =
    let n = Graph.n g in
    let alpha = Bfs.diameter g in
    let best =
      Run.best_counting ~pool:(Sweep.pool ctx) ~graph:g
        ~requests:(all_nodes n) ()
    in
    let lb = Bounds.Lower.diameter_lb ~diameter:alpha in
    [
      topo;
      Table.cell_int n;
      Table.cell_int alpha;
      best.protocol;
      Table.cell_int best.normalized_delay;
      Table.cell_int lb;
      Table.cell_bool (best.normalized_delay >= lb);
    ]
  in
  let points =
    List.map
      (fun n ->
        Sweep.rows_point
          ~name:(Printf.sprintf "list:%d" n)
          (fun ~rng:_ -> [ row "list" (Gen.path n) ]))
      list_sizes
    @ List.map
        (fun s ->
          Sweep.rows_point
            ~name:(Printf.sprintf "mesh:%dx%d" s s)
            (fun ~rng:_ -> [ row "mesh" (Gen.square_mesh s) ]))
        mesh_sides
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E3" points in
  Table.make ~id:"E3" ~title:"counting on high-diameter graphs vs the Omega(diam^2) floor"
    ~paper_ref:"Theorem 3.6 (list: Omega(n^2); 2-D mesh: Omega(n sqrt n))"
    ~headers:
      [ "topology"; "n"; "diam"; "best protocol"; "measured total"; "(d/2)(d/2+1)/2"; "measured >= bound" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: Lemmas 3.2-3.4 - influence growth vs the tower envelope.        *)

let e4_influence_growth ?quick:(quick = false) () =
  let rounds = if quick then 4 else 7 in
  let rows =
    List.map
      (fun (r : Bounds.Influence.row) ->
        [
          Table.cell_int r.t;
          Printf.sprintf "%.4g" r.a;
          Printf.sprintf "%.4g" r.b;
          Format.asprintf "%a" Bounds.Tow.pp_tower r.tow2t;
          Table.cell_bool r.within_envelope;
        ])
      (Bounds.Influence.table ~rounds)
  in
  Table.make ~id:"E4" ~title:"influence-set recurrences vs the tow(2t) envelope"
    ~paper_ref:"Lemmas 3.2, 3.3, 3.4"
    ~headers:[ "t"; "a(t) bound"; "b(t) bound"; "tow(2t)"; "a,b <= tow(2t)" ]
    ~notes:
      [
        "a(t): how many inputs can influence one processor after t rounds; b(t): the reverse";
        "values saturate at 1e300; 'tow(j)+' marks towers beyond float range";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: Theorem 4.1 - arrow cost vs twice the NN TSP.                   *)

let e5_arrow_vs_tsp ?quick:(quick = false) () =
  let rng = Rng.create seed in
  let cases =
    let base =
      [
        ("list-256", Gen.path 256);
        ("mesh-16x16", Gen.square_mesh 16);
        ("hypercube-8", Gen.hypercube 8);
        ("complete-128", Gen.complete 128);
        ("pbt-2ary-h7", Gen.perfect_tree ~arity:2 ~height:7);
        ("random-tree-200", Gen.random_tree rng 200);
      ]
    in
    if quick then [ List.hd base; List.nth base 1 ] else base
  in
  let densities = if quick then [ 0.5 ] else [ 0.1; 0.5; 1.0 ] in
  let rows =
    List.concat_map
      (fun (name, g) ->
        let n = Graph.n g in
        let tree = Spanning.best_for_arrow g in
        List.map
          (fun density ->
            let k = max 1 (int_of_float (density *. float_of_int n)) in
            let requests =
              if k >= n then all_nodes n else sample_requests rng ~k ~n
            in
            let run = Run.queuing ~tree ~graph:g ~protocol:`Arrow ~requests () in
            let tsp =
              Tsp.Nn.on_tree tree ~start:(Tree.root tree) ~requests
            in
            let bound = 2 * tsp.cost in
            [
              name;
              Table.cell_int n;
              Table.cell_int k;
              Table.cell_int run.total_delay;
              Table.cell_int tsp.cost;
              Table.cell_int bound;
              Table.cell_float (ratio run.total_delay bound);
              Table.cell_bool (run.total_delay <= bound);
            ])
          densities)
      cases
  in
  Table.make ~id:"E5" ~title:"arrow total delay vs 2 x nearest-neighbour TSP"
    ~paper_ref:"Theorem 4.1 (Herlihy-Tirthapura-Wattenhofer)"
    ~headers:
      [ "topology"; "n"; "k"; "arrow total"; "NN-TSP"; "2xTSP"; "arrow/2TSP"; "arrow <= 2xTSP" ]
    ~notes:
      [
        "arrow delays in expanded rounds (the model Theorem 4.1 is stated in); TSP from the tail";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: Lemma 4.3 / Fig. 2 - list tours vs 3n, with certificates.       *)

let e6_list_tsp ?quick:(quick = false) () =
  let rng = Rng.create (Int64.add seed 1L) in
  let sizes = if quick then [ 64 ] else [ 64; 256; 1024 ] in
  let rows =
    List.concat_map
      (fun n ->
        let tree = Tree.of_graph (Gen.path n) ~root:0 in
        let mk kind start requests =
          let tour = Tsp.Nn.on_tree tree ~start ~requests in
          let cert = Tsp.Runs.certify ~n ~start tour.order in
          [
            Table.cell_int n;
            kind;
            Table.cell_int (List.length requests);
            Table.cell_int tour.cost;
            Table.cell_int (Tsp.Tbounds.list_bound n);
            Table.cell_bool (tour.cost <= Tsp.Tbounds.list_bound n);
            Table.cell_int (List.length cert.runs);
            Table.cell_bool cert.lemma44_holds;
          ]
        in
        let start_adv, reqs_adv = Tsp.Nn.worst_case_on_list ~n in
        [
          mk "all" 0 (all_nodes n);
          mk "random-half" (n / 2) (sample_requests rng ~k:(n / 2) ~n);
          mk "zigzag-adversarial" start_adv reqs_adv;
        ])
      sizes
  in
  Table.make ~id:"E6" ~title:"nearest-neighbour tours on the list vs the 3n ceiling"
    ~paper_ref:"Lemma 4.3, Lemma 4.4, Fig. 2"
    ~headers:[ "n"; "request set"; "k"; "NN cost"; "3n"; "cost <= 3n"; "runs"; "Lemma 4.4" ]
    ~notes:
      [
        "'Lemma 4.4' checks x_i >= x_{i-1} + x_{i-2} on the run decomposition of the greedy tour";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: Theorem 4.7 / 4.12 - perfect m-ary trees stay O(n).             *)

let e7_mary_tree_tsp ?quick:(quick = false) () =
  let rng = Rng.create (Int64.add seed 2L) in
  let cases =
    if quick then [ (2, 5); (3, 3) ]
    else [ (2, 5); (2, 7); (2, 9); (3, 4); (3, 6); (4, 3); (4, 5) ]
  in
  let rows =
    List.concat_map
      (fun (arity, height) ->
        let g = Gen.perfect_tree ~arity ~height in
        let n = Graph.n g in
        let tree = Tree.of_graph g ~root:Gen.perfect_tree_root in
        let mk kind requests =
          let tour = Tsp.Nn.on_tree tree ~start:0 ~requests in
          let binary_bound =
            if arity = 2 then
              Table.cell_int (Tsp.Tbounds.perfect_binary_bound ~n)
            else "-"
          in
          [
            Table.cell_int arity;
            Table.cell_int height;
            Table.cell_int n;
            kind;
            Table.cell_int (List.length requests);
            Table.cell_int tour.cost;
            Table.cell_float (ratio tour.cost n);
            binary_bound;
          ]
        in
        [
          mk "all" (all_nodes n);
          mk "random-half" (sample_requests rng ~k:(max 1 (n / 2)) ~n);
          mk "leaves"
            (List.filter (fun v -> Tree.is_leaf tree v) (all_nodes n));
        ])
      cases
  in
  Table.make ~id:"E7" ~title:"nearest-neighbour tours on perfect m-ary trees are O(n)"
    ~paper_ref:"Theorem 4.7, Lemmas 4.8-4.10, Fig. 3; Theorem 4.12"
    ~headers:[ "m"; "height"; "n"; "request set"; "k"; "NN cost"; "cost/n"; "2d(d+1)+8n (m=2)" ]
    ~notes:[ "cost/n must stay bounded as n grows (the Theta(n) claim)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: Corollary 4.2 - generic trees and the Rosenkrantz ratio.        *)

let e8_nn_approximation ?quick:(quick = false) () =
  let rng = Rng.create (Int64.add seed 3L) in
  let sizes = if quick then [ 64 ] else [ 64; 256; 1024 ] in
  let tree_rows =
    List.map
      (fun n ->
        let g = Gen.random_binary_tree rng n in
        let tree = Tree.of_graph g ~root:0 in
        let k = max 1 (n / 2) in
        let requests = sample_requests rng ~k ~n in
        let tour = Tsp.Nn.on_tree tree ~start:0 ~requests in
        let bound = Tsp.Tbounds.constant_degree_tree_bound ~n ~k in
        [
          "random-deg3-tree";
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int tour.cost;
          Table.cell_int bound;
          Table.cell_bool (tour.cost <= bound);
          "-";
          "-";
        ])
      sizes
  in
  let ratio_rows =
    let trials = if quick then 3 else 12 in
    List.init trials (fun i ->
        let n = 30 + (5 * i) in
        let g = Gen.random_tree rng n in
        let tree = Tree.of_graph g ~root:0 in
        let k = 10 + (i mod 4) in
        let requests = sample_requests rng ~k ~n in
        let tour = Tsp.Nn.on_tree tree ~start:0 ~requests in
        let opt = Tsp.Exact.min_path_on_tree tree ~start:0 ~requests in
        let r = ratio tour.cost opt in
        let guarantee = Tsp.Tbounds.nn_path_ratio k in
        [
          "random-tree";
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int tour.cost;
          Table.cell_int opt;
          Table.cell_bool (r <= guarantee +. 1e-9);
          Table.cell_float r;
          Table.cell_float guarantee;
        ])
  in
  Table.make ~id:"E8"
    ~title:"NN tours on constant-degree trees vs O(n log k); NN/optimal ratios"
    ~paper_ref:"Corollary 4.2; Rosenkrantz-Stearns-Lewis log k approximation"
    ~headers:
      [ "instance"; "n"; "k"; "NN cost"; "bound/opt"; "within"; "NN/opt"; "guarantee" ]
    ~notes:
      [
        "tree rows compare NN against n(ceil(lg(k+1))+1); ratio rows against Held-Karp optima";
        "guarantee: ceil(lg(k+1))+1, the open-path form of the RSL tour bound";
      ]
    (tree_rows @ ratio_rows)

(* ------------------------------------------------------------------ *)
(* E9: Theorems 4.5/4.6 - the headline separation.                     *)

let e9_hamilton_separation ?quick:(quick = false) ?ctx () =
  let ctx = Sweep.of_option ctx in
  let cases =
    if quick then
      [ ("complete", [ 16; 64 ]); ("mesh", [ 16; 64 ]) ]
    else
      [
        ("complete", [ 16; 64; 256; 1024 ]);
        ("mesh", [ 16; 64; 256; 1024 ]);
        ("hypercube", [ 16; 64; 256; 1024 ]);
      ]
  in
  let graph_of topo n =
    match topo with
    | "complete" -> Gen.complete n
    | "mesh" ->
        let s = int_of_float (Float.round (sqrt (float_of_int n))) in
        Gen.square_mesh s
    | "hypercube" ->
        let rec log2 k acc = if k <= 1 then acc else log2 (k / 2) (acc + 1) in
        Gen.hypercube (log2 n 0)
    | _ -> assert false
  in
  let points =
    List.concat_map
      (fun (topo, sizes) ->
        List.map
          (fun n ->
            Sweep.rows_point
              ~name:(Printf.sprintf "%s:%d" topo n)
              (fun ~rng:_ ->
                let g = graph_of topo n in
                let n = Graph.n g in
                let requests = all_nodes n in
                let q = Run.queuing ~graph:g ~protocol:`Arrow ~requests () in
                let c =
                  Run.best_counting ~pool:(Sweep.pool ctx) ~graph:g ~requests
                    ()
                in
                [
                  [
                    topo;
                    Table.cell_int n;
                    Table.cell_int q.normalized_delay;
                    c.protocol;
                    Table.cell_int c.normalized_delay;
                    Table.cell_float
                      (ratio c.normalized_delay q.normalized_delay);
                    Table.cell_float
                      (ratio q.normalized_delay n)
                    (* queuing stays O(n): ~const *);
                  ];
                ]))
          sizes)
      cases
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E9" points in
  Table.make ~id:"E9" ~title:"queuing vs counting on Hamilton-path graphs (the separation)"
    ~paper_ref:"Theorem 4.5, Lemma 4.6; lower bounds Theorems 3.5/3.6"
    ~headers:
      [ "topology"; "n"; "arrow total"; "best counting"; "counting total"; "count/queue"; "queue/n" ]
    ~notes:
      [
        "count/queue must grow with n (counting is harder); queue/n must stay bounded (arrow is O(n))";
        "R = V; arrow runs on a Hamilton-path spanning tree per Theorem 4.5";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E10: Theorem 4.13 - high-diameter constant-degree separation.       *)

let e10_high_diameter_separation ?quick:(quick = false) ?ctx () =
  let ctx = Sweep.of_option ctx in
  let spines = if quick then [ 16; 32 ] else [ 16; 32; 64; 128; 256; 512 ] in
  let points =
    List.map
      (fun spine ->
        Sweep.rows_point
          ~name:(Printf.sprintf "caterpillar:%d" spine)
          (fun ~rng:_ ->
            let g = Gen.caterpillar ~spine ~legs:1 in
            let n = Graph.n g in
            let alpha = Bfs.diameter g in
            let requests = all_nodes n in
            let q = Run.queuing ~graph:g ~protocol:`Arrow ~requests () in
            let c =
              Run.best_counting ~pool:(Sweep.pool ctx) ~graph:g ~requests ()
            in
            let lb = Bounds.Lower.diameter_lb ~diameter:alpha in
            [
              [
                Table.cell_int spine;
                Table.cell_int n;
                Table.cell_int alpha;
                Table.cell_int q.normalized_delay;
                c.protocol;
                Table.cell_int c.normalized_delay;
                Table.cell_int lb;
                Table.cell_float (ratio c.normalized_delay q.normalized_delay);
              ];
            ]))
      spines
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E10" points in
  Table.make ~id:"E10" ~title:"separation on high-diameter constant-degree graphs"
    ~paper_ref:"Theorem 4.13 (with Theorem 3.6 and Corollary 4.2)"
    ~headers:
      [ "spine"; "n"; "diam"; "arrow total"; "best counting"; "counting total"; "diam LB"; "count/queue" ]
    ~notes:[ "caterpillar graphs: diameter Theta(n), max degree 3" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: Section 5 - the star: no separation.                           *)

let e11_star_no_separation ?quick:(quick = false) () =
  let sizes = if quick then [ 16; 32 ] else [ 16; 32; 64; 128; 256 ] in
  let rows =
    List.map
      (fun n ->
        let g = Gen.star n in
        let requests = all_nodes n in
        let c = Run.counting ~graph:g ~protocol:`Central ~requests () in
        let q_central = Run.queuing ~graph:g ~protocol:`Central ~requests () in
        let q_arrow = Run.queuing ~graph:g ~protocol:`Arrow ~requests () in
        [
          Table.cell_int n;
          Table.cell_int c.normalized_delay;
          Table.cell_int q_central.normalized_delay;
          Table.cell_int q_arrow.normalized_delay;
          Table.cell_float (ratio c.normalized_delay q_central.normalized_delay);
          Table.cell_float ~decimals:3 (ratio c.normalized_delay (n * n));
        ])
      sizes
  in
  Table.make ~id:"E11" ~title:"the star: counting and queuing are both Theta(n^2)"
    ~paper_ref:"Section 5 (conclusions)"
    ~headers:
      [ "n"; "counting total"; "central-queue total"; "arrow total"; "count/queue"; "count/n^2" ]
    ~notes:
      [
        "count/queue stays Theta(1): contention at the centre dominates both problems";
        "the arrow column uses the star itself as spanning tree (its only one), normalised by its degree";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E12: Section 1 - ordered multicast both ways.                       *)

let e12_ordered_multicast ?quick:(quick = false) ?ctx () =
  let ctx = Sweep.of_option ctx in
  let cases =
    if quick then [ (8, 16) ] else [ (8, 16); (8, 64); (16, 64); (16, 256) ]
  in
  (* The senders are sampled from the point's own name-derived RNG, so
     the (8, 64) case draws the same sample whether the (8, 16) case
     ran before it, after it, on another domain, or out of cache. *)
  let points =
    List.map
      (fun (side, k) ->
        Sweep.rows_point
          ~name:(Printf.sprintf "mesh:%d/k:%d" side k)
          (fun ~rng ->
            let g = Gen.square_mesh side in
            let n = Graph.n g in
            let senders =
              if k >= n then all_nodes n else sample_requests rng ~k ~n
            in
            List.map
              (fun scheme ->
                let r = Multicast.Ordered.run ~graph:g ~senders scheme in
                [
                  Printf.sprintf "%dx%d" side side;
                  Table.cell_int (List.length senders);
                  Format.asprintf "%a" Multicast.Ordered.pp_scheme scheme;
                  Table.cell_int r.coordination_total;
                  Table.cell_int r.coordination_makespan;
                  Table.cell_float r.mean_delivery_latency;
                  Table.cell_int r.max_delivery_latency;
                  Table.cell_int r.network_messages;
                ])
              [
                Multicast.Ordered.Via_queuing `Arrow;
                Multicast.Ordered.Via_counting `Central;
                Multicast.Ordered.Via_counting `Combining;
                Multicast.Ordered.Via_counting `Network;
              ]))
      cases
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E12" points in
  Table.make ~id:"E12" ~title:"totally ordered multicast: queuing-based vs counting-based"
    ~paper_ref:"Section 1 (Herlihy et al., Operating Systems Review 35(1))"
    ~headers:
      [ "mesh"; "senders"; "scheme"; "coord total"; "coord makespan"; "mean delivery"; "max delivery"; "messages" ]
    ~notes:
      [
        "same dissemination phase for all schemes; only the coordination label differs";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: long-lived arrow (Kuhn-Wattenhofer extension).                 *)

let e13_long_lived_arrow ?quick:(quick = false) ?ctx () =
  let ctx = Sweep.of_option ctx in
  let n = 64 in
  let g = Gen.square_mesh 8 in
  let tree = Spanning.best_for_arrow g in
  let rates = if quick then [ 4 ] else [ 1; 2; 4; 8; 16 ] in
  let horizon = if quick then 64 else 256 in
  (* The name encodes the horizon as well as the rate: the quick and
     full grids at the same rate are different workloads and must not
     share cache entries. Arrivals come from the point's own RNG. *)
  let points =
    List.map
      (fun per_round ->
        Sweep.rows_point
          ~name:(Printf.sprintf "rate:%d/horizon:%d" per_round horizon)
          (fun ~rng ->
        let arrivals = ref [] in
        for r = 0 to horizon - 1 do
          for _ = 1 to per_round do
            arrivals := (Rng.below rng n, r) :: !arrivals
          done
        done;
        let schedule = Engine.schedule ~name:"E13" ~n !arrivals in
        let run =
          Arrow.Protocol.of_long_lived ~schedule
            (Oneshot.run (Arrow.Protocol.long_lived ~tree ~schedule ()))
        in
        let ops = List.length run.outcomes in
        let fifo =
          (* Raymond-style reversal is not FIFO: quantify whether this
             run's order respected real time (it rarely does at load). *)
          match run.order with
          | Error _ -> "-"
          | Ok order ->
              let issue (op : Arrow.Types.op) = schedule.(op.origin).(op.seq) in
              let delay = Hashtbl.create 64 in
              List.iter
                (fun (o : Arrow.Types.outcome) -> Hashtbl.replace delay o.op o.round)
                run.outcomes;
              let complete op = issue op + Hashtbl.find delay op in
              if Arrow.Order.respects_real_time ~issue ~complete order then "yes"
              else "no"
        in
        let counted inst =
          Counting.Counts.of_long_lived ~schedule (Oneshot.run inst)
        in
        let net = counted (Counting.Network.long_lived ~graph:g ~schedule ()) in
        let central = counted (Counting.Central.long_lived ~graph:g ~schedule ()) in
        let counter label (r : Counting.Counts.long_lived_result) =
          let ops = List.length r.outcomes in
          [
            Table.cell_int per_round;
            label;
            Table.cell_int ops;
            Table.cell_int r.rounds;
            Table.cell_float (ratio r.total_delay ops);
            Table.cell_int r.max_delay;
            Table.cell_bool r.counts_exact;
            "-";
          ]
        in
        [
          [
            Table.cell_int per_round;
            "queue/arrow";
            Table.cell_int ops;
            Table.cell_int run.rounds;
            Table.cell_float (ratio run.total_delay ops);
            Table.cell_int run.max_delay;
            Table.cell_bool (Result.is_ok run.order);
            fifo;
          ];
          counter "count/network" net;
          counter "count/central" central;
        ]))
      rates
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E13" points in
  Table.make ~id:"E13" ~title:"long-lived coordination under staggered arrivals"
    ~paper_ref:"Kuhn-Wattenhofer SPAA'04 (the paper's related work [8]); extension"
    ~headers:
      [ "arrivals/round"; "protocol"; "ops"; "makespan"; "mean delay"; "max delay"; "valid"; "FIFO" ]
    ~notes:
      [
        "uniform random arrival nodes on an 8x8 mesh over a fixed horizon";
        "arrow: the order stays one chain but is famously not FIFO under load;";
        "counting network and central counter (long-lived): ranks stay exactly {1..m}, at much";
        "higher and load-growing delay - the long-lived face of the separation";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E14: ablation - arbitration policy. The model lets an adversary
   schedule which pending message a node absorbs; the engine's default
   is fair round-robin. How much does the policy move the totals?      *)

let e14_arbiter_ablation ?quick:(quick = false) () =
  let sizes = if quick then [ 32 ] else [ 32; 64; 128 ] in
  let policies =
    [
      ("round-robin", Engine.Round_robin);
      ("lowest-sender-first", Engine.Lowest_sender_first);
      ( "highest-sender-first",
        Engine.Custom
          (fun ~round:_ ~node:_ ~candidates ->
            List.fold_left max (List.hd candidates) candidates) );
    ]
  in
  let rows =
    List.concat_map
      (fun n ->
        let g = Gen.star n in
        let requests = all_nodes n in
        List.map
          (fun (name, arbiter) ->
            let config = { Engine.default_config with arbiter } in
            let r =
              Counting.Counts.of_engine ~requests
                (Oneshot.run (Counting.Central.one_shot ~config ~graph:g ~requests ()))
            in
            [
              Table.cell_int n;
              name;
              Table.cell_int r.total_delay;
              Table.cell_int r.max_delay;
              Table.cell_int r.rounds;
              Table.cell_bool (Result.is_ok r.valid);
            ])
          policies)
      sizes
  in
  Table.make ~id:"E14" ~title:"ablation: message-arbitration policy (star, central counting)"
    ~paper_ref:"Section 2.1 model discussion (scheduling adversary)"
    ~headers:[ "n"; "arbiter"; "total"; "max delay"; "rounds"; "valid" ]
    ~notes:
      [
        "totals are schedule-invariant here (every request must cross the centre once);";
        "the policy only redistributes which node waits - max delay and fairness change, correctness never";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E15: ablation - counting-network width. Wider networks cut output
   contention but deepen the pipeline; the sweet spot moves with k.    *)

let e15_network_width_ablation ?quick:(quick = false) () =
  let widths = if quick then [ 1; 8 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let n = 64 in
  let g = Gen.complete n in
  let requests = all_nodes n in
  let rows =
    List.map
      (fun width ->
        let r = Run.counting ~width ~graph:g ~protocol:`Network ~requests () in
        let net = Counting.Bitonic.create ~width in
        [
          Table.cell_int width;
          Table.cell_int (Counting.Bitonic.depth net);
          Table.cell_int (Counting.Bitonic.size net);
          Table.cell_int r.total_delay;
          Table.cell_int r.max_delay;
          Table.cell_int r.rounds;
          Table.cell_int r.messages;
          Table.cell_bool r.valid;
        ])
      widths
  in
  Table.make ~id:"E15" ~title:"ablation: bitonic network width on K_64, R = V"
    ~paper_ref:"Aspnes-Herlihy-Shavit counting networks (the paper's [1])"
    ~headers:
      [ "width"; "depth"; "balancers"; "total"; "max"; "rounds"; "messages"; "valid" ]
    ~notes:
      [
        "width 1 degenerates to a central counter; large widths trade contention for pipeline depth";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E16: ablation - the arrow protocol's spanning tree. Theorem 4.5
   wants a Hamilton path; what happens on BFS/DFS trees instead?       *)

let e16_arrow_tree_ablation ?quick:(quick = false) () =
  let rng = Rng.create (Int64.add seed 6L) in
  let cases =
    if quick then [ ("mesh-8x8", Gen.square_mesh 8) ]
    else
      [
        ("mesh-16x16", Gen.square_mesh 16);
        ("complete-256", Gen.complete 256);
        ("hypercube-8", Gen.hypercube 8);
      ]
  in
  let rows =
    List.concat_map
      (fun (name, g) ->
        let n = Graph.n g in
        let requests = sample_requests rng ~k:(n / 2) ~n in
        let trees =
          [
            ("hamilton-path", Spanning.best_for_arrow g);
            ("bfs-tree", Spanning.bfs g ~root:0);
            ("dfs-tree", Spanning.dfs g ~root:0);
          ]
        in
        List.map
          (fun (tree_name, tree) ->
            let r = Run.queuing ~tree ~graph:g ~protocol:`Arrow ~requests () in
            let tsp = Tsp.Nn.on_tree tree ~start:(Tree.root tree) ~requests in
            [
              name;
              tree_name;
              Table.cell_int (Tree.max_degree tree);
              Table.cell_int r.total_delay;
              Table.cell_int (r.total_delay * r.expansion);
              Table.cell_int (2 * tsp.cost);
              Table.cell_bool (r.total_delay <= 2 * tsp.cost);
              Table.cell_bool r.valid;
            ])
          trees)
      cases
  in
  Table.make ~id:"E16" ~title:"ablation: arrow spanning-tree choice (random half requests)"
    ~paper_ref:"Theorem 4.5 (Hamilton path) vs Corollary 4.2 (any constant-degree tree)"
    ~headers:
      [ "topology"; "tree"; "degree"; "arrow total"; "normalised"; "2xTSP"; "<= 2xTSP"; "valid" ]
    ~notes:
      [
        "the Theorem 4.1 bound holds on every tree; the Hamilton path minimises the normalised cost";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E17: ablation - notify overhead. Applications that need the origin
   to learn its predecessor (ordered multicast) pay a return leg.      *)

let e17_notify_overhead ?quick:(quick = false) () =
  let cases =
    if quick then [ ("mesh-8x8", Gen.square_mesh 8) ]
    else
      [
        ("list-256", Gen.path 256);
        ("mesh-16x16", Gen.square_mesh 16);
        ("complete-128", Gen.complete 128);
        ("pbt-2ary-h7", Gen.perfect_tree ~arity:2 ~height:7);
      ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let n = Graph.n g in
        let requests = all_nodes n in
        let tree = Spanning.best_for_arrow g in
        let plain = Run.queuing ~tree ~graph:g ~protocol:`Arrow ~requests () in
        let notified =
          Run.queuing ~tree ~graph:g ~protocol:`Arrow_notify ~requests ()
        in
        [
          name;
          Table.cell_int n;
          Table.cell_int plain.total_delay;
          Table.cell_int notified.total_delay;
          Table.cell_float (ratio notified.total_delay plain.total_delay);
          Table.cell_int plain.messages;
          Table.cell_int notified.messages;
          Table.cell_bool (plain.valid && notified.valid);
        ])
      cases
  in
  Table.make ~id:"E17" ~title:"ablation: arrow notification leg (R = V)"
    ~paper_ref:"Section 4 delay semantics vs the Section 1 application's needs"
    ~headers:
      [ "topology"; "n"; "plain total"; "notify total"; "ratio"; "plain msgs"; "notify msgs"; "valid" ]
    ~notes:
      [
        "the notify leg routes each answer back to its origin along the tree: delay and messages grow by a topology-dependent constant";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E18: the asynchronous model (Section 2.1's closing discussion) -
   safety survives arbitrary link delays; cost degrades gracefully
   with jitter for queuing and counting alike.                         *)

let e18_async_sensitivity ?quick:(quick = false) () =
  let module Async = Countq_simnet.Async in
  let side = if quick then 6 else 10 in
  let g = Gen.square_mesh side in
  let n = Graph.n g in
  let requests = all_nodes n in
  let tree = Spanning.best_for_arrow g in
  let delays =
    [
      ("constant-1", Async.Constant 1);
      ("constant-4", Async.Constant 4);
      ("uniform-1-4", Async.Uniform { min = 1; max = 4; seed = 0xa5L });
      ("uniform-1-16", Async.Uniform { min = 1; max = 16; seed = 0xa5L });
      ( "adversarial",
        Async.Per_message
          (fun ~src ~dst ~send_time -> 1 + ((src + (7 * dst) + send_time) mod 16)) );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, delay) ->
        let q =
          Arrow.Protocol.of_engine
            (Oneshot.async ~delay (Arrow.Protocol.one_shot ~tree ~requests ()))
        in
        let c =
          Counting.Counts.of_engine ~requests
            (Oneshot.async ~delay (Counting.Central.one_shot ~graph:g ~requests ()))
        in
        [
          [
            name;
            "queue/arrow";
            Table.cell_int q.total_delay;
            Table.cell_int q.max_delay;
            Table.cell_int q.rounds;
            Table.cell_bool (Result.is_ok q.order);
          ];
          [
            name;
            "count/central";
            Table.cell_int c.total_delay;
            Table.cell_int c.max_delay;
            Table.cell_int c.rounds;
            Table.cell_bool (Result.is_ok c.valid);
          ];
        ])
      delays
  in
  Table.make ~id:"E18"
    ~title:
      (Printf.sprintf "asynchronous execution on a %dx%d mesh (R = V)" side side)
    ~paper_ref:"Section 2.1 (the general asynchronous model)"
    ~headers:[ "link delays"; "protocol"; "total"; "max"; "finish"; "valid" ]
    ~notes:
      [
        "safety (total order / exact count set) must hold under every delay model;";
        "queuing keeps beating counting as jitter grows - the separation is not a lockstep artefact";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E19: fetch&add - the Section 5 open question's direction: a
   strictly stronger problem than counting at (here) identical cost.   *)

let e19_fetch_add ?quick:(quick = false) () =
  let module FA = Counting.Fetch_add in
  let rng = Rng.create (Int64.add seed 7L) in
  let sizes = if quick then [ 16; 64 ] else [ 16; 64; 256 ] in
  let rows =
    List.concat_map
      (fun n ->
        let g = Gen.complete n in
        let tree = Spanning.bfs g ~root:0 in
        let requests =
          List.map (fun v -> (v, 1 + Rng.below rng 9)) (all_nodes n)
        in
        let counting_requests = all_nodes n in
        let fetch_add inst = FA.of_engine ~requests (Oneshot.run inst) in
        let fa_central = fetch_add (FA.central ~graph:g ~requests ()) in
        let c_central =
          Run.counting ~graph:g ~protocol:`Central ~requests:counting_requests ()
        in
        let fa_comb = fetch_add (FA.combining ~tree ~requests ()) in
        let c_comb =
          Run.counting ~tree ~graph:g ~protocol:`Combining
            ~requests:counting_requests ()
        in
        [
          [
            Table.cell_int n;
            "central";
            Table.cell_int fa_central.total_delay;
            Table.cell_int c_central.total_delay;
            Table.cell_bool (fa_central.total_delay = c_central.total_delay);
            Table.cell_bool (Result.is_ok fa_central.valid);
          ];
          [
            Table.cell_int n;
            "combining";
            Table.cell_int fa_comb.total_delay;
            Table.cell_int c_comb.total_delay;
            Table.cell_bool (fa_comb.total_delay = c_comb.total_delay);
            Table.cell_bool (Result.is_ok fa_comb.valid);
          ];
        ])
      sizes
  in
  Table.make ~id:"E19" ~title:"fetch&add vs counting: same structure, same delay"
    ~paper_ref:"Section 5 open question; reference [5] (adding networks)"
    ~headers:
      [ "n"; "protocol"; "fetch&add total"; "counting total"; "equal"; "valid" ]
    ~notes:
      [
        "random increments in 1..9; returning prefix sums instead of ranks costs nothing extra";
        "in these tree/central structures - the coordination, not the payload, is the bottleneck";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E20: ablation - bitonic vs periodic counting networks.              *)

let e20_network_families ?quick:(quick = false) () =
  let widths = if quick then [ 4; 8 ] else [ 2; 4; 8; 16; 32 ] in
  let n = 64 in
  let g = Gen.complete n in
  let requests = all_nodes n in
  let rows =
    List.concat_map
      (fun width ->
        let make name net =
          let r =
            Counting.Counts.of_engine ~requests
              (Oneshot.run (Counting.Network.one_shot ~net ~graph:g ~requests ()))
          in
          [
            Table.cell_int width;
            name;
            Table.cell_int (Counting.Bitonic.depth net);
            Table.cell_int (Counting.Bitonic.size net);
            Table.cell_int r.total_delay;
            Table.cell_int r.rounds;
            Table.cell_int r.messages;
            Table.cell_bool (Result.is_ok r.valid);
          ]
        in
        [
          make "bitonic" (Counting.Bitonic.create ~width);
          make "periodic" (Counting.Periodic.create ~width);
        ])
      widths
  in
  Table.make ~id:"E20" ~title:"ablation: bitonic vs periodic counting networks (K_64, R = V)"
    ~paper_ref:"reference [1]: Aspnes-Herlihy-Shavit, both constructions"
    ~headers:
      [ "width"; "family"; "depth"; "balancers"; "total"; "rounds"; "messages"; "valid" ]
    ~notes:
      [
        "periodic trades ~2x depth/balancers for a regular repeating structure; both count correctly";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E21: the Section 2.1 simulation claim, measured - running a tree
   protocol in the strict base model (1 msg/round) costs at most the
   expanded-step width times its expanded-step cost.                   *)

let e21_expansion_soundness ?quick:(quick = false) () =
  let cases =
    if quick then [ ("mesh-8x8", Gen.square_mesh 8) ]
    else
      [
        ("mesh-16x16", Gen.square_mesh 16);
        ("pbt-2ary-h7", Gen.perfect_tree ~arity:2 ~height:7);
        ("caterpillar-64", Gen.caterpillar ~spine:64 ~legs:1);
        ("complete-128", Gen.complete 128);
      ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let n = Graph.n g in
        let requests = all_nodes n in
        let tree = Spanning.best_for_arrow g in
        let c = max 1 (Tree.max_degree tree) in
        let expanded = Run.queuing ~tree ~graph:g ~protocol:`Arrow ~requests () in
        let base =
          Arrow.Protocol.of_engine
            (Oneshot.run
               (Arrow.Protocol.one_shot ~config:Engine.default_config ~tree
                  ~requests ()))
        in
        [
          name;
          Table.cell_int n;
          Table.cell_int c;
          Table.cell_int expanded.total_delay;
          Table.cell_int base.total_delay;
          Table.cell_int (c * expanded.total_delay);
          Table.cell_bool (base.total_delay <= c * expanded.total_delay);
          Table.cell_bool (Result.is_ok base.order && expanded.valid);
        ])
      cases
  in
  Table.make ~id:"E21"
    ~title:"expanded-step soundness: arrow in the strict base model (R = V)"
    ~paper_ref:"Section 2.1 (simulating a capacity-c step by c base steps)"
    ~headers:
      [ "topology"; "n"; "c"; "expanded total"; "base total"; "c x expanded"; "base <= c x exp"; "valid" ]
    ~notes:
      [
        "the normalisation rule used throughout (multiply expanded delays by c) is an upper";
        "bound on true base-model cost - this table shows the slack is real but bounded";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E22: beyond the paper's named families - the separation on other
   classic constant-degree interconnection networks. The counting
   lower bound (Thm 3.5) applies to every graph; queuing stays
   O(n log n) on any constant-degree spanning tree (Cor 4.2), so the
   gap should appear here too even without a Hamilton-path proof.      *)

let e22_other_networks ?quick:(quick = false) () =
  let rng = Rng.create (Int64.add seed 8L) in
  let cases =
    if quick then [ ("de-bruijn-6", Gen.de_bruijn 6) ]
    else
      [
        ("de-bruijn-8", Gen.de_bruijn 8);
        ("ccc-5", Gen.cube_connected_cycles 5);
        ("butterfly-5", Gen.butterfly 5);
        ("random-4-regular-200", Gen.random_regular rng ~n:200 ~degree:4);
        ("torus-16x16", Gen.torus ~dims:[ 16; 16 ]);
      ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let n = Graph.n g in
        let requests = all_nodes n in
        let tree = Spanning.best_for_arrow g in
        let q = Run.queuing ~tree ~graph:g ~protocol:`Arrow ~requests () in
        let c = Run.best_counting ~graph:g ~requests () in
        [
          name;
          Table.cell_int n;
          Table.cell_int (Graph.max_degree g);
          Table.cell_int (Tree.max_degree tree);
          Table.cell_int q.normalized_delay;
          c.protocol;
          Table.cell_int c.normalized_delay;
          Table.cell_float (ratio c.normalized_delay q.normalized_delay);
          Table.cell_bool (q.valid && c.valid);
        ])
      cases
  in
  Table.make ~id:"E22"
    ~title:"the separation on other constant-degree interconnection networks"
    ~paper_ref:"Theorem 3.5 + Corollary 4.2 (beyond the named families)"
    ~headers:
      [ "network"; "n"; "deg"; "tree deg"; "arrow total"; "best counting"; "counting total"; "count/queue"; "valid" ]
    ~notes:
      [
        "spanning trees from the DFS/BFS fallback (no Hamilton-path construction is known here);";
        "the measured gap matches the paper's picture even outside its proved families";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E23: observed influence sets - Section 3's A(i, t) replayed on real
   executions. Counting must aggregate knowledge of all of R (its
   maximum influence set reaches |R|); queuing's stays O(1).           *)

let e23_observed_influence ?quick:(quick = false) () =
  let module Observed = Bounds.Observed in
  let cases =
    if quick then [ ("complete-32", Gen.complete 32) ]
    else
      [
        ("complete-64", Gen.complete 64);
        ("mesh-8x8", Gen.square_mesh 8);
        ("list-64", Gen.path 64);
      ]
  in
  let rng = Rng.create (Int64.add seed 9L) in
  let rows =
    List.concat_map
      (fun (name, g) ->
        let n = Graph.n g in
        (* Half density: queue() messages travel real distances, so the
           arrow's influence growth gets every chance to show itself. *)
        let requests = sample_requests rng ~k:(n / 2) ~n in
        let k = List.length requests in
        let tree = Spanning.best_for_arrow g in
        let traced inst =
          let tap, events = Countq_simnet.Trace.tap () in
          ignore (Oneshot.run ~tap inst);
          events ()
        in
        let arrow_events =
          traced
            (Arrow.Protocol.one_shot ~config:Engine.default_config ~tree
               ~requests ())
        in
        let counting_events =
          traced (Counting.Central.one_shot ~graph:g ~requests ())
        in
        let describe proto events =
          let growth = Observed.of_trace ~n events in
          let final = growth.max_influence.(growth.rounds) in
          [
            name;
            Table.cell_int n;
            Table.cell_int k;
            proto;
            Table.cell_int growth.rounds;
            Table.cell_int final;
            Table.cell_bool (Observed.within_envelope growth);
          ]
        in
        [
          describe "queue/arrow" arrow_events;
          describe "count/central" counting_events;
        ])
      cases
  in
  Table.make ~id:"E23"
    ~title:"observed influence sets A(i,t): local queuing vs global counting"
    ~paper_ref:"Section 3 (Definitions 3.1-3.3, Lemma 3.4), measured on real runs"
    ~headers:
      [ "topology"; "n"; "k"; "protocol"; "rounds"; "max |A(i,t)| at end"; "within tow(2t)" ]
    ~notes:
      [
        "base-model runs (capacity 1); message snapshots replayed exactly (FIFO per link)";
        "counting's influence must reach |R| = k (some node outputs count k); the arrow's stays";
        "tiny - the information-theoretic heart of why counting is harder, visible in the traces";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E24: queuing-protocol ablation - the arrow vs the folk baselines it
   displaced (central queue, circulating token), across load levels.   *)

let e24_queuing_ablation ?quick:(quick = false) () =
  let rng = Rng.create (Int64.add seed 10L) in
  let cases =
    if quick then [ ("mesh-8x8", Gen.square_mesh 8) ]
    else
      [
        ("mesh-16x16", Gen.square_mesh 16);
        ("pbt-2ary-h7", Gen.perfect_tree ~arity:2 ~height:7);
        ("complete-128", Gen.complete 128);
      ]
  in
  let densities = if quick then [ 0.05; 1.0 ] else [ 0.02; 0.25; 1.0 ] in
  let rows =
    List.concat_map
      (fun (name, g) ->
        let n = Graph.n g in
        List.concat_map
          (fun density ->
            let k = max 1 (int_of_float (density *. float_of_int n)) in
            let requests =
              if k >= n then all_nodes n else sample_requests rng ~k ~n
            in
            List.map
              (fun protocol ->
                let s = Run.queuing ~graph:g ~protocol ~requests () in
                [
                  name;
                  Table.cell_int n;
                  Table.cell_int k;
                  s.protocol;
                  Table.cell_int s.normalized_delay;
                  Table.cell_int s.max_delay;
                  Table.cell_int s.messages;
                  Table.cell_bool s.valid;
                ])
              [ `Arrow; `Central; `Token_ring ])
          densities)
      cases
  in
  Table.make ~id:"E24" ~title:"queuing-protocol ablation: arrow vs the folk baselines"
    ~paper_ref:"Raymond TOCS'89 motivation; Section 4"
    ~headers:
      [ "topology"; "n"; "k"; "protocol"; "normalised total"; "max"; "messages"; "valid" ]
    ~notes:
      [
        "token ring pays a full Euler walk regardless of load; the central queue concentrates";
        "contention; the arrow adapts to locality - the reason Raymond's tree algorithm exists";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E25: measured growth exponents - fit cost ~ c n^e on sweeps and
   compare e against the theorems' predictions. The separations become
   a single number: counting's exponent strictly exceeds queuing's.    *)

let e25_growth_exponents ?quick:(quick = false) ?ctx () =
  let ctx = Sweep.of_option ctx in
  (* Full-mode ceilings doubled with the active-set engine: longer
     sweeps pin the fitted exponents down harder. *)
  let list_sizes =
    if quick then [ 32; 64; 128 ] else [ 64; 128; 256; 512; 1024 ]
  in
  let mesh_sides = if quick then [ 6; 8; 10 ] else [ 8; 12; 16; 20; 30 ] in
  let kn_sizes = if quick then [ 32; 64; 128 ] else [ 64; 128; 256; 512; 1024 ] in
  let star_sizes = if quick then [ 32; 64; 128 ] else [ 32; 64; 128; 256; 512 ] in
  (* One sweep point per (family, size): its value is the raw
     (n, queue total, count total) triple, so the power-law fits below
     always see the whole series whether the points came from the pool
     or the cache. The mesh is named by its side, which determines n. *)
  let families =
    [
      ("list", List.map (fun n -> (n, fun () -> Gen.path n)) list_sizes);
      ("mesh", List.map (fun s -> (s, fun () -> Gen.square_mesh s)) mesh_sides);
      ("complete", List.map (fun n -> (n, fun () -> Gen.complete n)) kn_sizes);
      ("star", List.map (fun n -> (n, fun () -> Gen.star n)) star_sizes);
    ]
  in
  let point_name family param = Printf.sprintf "%s:%d" family param in
  let points =
    List.concat_map
      (fun (family, cases) ->
        List.map
          (fun (param, mk) ->
            Sweep.point ~name:(point_name family param) (fun ~rng:_ ->
                let g = mk () in
                let n = Graph.n g in
                let requests = all_nodes n in
                let q = Run.queuing ~graph:g ~protocol:`Arrow ~requests () in
                let c =
                  Run.best_counting ~pool:(Sweep.pool ctx) ~graph:g ~requests
                    ()
                in
                Json.Arr
                  [
                    Json.Int n;
                    Json.Int q.normalized_delay;
                    Json.Int c.normalized_delay;
                  ]))
          cases)
      families
  in
  let valid = function
    | Json.Arr [ Json.Int _; Json.Int _; Json.Int _ ] -> true
    | _ -> false
  in
  let values, _stats = Sweep.run ~valid ctx ~experiment:"E25" points in
  let by_name = Hashtbl.create 32 in
  List.iter2
    (fun name v -> Hashtbl.replace by_name name v)
    (List.concat_map
       (fun (family, cases) ->
         List.map (fun (param, _) -> point_name family param) cases)
       families)
    values;
  let series_of family =
    let cases = List.assoc family families in
    List.map
      (fun (param, _) ->
        match Hashtbl.find by_name (point_name family param) with
        | Json.Arr [ Json.Int n; Json.Int q; Json.Int c ] -> (n, q, c)
        | _ -> assert false)
      cases
  in
  let row family ~queue_predicted ~count_predicted =
    let series = series_of family in
    let qfit =
      Growth.fit_power_law (List.map (fun (n, q, _) -> (n, q)) series)
    in
    let cfit =
      Growth.fit_power_law (List.map (fun (n, _, c) -> (n, c)) series)
    in
    (* Queuing exponents come from upper-bound theorems: two-sided
       check. Counting exponents come from lower bounds: the fit must
       not undercut the prediction (exceeding it is consistent - e.g.
       the best measured counting on moderate meshes is the sweep's n^2,
       above the Omega(n^1.5) floor). *)
    let queue_ok = abs_float (qfit.exponent -. queue_predicted) <= 0.25 in
    let count_ok = cfit.exponent >= count_predicted -. 0.1 in
    [
      family;
      Printf.sprintf "%d sizes" (List.length series);
      Format.asprintf "%a" Growth.pp_fit qfit;
      Table.cell_float queue_predicted;
      Format.asprintf "%a" Growth.pp_fit cfit;
      Table.cell_float count_predicted;
      Table.cell_bool (queue_ok && count_ok);
      (* On K_n the proven gap is log* n - sub-polynomial - so even a
         small exponent excess counts as separation. The star is the
         paper's proven NON-separation, so "no" there is the expected
         answer, not a failing check. *)
      (if cfit.exponent > qfit.exponent +. 0.05 then "yes"
       else "no (as proven)");
    ]
  in
  let rows =
    [
      row "list" ~queue_predicted:1.0 ~count_predicted:2.0;
      row "mesh" ~queue_predicted:1.0 ~count_predicted:1.5;
      row "complete" ~queue_predicted:1.0 ~count_predicted:1.1
      (* n log* n: indistinguishable from ~n^1.1 at these scales *);
      row "star" ~queue_predicted:2.0 ~count_predicted:2.0
      (* the non-separation: both quadratic *);
    ]
  in
  Table.make ~id:"E25" ~title:"measured growth exponents vs the theorems"
    ~paper_ref:"Theorems 3.5/3.6/4.5/4.13 and Section 5, as fitted exponents"
    ~headers:
      [ "family"; "series"; "queue fit"; "queue e*"; "count fit"; "count e* (floor)"; "fits consistent"; "count > queue" ]
    ~notes:
      [
        "cost ~ c n^e fitted by least squares in log-log space over R = V sweeps;";
        "e* = predicted exponent; 'count > queue' is the separation in exponent form";
        "(on the star both are ~2 and it correctly reads NO - see the 'fits match' column instead)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E26: exhaustive schedule verification - model-check safety on every
   interleaving of small instances (the property tests only sample).   *)

let e26_exhaustive_verification ?quick:(quick = false) () =
  let module Explore = Countq_simnet.Explore in
  let zero_stats =
    { Explore.explored = 0; terminal = 0; max_frontier = 0; dedup_hits = 0 }
  in
  let case protocol name g requests =
    let (Run.Instance { inst; _ }) = Run.instance ~graph:g ~requests protocol in
    let verdict, stats =
      match Oneshot.explore inst with
      | Explore.Exhaustive stats -> ("all schedules safe", stats)
      | Explore.Budget_exhausted stats -> ("budget exhausted (partial)", stats)
      | exception Explore.Violation m -> ("VIOLATION: " ^ m, zero_stats)
    in
    [
      name;
      Run.label protocol;
      Table.cell_int inst.spec.expected;
      Table.cell_int stats.explored;
      Table.cell_int stats.terminal;
      Table.cell_int stats.dedup_hits;
      verdict;
    ]
  in
  (* Ceilings chosen so the full table stays under ~2s: the canonical
     encoding plus the partial-order reduction put 6-7 node instances
     (hundreds of thousands of configs) inside the default budget,
     where the seed explorer topped out at 4-5 nodes. *)
  let rows =
    if quick then
      [
        case `Arrow "path-4" (Gen.path 4) [ 1; 2; 3 ];
        case `Central_count "star-4" (Gen.star 4) [ 1; 2; 3 ];
      ]
    else
      [
        case `Arrow "path-4" (Gen.path 4) [ 1; 2; 3 ];
        case `Arrow "mesh-2x2" (Gen.square_mesh 2) [ 0; 1; 2; 3 ];
        case `Arrow "complete-6" (Gen.complete 6) [ 0; 1; 2; 3; 4; 5 ];
        case `Arrow "path-7" (Gen.path 7) [ 0; 1; 2; 3; 4; 5; 6 ];
        case `Arrow "star-6" (Gen.star 6) [ 1; 2; 3; 4; 5 ];
        case `Arrow "star-7" (Gen.star 7) [ 1; 2; 3; 4; 5; 6 ];
        case `Central_count "path-6" (Gen.path 6) [ 0; 2; 3; 5 ];
        case `Central_count "star-6" (Gen.star 6) [ 1; 2; 3; 4; 5 ];
        case `Central_count "complete-6" (Gen.complete 6) [ 0; 1; 2; 3; 4; 5 ];
      ]
  in
  Table.make ~id:"E26" ~title:"exhaustive schedule verification on small instances"
    ~paper_ref:"safety of the Section 2.2 specifications under EVERY schedule"
    ~headers:
      [ "instance"; "protocol"; "k"; "configs"; "terminals"; "dedup"; "verdict" ]
    ~notes:
      [
        "fully asynchronous interleaving semantics over-approximate both engines' schedules;";
        "'all schedules safe' is a proof by exhaustion for that instance, not a sample;";
        "configs counts canonical classes after partial-order reduction (transmits collapsed)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E27: robustness - queuing and counting under link churn.            *)

let churn_verdict (s : Run.churn_summary) =
  if s.c_completed = s.c_expected && s.c_valid && s.c_safe && s.c_live then "ok"
  else if not s.c_safe then "UNSAFE"
  else if s.c_stalled then "stalled"
  else
    Printf.sprintf "lost %d op(s)" (s.c_expected - s.c_completed)

let churn_row ~label (s : Run.churn_summary) =
  [
    label;
    s.c_protocol;
    Printf.sprintf "%d/%d" s.c_completed s.c_expected;
    Table.cell_bool s.c_valid;
    Table.cell_int s.c_rounds;
    Table.cell_int s.c_extra_rounds;
    Table.cell_int s.c_messages;
    Table.cell_int s.c_extra_messages;
    Table.cell_int (s.topo.link_drops + s.topo.node_drops);
    churn_verdict s;
  ]

let churn_headers =
  [
    "adversary";
    "protocol";
    "done";
    "valid";
    "rounds";
    "+rounds";
    "msgs";
    "+msgs";
    "dropped";
    "verdict";
  ]

let e27_churn_degradation ?quick:(quick = false) ?ctx () =
  let module Dynamic = Countq_simnet.Dynamic in
  let ctx = Sweep.of_option ctx in
  let g = if quick then Gen.square_mesh 3 else Gen.square_mesh 4 in
  let requests = all_nodes (Graph.n g) in
  let rates = if quick then [ 0.0; 0.3 ] else [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ] in
  let protocols =
    [ `Arrow_static; `Arrow_routed; `Dynamic_queue; `Central_count ]
  in
  let points =
    List.map
      (fun rate ->
        Sweep.rows_point
          ~name:
            (Printf.sprintf "churn:mesh%d:rate%.2f" (Graph.n g) rate)
          (fun ~rng:_ ->
            let sched = Dynamic.link_flaps ~seed ~rate ~epoch:4 g in
            let label = Printf.sprintf "flaps %.2f" rate in
            List.map
              (fun protocol ->
                churn_row ~label
                  (Run.run_churn ~pool:(Sweep.pool ctx) ~ack_timeout:4 ~graph:g
                     ~protocol ~sched ~requests ()))
              protocols))
      rates
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E27" points in
  Table.make ~id:"E27"
    ~title:"queuing and counting under link churn (flap-rate sweep)"
    ~paper_ref:"Sharma-Busch (distributed queuing in dynamic networks)"
    ~headers:churn_headers
    ~notes:
      [
        Printf.sprintf
          "%d-node mesh, R = V; each epoch of 4 rounds every link is down \
           independently with the given rate"
          (Graph.n g);
        "+rounds/+msgs are measured against the identity-schedule baseline of \
         the same protocol";
        "arrow-static is the paper's protocol left on its spanning tree: one \
         flapped tree edge loses the operation";
        "the dynamic queue floods monotone knowledge and needs no fixed \
         structure; arrow+route re-routes tree edges around cuts";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E28: robustness - cost vs the connectivity interval T.              *)

let e28_interval_connectivity ?quick:(quick = false) ?ctx () =
  let module Dynamic = Countq_simnet.Dynamic in
  let ctx = Sweep.of_option ctx in
  let g = if quick then Gen.complete 6 else Gen.complete 8 in
  let requests = all_nodes (Graph.n g) in
  let ts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let protocols = [ `Dynamic_queue; `Arrow_routed ] in
  let points =
    List.map
      (fun t ->
        Sweep.rows_point
          ~name:(Printf.sprintf "tinterval:K%d:t%d" (Graph.n g) t)
          (fun ~rng:_ ->
            let sched = Dynamic.t_interval ~seed ~t g in
            let label = Printf.sprintf "T=%d" t in
            List.map
              (fun protocol ->
                churn_row ~label
                  (Run.run_churn ~pool:(Sweep.pool ctx) ~ack_timeout:4 ~graph:g
                     ~protocol ~sched ~requests ()))
              protocols))
      ts
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E28" points in
  Table.make ~id:"E28"
    ~title:"dynamic queuing vs the T-interval-connectivity adversary"
    ~paper_ref:"Sharma-Busch (dynamic queuing); T-interval connectivity (Kuhn-Lynch-Oshman)"
    ~headers:churn_headers
    ~notes:
      [
        Printf.sprintf
          "K_%d, R = V; in each window of T rounds only a fresh random \
           spanning tree of the base graph is up"
          (Graph.n g);
        "connectivity holds every round, but the surviving structure changes \
         completely between windows";
        "liveness must hold at every T; the cost columns show the graceful \
         degradation as T shrinks";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E29: open loop - latency vs offered load, counting vs queuing.      *)

let e29_latency_vs_load ?quick:(quick = false) ?ctx () =
  let module Implicit = Countq_topology.Implicit in
  let ctx = Sweep.of_option ctx in
  (* Sharded runs are bit-identical, but they get their own point names:
     a cache hit from a sequential run would silently skip the sharded
     execution the caller asked to exercise. *)
  let shards = Sweep.shards ctx in
  let stag = if shards >= 2 then Printf.sprintf ":s%d" shards else "" in
  let n = if quick then 256 else 1024 in
  let horizon = if quick then 256 else 512 in
  let topo = Implicit.list n in
  let rates = if quick then [ 0.25; 1.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let workloads = [ Load.Queuing; Load.Counting ] in
  let points =
    List.concat_map
      (fun w ->
        List.map
          (fun rate ->
            Sweep.rows_point
              ~name:
                (Printf.sprintf "load:%s:h%d:%s:r%g%s" (Implicit.label topo)
                   horizon (Load.workload_label w) rate stag)
              (fun ~rng:_ ->
                let s =
                  Load.run ~seed ~shards ~topo ~workload:w
                    ~arrival:(Load.Poisson rate) ~horizon ()
                in
                [
                  [
                    s.workload;
                    Table.cell_float ~decimals:2 s.offered;
                    Table.cell_int s.injected;
                    Table.cell_int s.completed;
                    Table.cell_float ~decimals:3 s.throughput;
                    Table.cell_float ~decimals:1 s.p50;
                    Table.cell_float ~decimals:1 s.p95;
                    Table.cell_float ~decimals:1 s.p99;
                    Table.cell_int s.max_backlog;
                    Table.cell_int s.peak_in_flight;
                    (* not cell_bool: yes/NO cells are reserved for the
                       paper's inequality checks, and queuing staying
                       unsaturated is the expected shape, not a failure *)
                    (if s.saturated then "sat" else "ok");
                  ];
                ]))
          rates)
      workloads
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E29" points in
  Table.make ~id:"E29"
    ~title:"latency vs offered load - the separation as a saturation curve"
    ~paper_ref:"Ghodselahi-Kuhn (sustained request streams); the Theorem 3.6 / 4.5 list separation under load"
    ~headers:
      [
        "workload"; "offered"; "injected"; "done"; "thr"; "p50"; "p95"; "p99";
        "backlog"; "in-flight"; "saturated";
      ]
    ~notes:
      [
        Printf.sprintf
          "%d-node implicit list, Poisson arrivals for %d rounds, drain %d \
           more; delays in rounds over completed operations" n horizon horizon;
        "counting round-trips every operation through the centre node, whose \
         unit receive capacity caps service at ~1 op/round: latency explodes \
         at the knee and the run saturates";
        "queuing hands each operation to the current tail, so service is \
         distributed and the same offered load stays far below saturation";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E30: the event engine's reach - one-shot runs up to a million nodes.*)

let e30_event_engine_scaling ?quick:(quick = false) ?ctx () =
  let module Implicit = Countq_topology.Implicit in
  let module Event = Countq_simnet.Event_engine in
  let ctx = Sweep.of_option ctx in
  let shards = Sweep.shards ctx in
  let stag = if shards >= 2 then Printf.sprintf ":s%d" shards else "" in
  let q_sizes =
    if quick then [ 1_000; 10_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let c_sizes = if quick then [ 1_000 ] else [ 1_000; 10_000 ] in
  let stride = 16 in
  let point w n =
    Sweep.rows_point
      ~name:
        (Printf.sprintf "scale:list%d:%s:k%d%s" n (Load.workload_label w)
           stride stag)
      (fun ~rng:_ ->
        let topo = Implicit.list n in
        let requests = List.init (n / stride) (fun i -> i * stride) in
        let stats = Event.fresh_stats () in
        let s = Load.one_shot ~shards ~stats ~topo ~workload:w ~requests () in
        [
          [
            Load.workload_label w;
            Table.cell_int n;
            Table.cell_int s.os_requests;
            Table.cell_int s.os_completed;
            Table.cell_int s.os_rounds;
            Table.cell_int s.os_messages;
            Table.cell_float ~decimals:1 (ratio s.os_messages s.os_requests);
            Table.cell_int stats.Event.touched;
            Table.cell_int stats.Event.executed_rounds;
          ];
        ])
  in
  let points =
    List.map (point Load.Queuing) q_sizes
    @ List.map (point Load.Counting) c_sizes
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E30" points in
  Table.make ~id:"E30"
    ~title:"event-engine n-scaling on implicit lists (to a million nodes)"
    ~paper_ref:"Theorems 3.6 and 4.5 on the list, at n = 10^6"
    ~headers:
      [
        "workload"; "n"; "k"; "done"; "rounds"; "messages"; "msgs/op";
        "touched"; "exec rounds";
      ]
    ~notes:
      [
        "one-shot runs, every 16th node requesting, on the implicit list - \
         the graph is never materialised and only touched nodes hold state";
        "queuing's messages grow linearly in n (each request meets the \
         reversed path of the next requester within a stride), so a million \
         nodes stay in reach";
        "counting's messages grow as ops x distance-to-centre - quadratic on \
         a list - which is why its rows stop at n = 10^4: the separation is \
         the scaling limit itself";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E31: streaming telemetry - constant-memory long-horizon runs.       *)

let e31_streaming_telemetry ?quick:(quick = false) ?ctx () =
  let module Implicit = Countq_topology.Implicit in
  let module Telemetry = Countq_simnet.Telemetry in
  let ctx = Sweep.of_option ctx in
  let side = if quick then 32 else 100 in
  let topo = Implicit.torus ~dims:[ side; side ] in
  (* Cross-check leg: small enough to retain every completion, run
     both ways on the same seed and compare percentiles. *)
  let xhorizon = if quick then 256 else 2048 in
  let xrate = if quick then 4.0 else 16.0 in
  (* Long leg: streaming only - the retained path would hold one span
     per operation. *)
  let horizon = if quick then 1024 else 16_384 in
  let rate = if quick then 8.0 else 62.0 in
  let row label (s : Load.summary) ~err ~windows =
    [
      label;
      Table.cell_int (Implicit.n topo);
      Table.cell_int s.horizon;
      Table.cell_int s.injected;
      Table.cell_int s.completed;
      Table.cell_int s.unfinished;
      Table.cell_float ~decimals:1 s.p50;
      Table.cell_float ~decimals:1 s.p95;
      Table.cell_float ~decimals:1 s.p99;
      Table.cell_int s.max_delay;
      (if s.sketched then "sketch" else "exact");
      err;
      windows;
    ]
  in
  let points =
    [
      Sweep.rows_point
        ~name:
          (Printf.sprintf "stream:xcheck:%s:h%d:r%g" (Implicit.label topo)
             xhorizon xrate)
        (fun ~rng:_ ->
          let go streaming =
            Load.run ~seed ~topo ~workload:Load.Queuing ~streaming
              ~arrival:(Load.Poisson xrate) ~horizon:xhorizon ()
          in
          let exact = go false and stream = go true in
          let rel a b = if a = 0. then 0. else abs_float (b -. a) /. a in
          let err =
            List.fold_left max 0.
              [
                rel exact.Load.p50 stream.Load.p50;
                rel exact.Load.p95 stream.Load.p95;
                rel exact.Load.p99 stream.Load.p99;
              ]
          in
          [
            row "retained" exact ~err:"-" ~windows:"-";
            row "streaming" stream
              ~err:(Printf.sprintf "%.2f%%" (100. *. err))
              ~windows:"-";
          ]);
      Sweep.rows_point
        ~name:
          (Printf.sprintf "stream:long:%s:h%d:r%g" (Implicit.label topo)
             horizon rate)
        (fun ~rng:_ ->
          let tl = Telemetry.create ~window_size:(max 1 (horizon / 32)) () in
          let s =
            Load.run ~seed ~topo ~workload:Load.Queuing ~streaming:true
              ~telemetry:tl ~arrival:(Load.Poisson rate) ~horizon ()
          in
          [
            row "streaming" s ~err:"-"
              ~windows:
                (Table.cell_int (List.length (Telemetry.windows tl)));
          ]);
    ]
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E31" points in
  Table.make ~id:"E31"
    ~title:"streaming telemetry - sketch percentiles at 10^6 operations"
    ~paper_ref:"Section 2.2 per-operation delays at 10^6 operations; HDR-sketch accuracy bound"
    ~headers:
      [
        "mode"; "n"; "horizon"; "injected"; "done"; "stranded"; "p50"; "p95";
        "p99"; "max"; "stats"; "err"; "windows";
      ]
    ~notes:
      [
        Printf.sprintf
          "%dx%d implicit torus, Poisson queuing arrivals; the cross-check \
           leg runs the same seed retained and streaming and reports the \
           worst percentile disagreement (bound: %.2f%% once the sketch \
           leaves exact mode)" side side
          (100. *. Countq_util.Sketch.relative_error);
        "the long leg retains no spans: delays fold into a fixed-size \
         log-bucketed sketch, exemplars into a bounded reservoir, and the \
         attached telemetry ring keeps the last 64 windows - memory is O(1) \
         in the operation count";
        "stranded = injected but never completed within horizon + drain; \
         the streaming path counts them without a per-operation table";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E32: counting at 10^6 - the combining funnel on implicit trees.     *)

let e32_funnel_scaling ?quick:(quick = false) ?ctx () =
  let module Implicit = Countq_topology.Implicit in
  let module Event = Countq_simnet.Event_engine in
  let module Funnel = Countq_counting.Funnel in
  let ctx = Sweep.of_option ctx in
  let shards = Sweep.shards ctx in
  let stag = if shards >= 2 then Printf.sprintf ":s%d" shards else "" in
  let f_sizes =
    if quick then [ 1_000; 10_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  let c_sizes = if quick then [ 1_000 ] else [ 10_000; 100_000 ] in
  let stride = 16 in
  let point w n =
    let k = n / stride in
    let arity = Funnel.adaptive_width ~n ~concurrency:k in
    Sweep.rows_point
      ~name:
        (Printf.sprintf "funnel-scale:tree%d-%d:%s:k%d%s" arity n
           (Load.workload_label w) stride stag)
      (fun ~rng:_ ->
        let topo = Implicit.tree ~arity n in
        let requests = List.init k (fun i -> i * stride) in
        let stats = Event.fresh_stats () in
        let s = Load.one_shot ~shards ~stats ~topo ~workload:w ~requests () in
        [
          [
            Load.workload_label w;
            Table.cell_int n;
            Table.cell_int arity;
            Table.cell_int s.os_requests;
            Table.cell_int s.os_completed;
            Table.cell_int s.os_rounds;
            Table.cell_int s.os_messages;
            Table.cell_float ~decimals:1 (ratio s.os_messages s.os_requests);
            Table.cell_int stats.Event.touched;
            Table.cell_int stats.Event.executed_rounds;
          ];
        ])
  in
  let points =
    List.map (point Load.Funnel) f_sizes
    @ List.map (point Load.Counting) c_sizes
  in
  let rows, _stats = Sweep.run_rows ctx ~experiment:"E32" points in
  Table.make ~id:"E32"
    ~title:"combining-funnel counting on implicit trees (to a million nodes)"
    ~paper_ref:"exact counting at the event engine's reach (next to E30)"
    ~headers:
      [
        "workload"; "n"; "arity"; "k"; "done"; "rounds"; "messages";
        "msgs/op"; "touched"; "exec rounds";
      ]
    ~notes:
      [
        "one-shot runs, every 16th node requesting, on implicit balanced \
         trees whose arity is the adaptive width (1 + sqrt k, clamped to \
         [2, 64]) - the graph is never materialised and only the on-path \
         closure holds state";
        "funnel messages stay O(1) per operation at every size (one Up \
         and one Down per closure edge, combined en route), and rounds \
         scale with depth x arity (capacity-1 receive serialisation at \
         each combiner), independent of k - so exact counting reaches \
         n = 10^6, where E30's central counter stopped at 10^4";
        "the counting rows run the central fetch-and-add on the same \
         trees: messages per op are small (the tree is shallow) but every \
         operation serialises through the centre, so rounds grow linearly \
         in k - the separation the funnel's combining removes";
      ]
    rows

(* ------------------------------------------------------------------ *)

(* Most experiments ignore the sweep context; [lift] adapts them to the
   registry's uniform run type. *)
let lift run ?quick ?ctx:_ () = run ?quick ()

let all =
  [
    { id = "E1"; title = "model demo (Fig. 1)"; paper_ref = "Fig. 1"; run = lift e1_model_demo };
    {
      id = "E2";
      title = "counting lower bound, general graphs";
      paper_ref = "Theorem 3.5";
      run = lift e2_counting_lb_general;
    };
    {
      id = "E3";
      title = "counting lower bound, high diameter";
      paper_ref = "Theorem 3.6";
      run = e3_counting_lb_diameter;
    };
    {
      id = "E4";
      title = "influence growth envelope";
      paper_ref = "Lemmas 3.2-3.4";
      run = lift e4_influence_growth;
    };
    {
      id = "E5";
      title = "arrow vs 2x nearest-neighbour TSP";
      paper_ref = "Theorem 4.1";
      run = lift e5_arrow_vs_tsp;
    };
    {
      id = "E6";
      title = "list tours vs 3n";
      paper_ref = "Lemmas 4.3/4.4";
      run = lift e6_list_tsp;
    };
    {
      id = "E7";
      title = "perfect m-ary tree tours are O(n)";
      paper_ref = "Theorems 4.7/4.12";
      run = lift e7_mary_tree_tsp;
    };
    {
      id = "E8";
      title = "NN approximation quality";
      paper_ref = "Corollary 4.2";
      run = lift e8_nn_approximation;
    };
    {
      id = "E9";
      title = "the separation on Hamilton-path graphs";
      paper_ref = "Theorems 4.5/4.6";
      run = e9_hamilton_separation;
    };
    {
      id = "E10";
      title = "the separation on high-diameter graphs";
      paper_ref = "Theorem 4.13";
      run = e10_high_diameter_separation;
    };
    {
      id = "E11";
      title = "the star: no separation";
      paper_ref = "Section 5";
      run = lift e11_star_no_separation;
    };
    {
      id = "E12";
      title = "ordered multicast";
      paper_ref = "Section 1";
      run = e12_ordered_multicast;
    };
    {
      id = "E13";
      title = "long-lived arrow";
      paper_ref = "related work [8]";
      run = e13_long_lived_arrow;
    };
    {
      id = "E14";
      title = "ablation: arbitration policy";
      paper_ref = "Section 2.1 model";
      run = lift e14_arbiter_ablation;
    };
    {
      id = "E15";
      title = "ablation: counting-network width";
      paper_ref = "reference [1]";
      run = lift e15_network_width_ablation;
    };
    {
      id = "E16";
      title = "ablation: arrow spanning tree";
      paper_ref = "Theorem 4.5 vs Corollary 4.2";
      run = lift e16_arrow_tree_ablation;
    };
    {
      id = "E17";
      title = "ablation: notification overhead";
      paper_ref = "Section 4 semantics";
      run = lift e17_notify_overhead;
    };
    {
      id = "E18";
      title = "asynchronous execution";
      paper_ref = "Section 2.1 (async model)";
      run = lift e18_async_sensitivity;
    };
    {
      id = "E19";
      title = "fetch&add vs counting";
      paper_ref = "Section 5 open question";
      run = lift e19_fetch_add;
    };
    {
      id = "E20";
      title = "ablation: network families";
      paper_ref = "reference [1]";
      run = lift e20_network_families;
    };
    {
      id = "E21";
      title = "expanded-step soundness";
      paper_ref = "Section 2.1 simulation";
      run = lift e21_expansion_soundness;
    };
    {
      id = "E22";
      title = "other constant-degree networks";
      paper_ref = "Thm 3.5 + Cor 4.2";
      run = lift e22_other_networks;
    };
    {
      id = "E23";
      title = "observed influence sets";
      paper_ref = "Section 3, measured";
      run = lift e23_observed_influence;
    };
    {
      id = "E24";
      title = "queuing-protocol ablation";
      paper_ref = "Raymond TOCS'89";
      run = lift e24_queuing_ablation;
    };
    {
      id = "E25";
      title = "measured growth exponents";
      paper_ref = "all separations, fitted";
      run = e25_growth_exponents;
    };
    {
      id = "E26";
      title = "exhaustive schedule verification";
      paper_ref = "Section 2.2 safety";
      run = lift e26_exhaustive_verification;
    };
    {
      id = "E27";
      title = "queuing and counting under link churn";
      paper_ref = "Sharma-Busch (dynamic networks)";
      run = e27_churn_degradation;
    };
    {
      id = "E28";
      title = "cost vs connectivity interval T";
      paper_ref = "Sharma-Busch (dynamic networks)";
      run = e28_interval_connectivity;
    };
    {
      id = "E29";
      title = "latency vs offered load (open loop)";
      paper_ref = "sustained request streams";
      run = e29_latency_vs_load;
    };
    {
      id = "E30";
      title = "event-engine n-scaling to 10^6";
      paper_ref = "Theorems 3.6 and 4.5 at 10^6";
      run = e30_event_engine_scaling;
    };
    {
      id = "E31";
      title = "streaming telemetry at 10^6 operations";
      paper_ref = "Section 2.2 delays, sketched";
      run = e31_streaming_telemetry;
    };
    {
      id = "E32";
      title = "combining-funnel counting at 10^6";
      paper_ref = "exact counting at scale";
      run = e32_funnel_scaling;
    };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun s -> String.lowercase_ascii s.id = id) all
