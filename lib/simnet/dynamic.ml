(* Adversarial dynamic-topology schedules. See dynamic.mli. *)

module Graph = Countq_topology.Graph
module Rng = Countq_util.Rng

type schedule = {
  s_label : string;
  s_base : Graph.t;
  s_node_up : round:int -> node:int -> bool;
  s_link_up : round:int -> u:int -> v:int -> bool;
}

let label s = s.s_label
let base s = s.s_base

(* The schedule is defined for rounds >= 1 (round 0 issues the one-shot
   requests; no communication happens in it). *)
let clamp round = if round < 1 then 1 else round

let node_up s ~round ~node = s.s_node_up ~round:(clamp round) ~node

let link_up s ~round ~u ~v =
  let u, v = if u <= v then (u, v) else (v, u) in
  s.s_link_up ~round:(clamp round) ~u ~v

let usable s ~round ~u ~v =
  link_up s ~round ~u ~v
  && node_up s ~round ~node:u
  && node_up s ~round ~node:v

let all_up_node ~round:_ ~node:_ = true
let all_up_link ~round:_ ~u:_ ~v:_ = true

let identity g =
  { s_label = "identity"; s_base = g; s_node_up = all_up_node; s_link_up = all_up_link }

let of_fun ~label ?(node_up = all_up_node) ?(link_up = all_up_link) g =
  let link_up ~round ~u ~v =
    let u, v = if u <= v then (u, v) else (v, u) in
    link_up ~round ~u ~v
  in
  { s_label = label; s_base = g; s_node_up = node_up; s_link_up = link_up }

(* Per-epoch decisions are memoised so every query within an epoch sees
   one consistent sample; the per-epoch generator is derived from
   (seed, epoch) alone, so queries in any order replay identically.
   Handlers that route by the schedule query it from several domains in
   a sharded run, so the memo is locked; a memoised sample is never
   mutated again, so reading it needs no lock. *)
let epoch_rng seed epoch =
  Rng.create Int64.(add seed (mul (of_int (epoch + 1)) 0x9E3779B97F4A7C15L))

let memo_epochs compute =
  let cache = Hashtbl.create 16 in
  let lock = Mutex.create () in
  fun epoch ->
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt cache epoch with
        | Some x -> x
        | None ->
            let x = compute epoch in
            Hashtbl.add cache epoch x;
            x)

let check_rate rate name =
  if rate < 0. || rate > 1. then
    invalid_arg (Printf.sprintf "Dynamic.%s: rate must be in [0, 1]" name)

let check_epoch epoch name =
  if epoch < 1 then
    invalid_arg (Printf.sprintf "Dynamic.%s: epoch must be >= 1" name)

let link_flaps ~seed ~rate ?(epoch = 8) ?(protect = []) g =
  check_rate rate "link_flaps";
  check_epoch epoch "link_flaps";
  let edges = Graph.edges g in
  let protected v = List.mem v protect in
  let down_of = memo_epochs (fun e ->
      let rng = epoch_rng seed e in
      let down = Hashtbl.create 16 in
      List.iter
        (fun (u, v) ->
          (* One draw per edge per epoch, protected or not, so the
             stream position is independent of [protect]. *)
          let flip = Rng.float rng < rate in
          if flip && not (protected u || protected v) then
            Hashtbl.replace down (u, v) ())
        edges;
      down)
  in
  {
    s_label = Printf.sprintf "flaps(rate=%.2f,epoch=%d,seed=%Ld)" rate epoch seed;
    s_base = g;
    s_node_up = all_up_node;
    s_link_up = (fun ~round ~u ~v -> not (Hashtbl.mem (down_of ((round - 1) / epoch)) (u, v)));
  }

let node_churn ~seed ~rate ?(epoch = 8) ?(protect = []) g =
  check_rate rate "node_churn";
  check_epoch epoch "node_churn";
  let n = Graph.n g in
  let protected = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Dynamic.node_churn: protect out of range";
      protected.(v) <- true)
    protect;
  let down_of = memo_epochs (fun e ->
      let rng = epoch_rng seed e in
      let down = Array.make n false in
      for v = 0 to n - 1 do
        let flip = Rng.float rng < rate in
        if flip && not protected.(v) then down.(v) <- true
      done;
      down)
  in
  {
    s_label = Printf.sprintf "churn(rate=%.2f,epoch=%d,seed=%Ld)" rate epoch seed;
    s_base = g;
    s_node_up = (fun ~round ~node -> not (down_of ((round - 1) / epoch)).(node));
    s_link_up = all_up_link;
  }

(* Random spanning tree (forest on a disconnected base): Kruskal over a
   shuffled edge list with path-compressing union-find. *)
let random_spanning_tree rng g =
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  Rng.shuffle rng edges;
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let keep = Hashtbl.create (2 * n) in
  Array.iter
    (fun (u, v) ->
      let ru = find u and rv = find v in
      if ru <> rv then begin
        parent.(ru) <- rv;
        Hashtbl.replace keep (u, v) ()
      end)
    edges;
  keep

let windowed_up_set ~label ~seed ~window g extras =
  check_epoch window "t_interval";
  let up_of = memo_epochs (fun w ->
      let rng = epoch_rng seed w in
      let up = random_spanning_tree rng g in
      extras rng up;
      up)
  in
  {
    s_label = label;
    s_base = g;
    s_node_up = all_up_node;
    s_link_up = (fun ~round ~u ~v -> Hashtbl.mem (up_of ((round - 1) / window)) (u, v));
  }

let t_interval ~seed ~t g =
  windowed_up_set
    ~label:(Printf.sprintf "t-interval(T=%d,seed=%Ld)" t seed)
    ~seed ~window:t g
    (fun _rng _up -> ())

let periodic_rewire ~seed ~period ?(keep = 0.5) g =
  check_rate keep "periodic_rewire";
  let edges = Graph.edges g in
  windowed_up_set
    ~label:(Printf.sprintf "rewire(period=%d,keep=%.2f,seed=%Ld)" period keep seed)
    ~seed ~window:period g
    (fun rng up ->
      List.iter
        (fun (u, v) ->
          (* One draw per edge, tree or not, for a stable stream. *)
          let flip = Rng.float rng < keep in
          if flip && not (Hashtbl.mem up (u, v)) then Hashtbl.replace up (u, v) ())
        edges)

let tree_attack ?(period = 8) ~tree g =
  check_epoch period "tree_attack";
  let targets = Array.of_list (Graph.edges tree) in
  let k = Array.length targets in
  {
    s_label = Printf.sprintf "tree-attack(period=%d)" period;
    s_base = g;
    s_node_up = all_up_node;
    s_link_up =
      (fun ~round ~u ~v ->
        k = 0 || targets.((round - 1) / period mod k) <> (u, v));
  }

let partition ~at ~island g =
  let n = Graph.n g in
  let inside = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Dynamic.partition: island out of range";
      inside.(v) <- true)
    island;
  let islanders = List.sort_uniq compare island in
  {
    s_label =
      Printf.sprintf "partition(at=%d,island={%s})" at
        (String.concat "," (List.map string_of_int islanders));
    s_base = g;
    s_node_up = all_up_node;
    s_link_up = (fun ~round ~u ~v -> round < at || inside.(u) = inside.(v));
  }

let up_neighbors s ~round v =
  if not (node_up s ~round ~node:v) then []
  else
    Array.fold_right
      (fun w acc -> if usable s ~round ~u:v ~v:w then w :: acc else acc)
      (Graph.neighbors (base s) v)
      []

let reachable s ~round ~from =
  let n = Graph.n (base s) in
  let seen = Array.make n false in
  seen.(from) <- true;
  let q = Queue.create () in
  Queue.push from q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.push w q
        end)
      (up_neighbors s ~round v)
  done;
  seen

let next_hop s ~round ~src ~dst =
  if src = dst then None
  else begin
    let n = Graph.n (base s) in
    let prev = Array.make n (-1) in
    prev.(src) <- src;
    let q = Queue.create () in
    Queue.push src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun w ->
          if prev.(w) < 0 then begin
            prev.(w) <- v;
            if w = dst then found := true else Queue.push w q
          end)
        (up_neighbors s ~round v)
    done;
    if not !found then None
    else begin
      (* Walk back from [dst] to the node whose predecessor is [src]. *)
      let rec back v = if prev.(v) = src then v else back prev.(v) in
      Some (back dst)
    end
  end

let describe_cut s ~round ~from =
  let seen = reachable s ~round ~from in
  let collect want =
    let acc = ref [] in
    for v = Array.length seen - 1 downto 0 do
      if seen.(v) = want then acc := v :: !acc
    done;
    !acc
  in
  let fmt vs =
    let vs = List.map string_of_int vs in
    let shown, more =
      let rec take k = function
        | [] -> ([], 0)
        | _ :: _ as l when k = 0 -> ([], List.length l)
        | x :: rest ->
            let taken, dropped = take (k - 1) rest in
            (x :: taken, dropped)
      in
      take 16 vs
    in
    String.concat "," shown ^ if more > 0 then Printf.sprintf ",+%d" more else ""
  in
  match collect false with
  | [] -> Printf.sprintf "node %d reaches the whole network in round %d" from round
  | cut ->
      Printf.sprintf "node %d reaches {%s} but is cut off from {%s} in round %d"
        from (fmt (collect true)) (fmt cut) round

type stats = { link_drops : int; node_drops : int }

let no_stats = { link_drops = 0; node_drops = 0 }

type runtime = {
  r_sched : schedule;
  mutable r_link_drops : int;
  mutable r_node_drops : int;
}

let start s = { r_sched = s; r_link_drops = 0; r_node_drops = 0 }
let sched r = r.r_sched
let note_link_drop r = r.r_link_drops <- r.r_link_drops + 1
let note_node_drop r = r.r_node_drops <- r.r_node_drops + 1
let stats r = { link_drops = r.r_link_drops; node_drops = r.r_node_drops }

let pp_stats ppf s =
  Format.fprintf ppf "%d link drops, %d node drops" s.link_drops s.node_drops
