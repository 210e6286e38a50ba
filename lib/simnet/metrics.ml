(* Per-node / per-edge execution metrics. See metrics.mli.

   Per-node counters are plain int arrays; per-directed-edge counters
   live in one CSR-indexed block keyed by the RECEIVER's row (slot of
   edge src -> dst = dst's base + position of src in dst's sorted
   neighbour array), so a hook is a short neighbour search and a couple
   of array increments — no hashing, no allocation. *)

module Graph = Countq_topology.Graph

(* Per-node send/receive totals are NOT maintained online: they are row
   (and column) sums of the per-edge counters, computed at snapshot
   time, which halves the array traffic on the two per-message hooks. *)
type t = {
  nodes : int;
  (* per-node (rare events only) *)
  drops : int array;
  dups : int array;
  delays : int array;
  crash_drops : int array;
  peak_backlog : int array;
  busy : int array;
  last_busy : int array;  (* last round counted into [busy]; -1 = none *)
  (* per-directed-edge, CSR-indexed *)
  nbrs : int array array;  (* sorted neighbour arrays, aliased from the graph *)
  off : int array;  (* off.(v) = CSR base of v's outgoing edge slots *)
  e_sends : int array;
  e_receives : int array;
  e_drops : int array;
  e_dups : int array;
  e_delays : int array;
}

let create ~graph =
  let nodes = Graph.n graph in
  let nbrs = Array.init nodes (Graph.neighbors graph) in
  let off = Array.make (nodes + 1) 0 in
  for v = 0 to nodes - 1 do
    off.(v + 1) <- off.(v) + Array.length nbrs.(v)
  done;
  let m2 = off.(nodes) in
  {
    nodes;
    drops = Array.make nodes 0;
    dups = Array.make nodes 0;
    delays = Array.make nodes 0;
    crash_drops = Array.make nodes 0;
    peak_backlog = Array.make nodes 0;
    busy = Array.make nodes 0;
    last_busy = Array.make nodes (-1);
    nbrs;
    off;
    e_sends = Array.make m2 0;
    e_receives = Array.make m2 0;
    e_drops = Array.make m2 0;
    e_dups = Array.make m2 0;
    e_delays = Array.make m2 0;
  }

let n t = t.nodes

(* Slot of the directed edge src -> dst: dst's CSR base + position of
   src in dst's sorted neighbour array — linear scan for the short
   rows that dominate the sparse topologies (list, ring, mesh), binary
   search beyond (the star's centre). Same indexing technique as
   Engine.nbr_slot. *)
let edge_slot t ~src ~dst =
  let nbrs = Array.unsafe_get t.nbrs dst in
  let len = Array.length nbrs in
  let pos =
    if len <= 8 then begin
      let i = ref 0 in
      while !i < len && Array.unsafe_get nbrs !i <> src do
        incr i
      done;
      if !i < len then !i else -1
    end
    else begin
      let lo = ref 0 and hi = ref (len - 1) in
      let res = ref (-1) in
      while !res < 0 && !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let x = Array.unsafe_get nbrs mid in
        if x = src then res := mid
        else if x < src then lo := mid + 1
        else hi := mid - 1
      done;
      !res
    end
  in
  if pos < 0 then invalid_arg "Metrics: not an edge of the graph";
  Array.unsafe_get t.off dst + pos

let[@inline] mark_busy t v round =
  if round > Array.unsafe_get t.last_busy v then begin
    Array.unsafe_set t.last_busy v round;
    Array.unsafe_set t.busy v (Array.unsafe_get t.busy v + 1)
  end

let bump a i = a.(i) <- a.(i) + 1

(* A fault outcome: counted against the edge and its sender. *)
let fault per_node per_edge t ~src ~dst =
  bump per_edge (edge_slot t ~src ~dst);
  bump per_node src

let tap t =
  {
    Engine.no_tap with
    on_transmit =
      (fun ~round ~src ~dst ->
        bump t.e_sends (edge_slot t ~src ~dst);
        mark_busy t src round);
    on_backlog =
      (fun ~round:_ ~node ~backlog ->
        if backlog > t.peak_backlog.(node) then t.peak_backlog.(node) <- backlog);
    on_deliver =
      (fun ~round ~src ~dst ->
        bump t.e_receives (edge_slot t ~src ~dst);
        mark_busy t dst round);
    on_drop = (fun ~round:_ -> fault t.drops t.e_drops t);
    on_duplicate = (fun ~round:_ -> fault t.dups t.e_dups t);
    on_delay = (fun ~round:_ -> fault t.delays t.e_delays t);
    on_down_drop = (fun ~round:_ ~src:_ ~dst -> bump t.crash_drops dst);
  }

type node_stats = {
  node : int;
  sends : int;
  receives : int;
  drops : int;
  dups : int;
  delays : int;
  crash_drops : int;
  peak_backlog : int;
  busy_rounds : int;
}

type edge_stats = {
  src : int;
  dst : int;
  e_sends : int;
  e_receives : int;
  e_drops : int;
  e_dups : int;
  e_delays : int;
}

(* Sends out of [v]: the graph is undirected, so the possible
   destinations are exactly v's neighbours; sum e_sends over each edge
   v -> u (slot in u's row). *)
let node_sends (t : t) v =
  let s = ref 0 in
  Array.iter
    (fun u -> s := !s + t.e_sends.(edge_slot t ~src:v ~dst:u))
    t.nbrs.(v);
  !s

(* Receives into [v]: row sum of its CSR block. *)
let node_receives (t : t) v =
  let base = t.off.(v) in
  let s = ref 0 in
  for i = 0 to Array.length t.nbrs.(v) - 1 do
    s := !s + t.e_receives.(base + i)
  done;
  !s

let node_stats (t : t) v =
  {
    node = v;
    sends = node_sends t v;
    receives = node_receives t v;
    drops = t.drops.(v);
    dups = t.dups.(v);
    delays = t.delays.(v);
    crash_drops = t.crash_drops.(v);
    peak_backlog = t.peak_backlog.(v);
    busy_rounds = t.busy.(v);
  }

let per_node t = List.init t.nodes (node_stats t)

let node_active (s : node_stats) =
  s.sends > 0 || s.receives > 0 || s.drops > 0 || s.dups > 0 || s.delays > 0
  || s.crash_drops > 0 || s.peak_backlog > 0

let per_edge (t : t) =
  let acc = ref [] in
  for dst = t.nodes - 1 downto 0 do
    let base = t.off.(dst) in
    for i = Array.length t.nbrs.(dst) - 1 downto 0 do
      let e = base + i in
      if
        t.e_sends.(e) > 0 || t.e_receives.(e) > 0 || t.e_drops.(e) > 0
        || t.e_dups.(e) > 0 || t.e_delays.(e) > 0
      then
        acc :=
          {
            src = t.nbrs.(dst).(i);
            dst;
            e_sends = t.e_sends.(e);
            e_receives = t.e_receives.(e);
            e_drops = t.e_drops.(e);
            e_dups = t.e_dups.(e);
            e_delays = t.e_delays.(e);
          }
          :: !acc
    done
  done;
  (* Rows above are receiver-major; present src-major for stable,
     reader-friendly output. *)
  List.sort
    (fun (a : edge_stats) (b : edge_stats) ->
      compare (a.src, a.dst) (b.src, b.dst))
    !acc

let total_sends (t : t) = Array.fold_left ( + ) 0 t.e_sends
let total_receives (t : t) = Array.fold_left ( + ) 0 t.e_receives

let traffic (t : t) v = node_sends t v + node_receives t v

let hottest_nodes ?k t = Engine.top_loaded ?k (Array.init t.nodes (traffic t))

let hottest_edges ?(k = 5) t =
  let all =
    List.map
      (fun (e : edge_stats) -> ((e.src, e.dst), e.e_sends + e.e_receives))
      (per_edge t)
  in
  let sorted =
    List.sort
      (fun (e1, t1) (e2, t2) ->
        match compare t2 t1 with 0 -> compare e1 e2 | c -> c)
      (List.filter (fun (_, traffic) -> traffic > 0) all)
  in
  List.filteri (fun i _ -> i < k) sorted

let ramp = " .:-=+*#%@"

let render_heatmap ?(per_row = 64) t =
  if per_row < 1 then invalid_arg "Metrics.render_heatmap: per_row must be >= 1";
  let peak = ref 0 in
  for v = 0 to t.nodes - 1 do
    if traffic t v > !peak then peak := traffic t v
  done;
  let levels = String.length ramp in
  let cell v =
    let x = traffic t v in
    if !peak = 0 || x = 0 then ramp.[if x = 0 then 0 else 1]
    else ramp.[min (levels - 1) (1 + ((x * (levels - 1)) / !peak))]
  in
  let buf = Buffer.create (t.nodes + 128) in
  Buffer.add_string buf
    (Printf.sprintf
       "node traffic heatmap (sends + receives; peak = %d; scale \"%s\")\n"
       !peak ramp);
  let v = ref 0 in
  while !v < t.nodes do
    let last = min (t.nodes - 1) (!v + per_row - 1) in
    Buffer.add_string buf (Printf.sprintf "%6d  " !v);
    for u = !v to last do
      Buffer.add_char buf (cell u)
    done;
    Buffer.add_char buf '\n';
    v := last + 1
  done;
  Buffer.contents buf

let to_jsonl t =
  let module J = Countq_util.Json in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (s : node_stats) ->
      if node_active s then begin
        Buffer.add_string buf
          (J.to_string
             (J.Obj
                [
                  ("type", J.Str "node");
                  ("node", J.Int s.node);
                  ("sends", J.Int s.sends);
                  ("receives", J.Int s.receives);
                  ("drops", J.Int s.drops);
                  ("dups", J.Int s.dups);
                  ("delays", J.Int s.delays);
                  ("crash_drops", J.Int s.crash_drops);
                  ("peak_backlog", J.Int s.peak_backlog);
                  ("busy_rounds", J.Int s.busy_rounds);
                ]));
        Buffer.add_char buf '\n'
      end)
    (per_node t);
  List.iter
    (fun (e : edge_stats) ->
      Buffer.add_string buf
        (J.to_string
           (J.Obj
              [
                ("type", J.Str "edge");
                ("src", J.Int e.src);
                ("dst", J.Int e.dst);
                ("sends", J.Int e.e_sends);
                ("receives", J.Int e.e_receives);
                ("drops", J.Int e.e_drops);
                ("dups", J.Int e.e_dups);
                ("delays", J.Int e.e_delays);
              ]));
      Buffer.add_char buf '\n')
    (per_edge t);
  Buffer.contents buf
