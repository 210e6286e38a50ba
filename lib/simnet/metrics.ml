(* Per-node / per-edge execution metrics. See metrics.mli.

   Layout mirrors the active-set engine's: per-node counters are plain
   int arrays; per-directed-edge counters live in one CSR-indexed block
   keyed by the RECEIVER's row (slot of edge src -> dst = dst's base +
   position of src in dst's sorted neighbour array). That is the same
   slot the engine computes anyway for its incoming rings, so the
   engine-side hooks ([note_transmit_at] / [note_deliver_at]) are a
   couple of array increments — no search, no hashing, no allocation. *)

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
  retransmits : int array;
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
    retransmits = Array.make nodes 0;
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

(* A fresh all-zero recorder sharing [t]'s shape (the CSR offsets and
   neighbour aliases are immutable, so aliasing them is free). The
   sharded engine gives each shard its own recorder built this way and
   folds them back with [merge_into]. *)
let create_like t =
  let nodes = t.nodes in
  let m2 = t.off.(nodes) in
  {
    nodes;
    drops = Array.make nodes 0;
    dups = Array.make nodes 0;
    delays = Array.make nodes 0;
    crash_drops = Array.make nodes 0;
    retransmits = Array.make nodes 0;
    peak_backlog = Array.make nodes 0;
    busy = Array.make nodes 0;
    last_busy = Array.make nodes (-1);
    nbrs = t.nbrs;
    off = t.off;
    e_sends = Array.make m2 0;
    e_receives = Array.make m2 0;
    e_drops = Array.make m2 0;
    e_dups = Array.make m2 0;
    e_delays = Array.make m2 0;
  }

(* Fold [src] into [into]: counters add, peaks max. [busy] also adds,
   which is only correct when each node's busy marks live in at most
   one of the two recorders — the sharded engine's ownership discipline
   (node [v]'s transmits and deliveries are always recorded by [v]'s
   owning shard) guarantees exactly that. *)
let merge_into ~into src =
  if into.nodes <> src.nodes || into.off.(into.nodes) <> src.off.(src.nodes)
  then invalid_arg "Metrics.merge_into: recorders have different shapes";
  let add a b =
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) + b.(i)
    done
  in
  add into.drops src.drops;
  add into.dups src.dups;
  add into.delays src.delays;
  add into.crash_drops src.crash_drops;
  add into.retransmits src.retransmits;
  add into.busy src.busy;
  for v = 0 to into.nodes - 1 do
    if src.peak_backlog.(v) > into.peak_backlog.(v) then
      into.peak_backlog.(v) <- src.peak_backlog.(v);
    if src.last_busy.(v) > into.last_busy.(v) then
      into.last_busy.(v) <- src.last_busy.(v)
  done;
  add into.e_sends src.e_sends;
  add into.e_receives src.e_receives;
  add into.e_drops src.e_drops;
  add into.e_dups src.e_dups;
  add into.e_delays src.e_delays

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

(* Fast engine-side hooks: the engine passes the edge slot it already
   computed for its own CSR incoming rings (identical layout: both are
   prefix sums of [Graph.neighbors] lengths in node order). *)
let[@inline] note_transmit_at t ~slot ~src ~round =
  Array.unsafe_set t.e_sends slot (Array.unsafe_get t.e_sends slot + 1);
  mark_busy t src round

let[@inline] note_deliver_at t ~slot ~dst ~round =
  Array.unsafe_set t.e_receives slot (Array.unsafe_get t.e_receives slot + 1);
  mark_busy t dst round

(* Search-based variants for recorders that don't track slots
   (Reference, Async, fault paths). *)
let note_transmit t ~src ~dst ~round =
  note_transmit_at t ~slot:(edge_slot t ~src ~dst) ~src ~round

let note_deliver t ~src ~dst ~round =
  note_deliver_at t ~slot:(edge_slot t ~src ~dst) ~dst ~round

let note_drop t ~src ~dst =
  t.drops.(src) <- t.drops.(src) + 1;
  let e = edge_slot t ~src ~dst in
  t.e_drops.(e) <- t.e_drops.(e) + 1

let note_duplicate t ~src ~dst =
  t.dups.(src) <- t.dups.(src) + 1;
  let e = edge_slot t ~src ~dst in
  t.e_dups.(e) <- t.e_dups.(e) + 1

let note_delay t ~src ~dst =
  t.delays.(src) <- t.delays.(src) + 1;
  let e = edge_slot t ~src ~dst in
  t.e_delays.(e) <- t.e_delays.(e) + 1

let note_crash_drop t ~dst = t.crash_drops.(dst) <- t.crash_drops.(dst) + 1
let note_retransmit t ~node = t.retransmits.(node) <- t.retransmits.(node) + 1

let[@inline] note_backlog t ~node ~backlog =
  if backlog > Array.unsafe_get t.peak_backlog node then
    Array.unsafe_set t.peak_backlog node backlog

type node_stats = {
  node : int;
  sends : int;
  receives : int;
  drops : int;
  dups : int;
  delays : int;
  crash_drops : int;
  retransmits : int;
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
    retransmits = t.retransmits.(v);
    peak_backlog = t.peak_backlog.(v);
    busy_rounds = t.busy.(v);
  }

let per_node t = List.init t.nodes (node_stats t)

let node_active (s : node_stats) =
  s.sends > 0 || s.receives > 0 || s.drops > 0 || s.dups > 0 || s.delays > 0
  || s.crash_drops > 0 || s.retransmits > 0 || s.peak_backlog > 0

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

(* Same top-k shape as Engine.top_loaded, re-implemented here because
   Engine depends on this module (the ?metrics hook), not vice versa. *)
let hottest_nodes ?(k = 5) t =
  let acc = ref [] in
  for v = t.nodes - 1 downto 0 do
    let load = traffic t v in
    if load > 0 then acc := (v, load) :: !acc
  done;
  let sorted =
    List.sort
      (fun (v1, l1) (v2, l2) ->
        match compare l2 l1 with 0 -> compare v1 v2 | c -> c)
      !acc
  in
  List.filteri (fun i _ -> i < k) sorted

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
                  ("retransmits", J.Int s.retransmits);
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
