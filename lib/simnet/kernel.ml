(* The round kernel. See kernel.mli.

   One implementation of the Section 2.1 phase order, behind every
   engine entry point. Per executed round:

     coordinator: loop bookkeeping, quiescent-gap jump, round limit
     all lanes:   SEND    — drain own outboxes; local enqueues direct,
                            remote ones into transfer buffers
     barrier
     all lanes:   DELIVER — apply sorted incoming transfers, then
                            receive (arbiter, protocol), then tick,
                            then injections, for own nodes
     barrier
     coordinator: merge per-shard counter deltas, replay the round's
                  completions and observer events in (phase, node)
                  order, round-end hooks

   With one shard there are no lanes and no transfers: every phase runs
   inline on the calling domain, completions and observer callbacks
   fire at the point they happen, and the caller's recorders are
   written directly.

   With ?faults or ?dynamic the SEND phase instead runs on the
   coordinator over the globally sorted sender list — the fault
   decision stream is one mutable sequence whose global transmission
   order is observable — and the coordinator precomputes this round's
   crash/churn verdict for every node the DELIVER phase will examine,
   so fault-plan and schedule queries are never issued concurrently.

   Node state lives in one slot-indexed store: parallel per-slot arrays
   (state, neighbours, outbox queue, arbiter pointer, list flags) plus
   the incoming queues in one flat CSR block ([inq_off.(s)] is slot s's
   base, one queue per neighbour in sorted neighbour order). Slots are
   assigned one of two ways:
   - pre-assigned (slot = node, arrays sized n up front, a node's
     neighbour array read at its first touch — and, with ?starters, its
     initial state computed then too, on its owning lane): every sharded
     run, and every run in which all nodes start at time 0;
   - on first touch (a dense node -> slot map, a hash table above
     2^22 nodes; arrays grown by doubling): single-shard runs that name
     ?starters.
   A queue owns no buffer: its messages sit in cells of one per-shard
   pool (see "message cells" below), so a quiet node holds nothing
   beyond its per-slot words, in either layout, without any sweep.

   Observable-order bookkeeping that makes the shard merge exact:
   - metrics ownership: node v's transmit marks are recorded by v's
     owning shard (senders note transmits, receivers note backlogs and
     deliveries), so per-node busy counts live in exactly one per-shard
     recorder and Metrics.merge_into's sum is the sequential count;
   - telemetry is per-window sums and maxima, merged by window index;
   - completions and observer events are tagged (phase, node) per round
     and merged in that order, which is the sequential chronological
     order (phase 0 = time 0, 1 = receive, 2 = tick, 3 = injection).

   Everything a run owns lives in one record, [k], and the phases are
   top-level functions over it: setting up a run allocates the record
   and its arrays, not a closure per phase — one-shot experiments build
   thousands of short-lived runs. *)

module Partition = Countq_topology.Partition
module Parallel = Countq_util.Parallel
module Heap = Countq_util.Heap
module Vec = Countq_util.Vec

type arbiter =
  | Round_robin
  | Lowest_sender_first
  | Custom of (round:int -> node:int -> candidates:int list -> int)

type config = {
  receive_capacity : int;
  send_capacity : int;
  arbiter : arbiter;
  max_rounds : int;
  min_rounds : int;
}

type ('m, 'r) action = Send of int * 'm | Complete of 'r

type ('s, 'm, 'r) protocol = {
  name : string;
  initial_state : int -> 's;
  on_start : node:int -> 's -> 's * ('m, 'r) action list;
  on_receive :
    round:int -> node:int -> src:int -> 'm -> 's -> 's * ('m, 'r) action list;
  on_tick : (round:int -> node:int -> 's -> 's * ('m, 'r) action list) option;
}

type 'r completion = { node : int; round : int; value : 'r }

type 'r result = {
  completions : 'r completion list;
  rounds : int;
  messages : int;
  max_link_backlog : int;
  expansion : int;
}

exception Not_a_neighbor of { node : int; dst : int }

exception
  Round_limit_exceeded of {
    limit : int;
    outstanding : int;
    queued : int;
    held : int;
    busiest : (int * int) list;
  }

type 'r observer = {
  on_deliver : round:int -> src:int -> dst:int -> unit;
  on_complete : round:int -> node:int -> value:'r -> unit;
  on_round_end : round:int -> in_flight:int -> [ `Continue | `Halt ];
}

let null_observer =
  {
    on_deliver = (fun ~round:_ ~src:_ ~dst:_ -> ());
    on_complete = (fun ~round:_ ~node:_ ~value:_ -> ());
    on_round_end = (fun ~round:_ ~in_flight:_ -> `Continue);
  }

let no_keep_alive () = false

type ('s, 'm, 'r) injection = {
  at : int;
  node : int;
  inject : 's -> 's * ('m, 'r) action list;
}

type stats = {
  mutable touched : int;
  mutable peak_in_flight : int;
  mutable executed_rounds : int;
}

(* Top-[k] (node, load) pairs: heaviest first, ties broken towards the
   lower node id; zero-load nodes are omitted. *)
let top_loaded_pairs ?(k = 5) pairs =
  let sorted =
    List.sort
      (fun (v1, l1) (v2, l2) ->
        match compare l2 l1 with 0 -> compare v1 v2 | c -> c)
      (List.filter (fun (_, load) -> load > 0) pairs)
  in
  List.filteri (fun i _ -> i < k) sorted

let top_loaded ?k loads =
  let acc = ref [] in
  Array.iteri (fun v load -> if load > 0 then acc := (v, load) :: !acc) loads;
  top_loaded_pairs ?k !acc

(* Index of [u] in a sorted duplicate-free neighbour array, or -1. The
   annotation makes [=] and [<] the int primitives, not the polymorphic
   compare: this runs on every send and every enqueue. *)
let nbr_slot (nbrs : int array) (u : int) =
  let lo = ref 0 and hi = ref (Array.length nbrs - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = Array.unsafe_get nbrs mid in
    if x = u then res := mid else if x < u then lo := mid + 1 else hi := mid - 1
  done;
  !res

(* Growable store; grow-on-push seeds fresh cells from the pushed
   element so polymorphic payloads need no dummy. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf () = { data = [||]; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (max 16 (2 * b.len)) x in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* Events a shard buffers for the round-end replay. *)
type 'r event = Delivered of int (* src *) | Completed of 'r

(* Above this, the on-first-touch node -> slot map becomes a hash table
   instead of a dense int array (8 bytes/node is the one O(n) cost that
   layout accepts: it is what makes every other lookup branch-free). *)
let dense_slot_limit = 1 lsl 22

(* The slot table of every run that does not use one; never written. *)
let no_slot_tbl : (int, int) Hashtbl.t = Hashtbl.create 1

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let extend_bytes b cap =
  let c = Bytes.make cap '\000' in
  Bytes.blit b 0 c 0 (Bytes.length b);
  c

(* One shard's worklists, its deltas merged at the barrier, its
   recorders and its share of the injection schedule. *)
type ('s, 'm, 'r) shard = {
  id : int;
  senders : Vec.t;  (* nodes with a non-empty outbox *)
  receivers : Vec.t;  (* nodes with pending input *)
  mutable d_outstanding : int;
  mutable d_queued : int;
  mutable d_messages : int;
  mutable d_touched : int;
  mutable max_backlog : int;
  mutable last_active : int;
  mrec : Metrics.t option;
  tel : Telemetry.t option;
  inj : ('s, 'm, 'r) injection array;  (* in global (round, node) order *)
  mutable inj_ptr : int;
  evs : (int * int * 'r event) buf;  (* replayed at the barrier *)
  (* The message cells of every queue of this shard's nodes: payload,
     successor and (outbox cells only) destination, grown together by
     doubling; [free] heads the free list threaded through [next]. *)
  mutable msgs : 'm array;
  mutable next : int array;
  mutable dsts : int array;
  mutable free : int;
}

(* Everything one run owns. *)
type ('s, 'm, 'r) k = {
  who : string;
  n : int;
  config : config;
  protocol : ('s, 'm, 'r) protocol;
  neighbors : int -> int array;  (* read once per node, at first touch *)
  part : Partition.t option;  (* None: one shard, inline *)
  kshards : int;
  owner : int array;
  inline : bool;
  dense : bool;  (* slots pre-assigned, else on first touch *)
  lazy_start : bool;  (* ?starters given *)
  faulty : bool;  (* ?faults or ?dynamic given *)
  fr : Faults.runtime;
  dynamic : Dynamic.runtime option;
  observer : 'r observer;
  has_observer : bool;
  keep_alive : unit -> bool;
  can_fast_forward : bool;
  metrics : Metrics.t option;
  telemetry : Telemetry.t option;
  sink : ('r completion -> unit) option;
  stats : stats option;
  injections : ('s, 'm, 'r) injection array;
  mutable ginj_ptr : int;
  (* The node store; see the preamble. [inq_ring] is indexed by link
     ([inq_off.(s)] + neighbour index), the rest by slot. *)
  mutable states : 's array;
  mutable nbrs : int array array;  (* [||] until the node is touched *)
  mutable node_of : int array;  (* on-first-touch layout only *)
  mutable inq_off : int array;
  mutable out_ring : int array;  (* outbox queue, packed *)
  mutable rr : int array;
  mutable pending : int array;
  mutable on_send : Bytes.t;
  mutable on_recv : Bytes.t;
  mutable inq_ring : int array;  (* incoming queue per link, packed *)
  mutable slots : int;
  mutable rings : int;
  slot_map : int array;  (* on first touch, n <= dense_slot_limit *)
  slot_tbl : (int, int) Hashtbl.t;  (* on first touch, above it *)
  seen : Bytes.t;  (* pre-assigned with ?starters: touched nodes *)
  blocked : Bytes.t;  (* this round's crash/churn verdicts *)
  shards : ('s, 'm, 'r) shard array;
  (* (src, dst, msg); buffer [p * kshards + r] is written by sending
     shard [p] and read by receiving shard [r], with the round barrier
     between the two. *)
  tx : (int * int * 'm) buf array;
  (* Coordinator only. *)
  mutable comp : 'r completion array;
  mutable comp_len : int;
  mutable outstanding : int;
  mutable queued : int;
  mutable messages : int;
  (* Messages postponed by a Delay fault, keyed by delivery round (FIFO
     among equal rounds via the insertion counter). *)
  held : (int * int, int * int * 'm) Heap.t;
  mutable held_count : int;
  mutable held_seq : int;
  all_senders : Vec.t;
}

let fail k msg = invalid_arg (k.who ^ ": " ^ msg)
let owner_of k v = if k.inline then 0 else Array.unsafe_get k.owner v

let node_down k v ~round =
  match k.dynamic with
  | None -> false
  | Some dr -> not (Dynamic.node_up (Dynamic.sched dr) ~round ~node:v)

let link_severed k ~src ~dst ~round =
  match k.dynamic with
  | None -> false
  | Some dr -> not (Dynamic.link_up (Dynamic.sched dr) ~round ~u:src ~v:dst)

let is_down k v ~round = Faults.crashed k.fr ~node:v ~round || node_down k v ~round
let is_blocked k v = k.faulty && Bytes.unsafe_get k.blocked v = '\001'

(* ---------------- the node store ------------------------------------ *)

(* Slot of [v], or -1 if it was never touched. *)
let find_slot k v =
  if k.dense then
    if k.lazy_start && Bytes.unsafe_get k.seen v = '\000' then -1 else v
  else if k.n <= dense_slot_limit then Array.unsafe_get k.slot_map v
  else match Hashtbl.find_opt k.slot_tbl v with Some s -> s | None -> -1

(* Slot of a node known to be materialised. *)
let slot k v = if k.dense then v else find_slot k v
let node_of k s = if k.dense then s else k.node_of.(s)

let grow_slots k fill =
  let cap = max 16 (2 * Array.length k.pending) in
  k.states <- extend k.states cap fill;
  k.nbrs <- extend k.nbrs cap [||];
  k.node_of <- extend k.node_of cap 0;
  k.inq_off <- extend k.inq_off cap 0;
  k.out_ring <- extend k.out_ring cap 0;
  k.rr <- extend k.rr cap 0;
  k.pending <- extend k.pending cap 0;
  k.on_send <- extend_bytes k.on_send cap;
  k.on_recv <- extend_bytes k.on_recv cap

let grow_rings k need =
  let cap = max need (max 64 (2 * Array.length k.inq_ring)) in
  k.inq_ring <- extend k.inq_ring cap 0

(* Give [v] its slot and initial state (on first touch) and count it
   as touched. Only lazily started runs materialise, so in the
   pre-assigned layout [v]'s slot holds the filler until here, and its
   own state is computed on the lane that owns it. *)
let materialise k sh v =
  if Option.is_some k.stats then sh.d_touched <- sh.d_touched + 1;
  if k.dense then begin
    Bytes.unsafe_set k.seen v '\001';
    k.nbrs.(v) <- k.neighbors v;
    k.states.(v) <- k.protocol.initial_state v;
    v
  end
  else begin
    let s = k.slots in
    let nb = k.neighbors v in
    let state = k.protocol.initial_state v in
    if s = Array.length k.pending then grow_slots k state;
    k.states.(s) <- state;
    k.nbrs.(s) <- nb;
    k.node_of.(s) <- v;
    k.inq_off.(s) <- k.rings;
    let rings = k.rings + Array.length nb in
    if rings > Array.length k.inq_ring then grow_rings k rings;
    k.rings <- rings;
    k.slots <- s + 1;
    if k.n <= dense_slot_limit then k.slot_map.(v) <- s
    else Hashtbl.replace k.slot_tbl v s;
    s
  end

(* Store the state a handler returned for slot [s], given the [old] one
   it was called with. Handlers that mutate their state in place or
   return it unchanged hand back [old] itself, and skipping that store
   skips a caml_modify on the polymorphic [states] array; a physically
   equal value is the same value, flat float arrays included. *)
let store k s old s' = if s' != old then k.states.(s) <- s'

(* Slot of [v], materialising it first if needed. A node that was
   asleep until now must not have had anything to say at time 0. *)
let touch k sh v =
  let s = find_slot k v in
  if s >= 0 then s
  else begin
    let s = materialise k sh v in
    let old = k.states.(s) in
    let s', actions = k.protocol.on_start ~node:v old in
    store k s old s';
    (match actions with
    | [] -> ()
    | _ ->
        fail k
          (Printf.sprintf
             "node %d is not in ?starters but its on_start produced actions" v));
    s
  end

(* ---------------- message cells ----------------------------------- *)

(* Every queue (a link's incoming queue, a node's outbox) is a circular
   singly linked list of cells, named by one packed int: the tail cell
   in the high half, the length in the low half, 0 when empty. The head
   is the tail's successor. A queue's cells come from the pool of its
   node's owning shard: [enqueue] runs on the receiver's owner and
   [drain_free] on the sender's, and the coordinator touches a lane's
   pool only while the lanes are parked ([send_faulty], [flush_held],
   [enqueue_faulty]). *)
let q_len r = r land 0xFFFF_FFFF
let q_tail r = r lsr 32

(* A free cell holding [msg]. An empty free list doubles the pool,
   seeding fresh cells from [msg] so polymorphic payloads need no
   dummy. *)
let alloc sh msg =
  if sh.free < 0 then begin
    let cap = Array.length sh.next in
    let cap' = max 16 (2 * cap) in
    sh.msgs <- extend sh.msgs cap' msg;
    sh.dsts <- extend sh.dsts cap' 0;
    let next = extend sh.next cap' (-1) in
    for c = cap to cap' - 2 do
      next.(c) <- c + 1
    done;
    sh.next <- next;
    sh.free <- cap
  end;
  let c = sh.free in
  sh.free <- Array.unsafe_get sh.next c;
  Array.unsafe_set sh.msgs c msg;
  c

(* Append cell [c] to the queue packed in [r]; returns the new packing. *)
let q_push sh r c =
  let len = q_len r in
  if len = 0 then Array.unsafe_set sh.next c c
  else begin
    let tail = q_tail r in
    Array.unsafe_set sh.next c (Array.unsafe_get sh.next tail);
    Array.unsafe_set sh.next tail c
  end;
  (c lsl 32) lor (len + 1)

let q_head sh r = Array.unsafe_get sh.next (q_tail r)

(* Unlink the head [h] of the non-empty queue packed in [r] and free
   it; returns the new packing. [h]'s fields stay readable until the
   next [alloc]. *)
let q_pop sh r h =
  let r' =
    if q_len r = 1 then 0
    else begin
      Array.unsafe_set sh.next (q_tail r) (Array.unsafe_get sh.next h);
      r - 1
    end
  in
  Array.unsafe_set sh.next h sh.free;
  sh.free <- h;
  r'

let in_push k sh q msg =
  let c = alloc sh msg in
  Array.unsafe_set k.inq_ring q (q_push sh (Array.unsafe_get k.inq_ring q) c)

let in_pop k sh q =
  let r = Array.unsafe_get k.inq_ring q in
  let h = q_head sh r in
  Array.unsafe_set k.inq_ring q (q_pop sh r h);
  Array.unsafe_get sh.msgs h

let out_push k sh s dst msg =
  let c = alloc sh msg in
  Array.unsafe_set sh.dsts c dst;
  k.out_ring.(s) <- q_push sh k.out_ring.(s) c

(* Pop the head of [s]'s outbox; returns its cell. *)
let out_take k sh s =
  let r = k.out_ring.(s) in
  let h = q_head sh r in
  k.out_ring.(s) <- q_pop sh r h;
  h

let out_len k s = q_len k.out_ring.(s)
let has_msgs k q = q_len (Array.unsafe_get k.inq_ring q) > 0

(* ---------------- action application -------------------------------- *)

let in_flight k = k.outstanding + k.queued + k.held_count

(* Peak in-flight is sampled wherever the count can crest: after the
   time-0 seeding, after a faulty send phase (duplicates) and at each
   round end. *)
let note_peak k =
  match k.stats with
  | Some c -> if in_flight k > c.peak_in_flight then c.peak_in_flight <- in_flight k
  | None -> ()

(* With a [sink], completions stream out as they happen and nothing is
   retained. *)
let push_completion k (c : _ completion) =
  match k.sink with
  | Some f -> f c
  | None ->
      if k.comp_len = Array.length k.comp then begin
        let d = Array.make (max 8 (2 * k.comp_len)) c in
        Array.blit k.comp 0 d 0 k.comp_len;
        k.comp <- d
      end;
      k.comp.(k.comp_len) <- c;
      k.comp_len <- k.comp_len + 1

let rec apply_actions k sh phase s v t actions =
  match actions with
  | [] -> ()
  | Send (dst, msg) :: rest ->
      if nbr_slot k.nbrs.(s) dst < 0 then raise (Not_a_neighbor { node = v; dst });
      out_push k sh s dst msg;
      sh.d_outstanding <- sh.d_outstanding + 1;
      if Bytes.unsafe_get k.on_send s = '\000' then begin
        Bytes.unsafe_set k.on_send s '\001';
        Vec.push sh.senders v
      end;
      apply_actions k sh phase s v t rest
  | Complete value :: rest ->
      (match sh.tel with
      | Some tl -> Telemetry.note_complete tl ~round:t
      | None -> ());
      if k.inline then begin
        if k.has_observer then k.observer.on_complete ~round:t ~node:v ~value;
        push_completion k { node = v; round = t; value }
      end
      else buf_push sh.evs (phase, v, Completed value);
      apply_actions k sh phase s v t rest

(* Hand [msg] (from [src]) to [dst]'s incoming queue, on [dst]'s owning
   shard [sh]. [record_tx] folds the transmit note in for a send that
   never left its shard: [q] is exactly the receiver-row CSR index
   Metrics wants on the pre-assigned layout. *)
let enqueue k sh record_tx t src dst msg =
  let s = touch k sh dst in
  let q = k.inq_off.(s) + nbr_slot k.nbrs.(s) src in
  in_push k sh q msg;
  k.pending.(s) <- k.pending.(s) + 1;
  if Bytes.unsafe_get k.on_recv s = '\000' then begin
    Bytes.unsafe_set k.on_recv s '\001';
    Vec.push sh.receivers dst
  end;
  sh.d_queued <- sh.d_queued + 1;
  let backlog = q_len (Array.unsafe_get k.inq_ring q) in
  if backlog > sh.max_backlog then sh.max_backlog <- backlog;
  (match sh.mrec with
  | Some mrec ->
      if record_tx then
        if k.dense then Metrics.note_transmit_at mrec ~slot:q ~src ~round:t
        else Metrics.note_transmit mrec ~src ~dst ~round:t;
      Metrics.note_backlog mrec ~node:dst ~backlog
  | None -> ());
  match sh.tel with
  | Some tl ->
      if record_tx then Telemetry.note_send tl ~round:t;
      Telemetry.note_backlog tl ~round:t ~backlog
  | None -> ()

(* ---------------- SEND phase (lanes, fault-free only) ---------------- *)

let rec drain_free k sh s v t budget =
  if budget > 0 && out_len k s > 0 then begin
    let c = out_take k sh s in
    let dst = Array.unsafe_get sh.dsts c and msg = Array.unsafe_get sh.msgs c in
    sh.d_outstanding <- sh.d_outstanding - 1;
    sh.last_active <- t;
    let dsh = owner_of k dst in
    if dsh = sh.id then enqueue k sh true t v dst msg
    else begin
      (* Sender-side notes now; the receiving shard applies the
         queue-side effects after the barrier. *)
      (match sh.mrec with
      | Some mrec ->
          (* [dst] may not be touched yet: read its adjacency afresh. *)
          let slot = k.inq_off.(dst) + nbr_slot (k.neighbors dst) v in
          Metrics.note_transmit_at mrec ~slot ~src:v ~round:t
      | None -> ());
      (match sh.tel with
      | Some tl -> Telemetry.note_send tl ~round:t
      | None -> ());
      buf_push k.tx.((sh.id * k.kshards) + dsh) (v, dst, msg)
    end;
    drain_free k sh s v t (budget - 1)
  end

(* A sender whose outbox emptied leaves the worklist ([true]); the rest
   are compacted to the front, order preserved. *)
let sender_done k s =
  if out_len k s = 0 then begin
    Bytes.unsafe_set k.on_send s '\000';
    true
  end
  else false

let send_shard k sh t =
  let sv = sh.senders in
  Vec.sort sv;
  let w = ref 0 in
  for i = 0 to Vec.length sv - 1 do
    let v = Vec.get sv i in
    let s = slot k v in
    drain_free k sh s v t k.config.send_capacity;
    if not (sender_done k s) then begin
      Vec.set sv !w v;
      incr w
    end
  done;
  Vec.truncate sv !w

(* ---------------- DELIVER phase (lanes) ------------------------------ *)

(* Lexicographic on (src, dst, seq, sending shard). *)
let compare_transfer (s1, d1, i1, p1) (s2, d2, i2, p2) =
  match Int.compare s1 s2 with
  | 0 -> (
      match Int.compare d1 d2 with
      | 0 -> ( match Int.compare i1 i2 with 0 -> Int.compare p1 p2 | c -> c)
      | c -> c)
  | c -> c

(* Apply this shard's incoming cross-shard transfers, sorted by
   (src, dst, seq). seq is the position within the sender shard's
   buffer; a (src, dst) pair never spans two buffers, so the sort key is
   total and per-link FIFO order is preserved. *)
let apply_transfers k sh t =
  let ks = k.kshards in
  let total = ref 0 in
  for p = 0 to ks - 1 do
    total := !total + k.tx.((p * ks) + sh.id).len
  done;
  if !total > 0 then begin
    let keys = Array.make !total (0, 0, 0, 0) in
    let w = ref 0 in
    for p = 0 to ks - 1 do
      let b = k.tx.((p * ks) + sh.id) in
      for i = 0 to b.len - 1 do
        let src, dst, _ = b.data.(i) in
        keys.(!w) <- (src, dst, i, p);
        incr w
      done
    done;
    Array.sort compare_transfer keys;
    Array.iter
      (fun (src, dst, i, p) ->
        let _, _, msg = k.tx.((p * ks) + sh.id).data.(i) in
        enqueue k sh false t src dst msg)
      keys;
    for p = 0 to ks - 1 do
      k.tx.((p * ks) + sh.id).len <- 0
    done
  end

(* The arbiter: index (relative to the slot's queue base) of the link
   whose head is delivered next, or -1. *)
let pick k t v s =
  let base = k.inq_off.(s) in
  let nbrs = k.nbrs.(s) in
  let deg = Array.length nbrs in
  match k.config.arbiter with
  | Lowest_sender_first ->
      let i = ref 0 in
      while !i < deg && not (has_msgs k (base + !i)) do
        incr i
      done;
      if !i < deg then !i else -1
  | Round_robin ->
      (* rr and steps are both < deg, so the wrap-around is a
         conditional subtract, not a division. *)
      let start = k.rr.(s) in
      let steps = ref 0 and found = ref (-1) in
      while !found < 0 && !steps < deg do
        let idx = start + !steps in
        let idx = if idx >= deg then idx - deg else idx in
        if has_msgs k (base + idx) then found := idx
        else incr steps
      done;
      if !found >= 0 then k.rr.(s) <- (if !found + 1 >= deg then 0 else !found + 1);
      !found
  | Custom f ->
      let candidates = ref [] in
      for i = deg - 1 downto 0 do
        if has_msgs k (base + i) then
          candidates := nbrs.(i) :: !candidates
      done;
      if !candidates = [] then -1
      else begin
        let src = f ~round:t ~node:v ~candidates:!candidates in
        if not (List.mem src !candidates) then fail k "arbiter chose a non-candidate";
        nbr_slot nbrs src
      end

let rec recv_budget k sh t s v budget =
  if budget > 0 then begin
    let qi = pick k t v s in
    if qi >= 0 then begin
      let src = k.nbrs.(s).(qi) in
      let q = k.inq_off.(s) + qi in
      let msg = in_pop k sh q in
      k.pending.(s) <- k.pending.(s) - 1;
      sh.d_queued <- sh.d_queued - 1;
      sh.d_messages <- sh.d_messages + 1;
      sh.last_active <- t;
      (match sh.mrec with
      | Some mrec ->
          if k.dense then Metrics.note_deliver_at mrec ~slot:q ~dst:v ~round:t
          else Metrics.note_deliver mrec ~src ~dst:v ~round:t
      | None -> ());
      (match sh.tel with
      | Some tl -> Telemetry.note_deliver tl ~round:t
      | None -> ());
      if k.has_observer then
        if k.inline then k.observer.on_deliver ~round:t ~src ~dst:v
        else buf_push sh.evs (1, v, Delivered src);
      (* The per-message hot path: the network, funnel and counter
         handlers hand back [old], so [store] writes nothing. *)
      let old = k.states.(s) in
      let s', actions = k.protocol.on_receive ~round:t ~node:v ~src msg old in
      store k s old s';
      apply_actions k sh 1 s v t actions;
      recv_budget k sh t s v (budget - 1)
    end
  end

(* A node is on its shard's receivers list iff it has pending messages;
   a crashed or churned-out receiver keeps them for later. *)
let recv_shard k sh t =
  let rv = sh.receivers in
  Vec.sort rv;
  let w = ref 0 in
  for i = 0 to Vec.length rv - 1 do
    let v = Vec.get rv i in
    let s = slot k v in
    if not (is_blocked k v) then
      recv_budget k sh t s v (Int.min k.config.receive_capacity k.pending.(s));
    if k.pending.(s) = 0 then Bytes.unsafe_set k.on_recv s '\000'
    else begin
      Vec.set rv !w v;
      incr w
    end
  done;
  Vec.truncate rv !w

(* Ticks fire on every node, so a ticking protocol is inherently
   O(n)/round. Work issued at time [t] enters the network in round
   [t + 1]. *)
let tick_node k sh tick t v =
  if not (is_blocked k v) then begin
    let s = touch k sh v in
    let old = k.states.(s) in
    let s', actions = tick ~round:t ~node:v old in
    store k s old s';
    apply_actions k sh 2 s v t actions
  end

let tick_shard k sh tick t =
  match k.part with
  | None ->
      for v = 0 to k.n - 1 do
        tick_node k sh tick t v
      done
  | Some p -> Array.iter (tick_node k sh tick t) p.Partition.members.(sh.id)

(* Injections fire at the tick position, after the ticks; a crashed or
   churned-out node's injection is lost, as its tick would be. *)
let inject_shard k sh t =
  let arr = sh.inj in
  while sh.inj_ptr < Array.length arr && arr.(sh.inj_ptr).at <= t do
    let inj = arr.(sh.inj_ptr) in
    sh.inj_ptr <- sh.inj_ptr + 1;
    let v = inj.node in
    if not (is_blocked k v) then begin
      (match sh.tel with
      | Some tl -> Telemetry.note_inject tl ~round:t
      | None -> ());
      let s = touch k sh v in
      let old = k.states.(s) in
      let s', actions = inj.inject old in
      store k s old s';
      apply_actions k sh 3 s v t actions
    end
  done

let deliver_shard k sh t =
  if not k.inline then apply_transfers k sh t;
  recv_shard k sh t;
  (match k.protocol.on_tick with
  | None -> ()
  | Some tick -> tick_shard k sh tick t);
  inject_shard k sh t

let job_send = 1
let job_deliver = 2
let jobs_quit = 0

let job k j sh t = if j = job_send then send_shard k sh t else deliver_shard k sh t

(* ---------------- worker lanes and the round barrier --------------- *)

(* Spawn [helpers] worker domains, lane [l] running shards l, l + lanes,
   ...; the coordinator is lane 0. Returns [dispatch j t], which runs
   job [j] on every shard and re-raises the first exception in shard
   order once all lanes are done, and [stop]. *)
let start_lanes k ~helpers =
  let lanes = helpers + 1 in
  let exns : exn option array = Array.make k.kshards None in
  let run_lane lane j t =
    let sidx = ref lane in
    while !sidx < k.kshards do
      (try job k j k.shards.(!sidx) t with e -> exns.(!sidx) <- Some e);
      sidx := !sidx + lanes
    done
  in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let epoch = ref 0 in
  let cur_job = ref jobs_quit in
  let job_round = ref 0 in
  let done_count = ref 0 in
  let worker_body () =
    let my_epoch = ref 0 in
    let quit = ref false in
    let lane =
      Mutex.lock mu;
      (* Lane ids are handed out under the mutex via done_count before
         the first dispatch (epoch 0). *)
      incr done_count;
      let l = !done_count in
      Condition.broadcast cv;
      Mutex.unlock mu;
      l
    in
    while not !quit do
      Mutex.lock mu;
      while !epoch = !my_epoch do
        Condition.wait cv mu
      done;
      my_epoch := !epoch;
      let j = !cur_job and t = !job_round in
      Mutex.unlock mu;
      if j = jobs_quit then quit := true else run_lane lane j t;
      Mutex.lock mu;
      incr done_count;
      Condition.broadcast cv;
      Mutex.unlock mu
    done
  in
  let workers = Array.init helpers (fun _ -> Domain.spawn worker_body) in
  let barrier j t =
    Mutex.lock mu;
    cur_job := j;
    job_round := t;
    incr epoch;
    Condition.broadcast cv;
    Mutex.unlock mu;
    if j <> jobs_quit then run_lane 0 j t;
    Mutex.lock mu;
    while !done_count < helpers do
      Condition.wait cv mu
    done;
    done_count := 0;
    Mutex.unlock mu
  in
  (* Wait for every worker to claim its lane id before dispatching. *)
  Mutex.lock mu;
  while !done_count < helpers do
    Condition.wait cv mu
  done;
  done_count := 0;
  Mutex.unlock mu;
  let stopped = ref false in
  ( (fun j t ->
      barrier j t;
      Array.iter (function Some e -> raise e | None -> ()) exns),
    fun () ->
      if not !stopped then begin
        stopped := true;
        barrier jobs_quit 0;
        Array.iter Domain.join workers
      end )

(* ---------------- coordinator: faulty sequential transport --------- *)
(* Queue effects land on the receiver's shard structures directly —
   safe, the lanes are parked — with the transmit note at the sender's
   shard recorder and backlog at the receiver's. *)

let note_drop k t =
  match k.telemetry with Some tl -> Telemetry.note_drop tl ~round:t | None -> ()

(* Enqueue, or discard the message if the receiver is down — crashed by
   the fault plan, or churned out by the dynamic schedule. *)
let enqueue_faulty k t src dst msg =
  let down_drop () =
    note_drop k t;
    match k.metrics with
    | Some _ -> Option.iter (Metrics.note_crash_drop ~dst) k.shards.(owner_of k dst).mrec
    | None -> ()
  in
  if Faults.crashed k.fr ~node:dst ~round:t then begin
    Faults.note_crash_drop k.fr;
    down_drop ()
  end
  else if node_down k dst ~round:t then begin
    (match k.dynamic with Some dr -> Dynamic.note_node_drop dr | None -> ());
    down_drop ()
  end
  else enqueue k k.shards.(owner_of k dst) false t src dst msg

(* Fault-delayed messages whose spike has elapsed join the receiver
   queues ahead of round [t]'s fresh sends. *)
let rec flush_held k t =
  match Heap.peek k.held with
  | Some ((due, _), (src, dst, msg)) when due <= t ->
      ignore (Heap.pop k.held);
      k.held_count <- k.held_count - 1;
      k.shards.(0).last_active <- t;
      enqueue_faulty k t src dst msg;
      flush_held k t
  | _ -> ()

let rec drain_faulty k s v t budget =
  if budget > 0 && out_len k s > 0 then begin
    let sh = k.shards.(owner_of k v) in
    let c = out_take k sh s in
    let dst = Array.unsafe_get sh.dsts c and msg = Array.unsafe_get sh.msgs c in
    sh.d_outstanding <- sh.d_outstanding - 1;
    sh.last_active <- t;
    let mrec = sh.mrec in
    (match mrec with
    | Some m -> Metrics.note_transmit m ~src:v ~dst ~round:t
    | None -> ());
    (match k.telemetry with
    | Some tl -> Telemetry.note_send tl ~round:t
    | None -> ());
    if link_severed k ~src:v ~dst ~round:t then begin
      (* A transmission over a down link is lost at the sender's end;
         the fault plan's decision stream is not consumed for it. *)
      (match k.dynamic with Some dr -> Dynamic.note_link_drop dr | None -> ());
      note_drop k t;
      match mrec with Some m -> Metrics.note_drop m ~src:v ~dst | None -> ()
    end
    else begin
      match Faults.decide k.fr ~src:v ~dst ~round:t with
      | Faults.Deliver -> enqueue_faulty k t v dst msg
      | Faults.Drop -> (
          note_drop k t;
          match mrec with Some m -> Metrics.note_drop m ~src:v ~dst | None -> ())
      | Faults.Duplicate ->
          (match mrec with
          | Some m -> Metrics.note_duplicate m ~src:v ~dst
          | None -> ());
          enqueue_faulty k t v dst msg;
          enqueue_faulty k t v dst msg
      | Faults.Delay d ->
          (match mrec with Some m -> Metrics.note_delay m ~src:v ~dst | None -> ());
          k.held_seq <- k.held_seq + 1;
          k.held_count <- k.held_count + 1;
          Heap.push k.held (t + d, k.held_seq) (v, dst, msg)
    end;
    drain_faulty k s v t (budget - 1)
  end

(* One globally sorted pass, so the fault decision stream is consumed
   in the sequential transmission order. A crashed or churned-out
   sender keeps its outbox and stays on the list. *)
let send_faulty k t =
  let all =
    if k.inline then k.shards.(0).senders
    else begin
      let all = k.all_senders in
      Vec.clear all;
      Array.iter
        (fun sh ->
          Vec.iter (fun v -> Vec.push all v) sh.senders;
          Vec.clear sh.senders)
        k.shards;
      all
    end
  in
  Vec.sort all;
  let w = ref 0 in
  for i = 0 to Vec.length all - 1 do
    let v = Vec.get all i in
    let s = slot k v in
    let stays =
      is_down k v ~round:t
      || begin
           drain_faulty k s v t k.config.send_capacity;
           not (sender_done k s)
         end
    in
    if stays then
      if k.inline then begin
        Vec.set all !w v;
        incr w
      end
      else Vec.push k.shards.(owner_of k v).senders v
  done;
  if k.inline then Vec.truncate all !w

(* This round's crash/churn verdicts for every node the DELIVER phase
   will consult: queued receivers, due injections, and (tick protocols)
   everybody. *)
let precompute_blocked k t =
  let verdict v =
    Bytes.unsafe_set k.blocked v (if is_down k v ~round:t then '\001' else '\000')
  in
  match k.protocol.on_tick with
  | Some _ ->
      for v = 0 to k.n - 1 do
        verdict v
      done
  | None ->
      Array.iter (fun sh -> Vec.iter verdict sh.receivers) k.shards;
      let p = ref k.ginj_ptr in
      while !p < Array.length k.injections && k.injections.(!p).at <= t do
        verdict k.injections.(!p).node;
        incr p
      done

(* ---------------- coordinator: round-end bookkeeping --------------- *)

let merge_deltas k =
  for i = 0 to k.kshards - 1 do
    let sh = k.shards.(i) in
    k.outstanding <- k.outstanding + sh.d_outstanding;
    sh.d_outstanding <- 0;
    k.queued <- k.queued + sh.d_queued;
    sh.d_queued <- 0;
    k.messages <- k.messages + sh.d_messages;
    sh.d_messages <- 0;
    match k.stats with
    | Some c ->
        c.touched <- c.touched + sh.d_touched;
        sh.d_touched <- 0
    | None -> ()
  done

(* Replay the round's buffered events (sharded runs), in merged
   (phase, node) order: each shard's buffer is already sorted and a node
   lives in exactly one shard, so the k-way merge reconstructs the
   sequential chronological order exactly. *)
let replay k t =
  if not k.inline then begin
    let ptr = Array.make k.kshards 0 in
    let continue_ = ref true in
    while !continue_ do
      let best = ref (-1) in
      let best_key = ref (max_int, max_int) in
      Array.iteri
        (fun i sh ->
          if ptr.(i) < sh.evs.len then begin
            let phase, node, _ = sh.evs.data.(ptr.(i)) in
            if (phase, node) < !best_key then begin
              best_key := (phase, node);
              best := i
            end
          end)
        k.shards;
      if !best < 0 then continue_ := false
      else begin
        let _, node, ev = k.shards.(!best).evs.data.(ptr.(!best)) in
        ptr.(!best) <- ptr.(!best) + 1;
        match ev with
        | Delivered src -> k.observer.on_deliver ~round:t ~src ~dst:node
        | Completed value ->
            if k.has_observer then k.observer.on_complete ~round:t ~node ~value;
            push_completion k { node; round = t; value }
      end
    done;
    Array.iter (fun sh -> sh.evs.len <- 0) k.shards
  end

let raise_round_limit k =
  let loads = Hashtbl.create 64 in
  let bump v l =
    Hashtbl.replace loads v (l + Option.value ~default:0 (Hashtbl.find_opt loads v))
  in
  for s = 0 to k.slots - 1 do
    let l = k.pending.(s) + out_len k s in
    if l > 0 then bump (node_of k s) l
  done;
  let rec drain () =
    match Heap.pop k.held with
    | Some (_, (_, dst, _)) ->
        bump dst 1;
        drain ()
    | None -> ()
  in
  drain ();
  raise
    (Round_limit_exceeded
       {
         limit = k.config.max_rounds;
         outstanding = k.outstanding;
         queued = k.queued;
         held = k.held_count;
         busiest =
           top_loaded_pairs (Hashtbl.fold (fun v l acc -> (v, l) :: acc) loads []);
       })

(* The round-end hooks; [true] when the observer halts the run. *)
let round_end k t =
  (match k.stats with
  | Some c -> c.executed_rounds <- c.executed_rounds + 1
  | None -> ());
  (match k.telemetry with
  | Some tl -> Telemetry.note_in_flight tl ~round:t ~in_flight:(in_flight k)
  | None -> ());
  note_peak k;
  k.has_observer
  && k.observer.on_round_end ~round:t ~in_flight:(in_flight k) = `Halt

(* The next held-message or injection due round, or max_int. *)
let next_event k =
  let due = match Heap.peek k.held with Some ((d, _), _) -> d | None -> max_int in
  if k.ginj_ptr < Array.length k.injections then
    min due k.injections.(k.ginj_ptr).at
  else due

(* Time 0 and the round loop. *)
let execute k ~dispatch ~starters ~halt_after =
  (* The one-shot requests are issued, in node order; no communication
     yet. *)
  let start s v =
    let old = k.states.(s) in
    let s', actions = k.protocol.on_start ~node:v old in
    store k s old s';
    apply_actions k k.shards.(owner_of k v) 0 s v 0 actions
  in
  (match starters with
  | None ->
      (match k.stats with Some c -> c.touched <- c.touched + k.n | None -> ());
      for v = 0 to k.n - 1 do
        k.nbrs.(v) <- k.neighbors v;
        start v v
      done
  | Some l ->
      let last = ref (-1) in
      List.iter
        (fun v ->
          if v < 0 || v >= k.n then fail k "starter out of range";
          if v <= !last then fail k "starters must be strictly ascending";
          last := v;
          start (materialise k k.shards.(owner_of k v) v) v)
        l);
  merge_deltas k;
  replay k 0;
  note_peak k;
  let config = k.config in
  let halt_cap = match halt_after with Some h -> max 0 h | None -> max_int in
  let round = ref 0 in
  let halted = ref false in
  while
    (not !halted)
    && (k.outstanding > 0 || k.queued > 0 || k.held_count > 0
       || k.ginj_ptr < Array.length k.injections
       || !round < config.min_rounds
       || k.keep_alive ())
  do
    incr round;
    let t = !round in
    if t > halt_cap then halted := true
    else begin
      if t > config.max_rounds then raise_round_limit k;
      (* Quiescent and unobservable: jump to the round before the next
         held-message or injection due round, else to [min_rounds]; the
         cap keeps the limit check above authoritative. *)
      let next =
        if k.can_fast_forward && k.outstanding = 0 && k.queued = 0 then
          next_event k
        else t
      in
      if next > t then
        round :=
          max t
            (if next = max_int then min config.min_rounds config.max_rounds
             else min (next - 1) config.max_rounds)
      else begin
        if k.faulty then begin
          flush_held k t;
          send_faulty k t;
          merge_deltas k;
          note_peak k;
          precompute_blocked k t
        end
        else dispatch job_send t;
        dispatch job_deliver t;
        merge_deltas k;
        replay k t;
        while
          k.ginj_ptr < Array.length k.injections
          && k.injections.(k.ginj_ptr).at <= t
        do
          k.ginj_ptr <- k.ginj_ptr + 1
        done;
        if round_end k t then halted := true
      end
    end
  done

(* Fold the per-shard recorders back into the caller's, in shard order
   — also on the exception paths, so a Round_limit_exceeded still leaves
   best-effort observability behind. *)
let merge_recorders k =
  Array.iter
    (fun sh ->
      Option.iter
        (fun into -> Option.iter (Metrics.merge_into ~into) sh.mrec)
        k.metrics;
      Option.iter
        (fun into -> Option.iter (Telemetry.merge_into ~into) sh.tel)
        k.telemetry)
    k.shards

(* Completions were pushed in chronological order, which for most
   protocols (ascending node order within each phase) is already
   strictly (round, node)-sorted — detect that and skip the sort. Any
   tie or inversion falls back to the reference engine's exact assembly
   (prepend-then-stable-sort), whose tie order is reverse insertion
   order. *)
let assemble k =
  let comp = k.comp and len = k.comp_len in
  let sorted = ref true in
  for i = 1 to len - 1 do
    let a = comp.(i - 1) and b = comp.(i) in
    if a.round > b.round || (a.round = b.round && a.node >= b.node) then
      sorted := false
  done;
  let completions =
    if !sorted then List.init len (fun i -> comp.(i))
    else
      List.stable_sort
        (fun (a : _ completion) (b : _ completion) ->
          match compare a.round b.round with 0 -> compare a.node b.node | c -> c)
        (List.rev (Array.to_list (Array.sub comp 0 len)))
  in
  {
    completions;
    rounds = Array.fold_left (fun a sh -> max a sh.last_active) 0 k.shards;
    messages = k.messages;
    max_link_backlog = Array.fold_left (fun a sh -> max a sh.max_backlog) 0 k.shards;
    expansion = k.config.receive_capacity;
  }

let run ~who ?part ?pool ?faults ?dynamic ?(observer = null_observer)
    ?(keep_alive = no_keep_alive) ?metrics ?telemetry ?sink ?(injections = [||])
    ?halt_after ?stats ?starters ~n ~degree ~neighbors ~config ~protocol () =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  if config.receive_capacity < 1 || config.send_capacity < 1 then
    fail "capacities must be >= 1";
  (match part with
  | Some p when Array.length p.Partition.owner <> n ->
      fail "partition does not cover the node set"
  | _ -> ());
  let ninj = Array.length injections in
  for i = 0 to ninj - 1 do
    let inj = injections.(i) in
    if inj.at < 1 then fail "injection rounds must be >= 1";
    if inj.node < 0 || inj.node >= n then fail "injection node out of range";
    if i > 0 then begin
      let p = injections.(i - 1) in
      if p.at > inj.at || (p.at = inj.at && p.node > inj.node) then
        fail "injections must be sorted by (round, node)"
    end
  done;
  (* A one-shard partition is the inline path: no lanes, no owner map. *)
  let part =
    match part with Some p when p.Partition.shards > 1 -> Some p | _ -> None
  in
  let kshards, owner =
    match part with
    | Some p -> (p.Partition.shards, p.Partition.owner)
    | None -> (1, [||])
  in
  let inline = kshards = 1 in
  let faulty = Option.is_some faults || Option.is_some dynamic in
  (* With ?starters everyone else starts lazily at first touch, and
     their on_start must produce no actions. *)
  let lazy_start = Option.is_some starters in
  let dense = (not inline) || not lazy_start in
  (* The pre-assigned store, allocated in a fixed order (the
     on-first-touch layout starts empty and grows). *)
  let slots = if dense then n else 0 in
  (* A lazily started pre-assigned store shares one filler until each
     node's first touch ([materialise]). The filler is node 0's state,
     not a starter's: a ticking run may name no starters at all. *)
  let states =
    if not dense || n = 0 then [||]
    else if lazy_start then Array.make n (protocol.initial_state 0)
    else Array.init n protocol.initial_state
  in
  let nbrs = Array.make slots [||] in
  let inq_off = Array.make slots 0 in
  let rings = ref 0 in
  for v = 0 to slots - 1 do
    inq_off.(v) <- !rings;
    rings := !rings + degree v
  done;
  let rings = !rings in
  let inq_ring = Array.make rings 0 in
  let out_ring = Array.make slots 0 in
  let rr = Array.make slots 0 in
  let pending = Array.make slots 0 in
  let on_send = Bytes.make slots '\000' in
  let on_recv = Bytes.make slots '\000' in
  let has_observer = observer != null_observer in
  let inj_of =
    if inline then [| injections |]
    else begin
      let parts = Array.make kshards [] in
      for i = ninj - 1 downto 0 do
        let s = owner.(injections.(i).node) in
        parts.(s) <- injections.(i) :: parts.(s)
      done;
      Array.map Array.of_list parts
    end
  in
  (* One shard writes the caller's recorders directly; several get
     fresh ones, merged back at the end. *)
  let recorder fresh = function
    | None -> None
    | Some r -> Some (if inline then r else fresh r)
  in
  let shards =
    Array.init kshards (fun id ->
        {
          id;
          senders = Vec.create ();
          receivers = Vec.create ();
          d_outstanding = 0;
          d_queued = 0;
          d_messages = 0;
          d_touched = 0;
          max_backlog = 0;
          last_active = 0;
          mrec = recorder Metrics.create_like metrics;
          tel =
            recorder
              (fun tl ->
                Telemetry.create
                  ~windows:(Telemetry.windows_capacity tl)
                  ~window_size:(Telemetry.window_size tl) ())
              telemetry;
          inj = inj_of.(id);
          inj_ptr = 0;
          evs = buf ();
          msgs = [||];
          next = [||];
          dsts = [||];
          free = -1;
        })
  in
  let k =
    {
      who;
      n;
      config;
      protocol;
      neighbors;
      part;
      kshards;
      owner;
      inline;
      dense;
      lazy_start;
      faulty;
      fr = (match faults with Some fr -> fr | None -> Faults.start Faults.none);
      dynamic;
      observer;
      has_observer;
      keep_alive;
      (* Idle rounds may be skipped wholesale only when nothing
         observable can happen in them: no tick handler, the do-nothing
         observer and the default keep_alive (both recognised by
         physical equality). *)
      can_fast_forward =
        Option.is_none protocol.on_tick
        && (not has_observer)
        && keep_alive == no_keep_alive;
      metrics;
      telemetry;
      sink;
      stats;
      injections;
      ginj_ptr = 0;
      states;
      nbrs;
      node_of = [||];
      inq_off;
      out_ring;
      rr;
      pending;
      on_send;
      on_recv;
      inq_ring;
      slots;
      rings;
      slot_map =
        (if (not dense) && n <= dense_slot_limit then Array.make n (-1) else [||]);
      slot_tbl =
        (if (not dense) && n > dense_slot_limit then Hashtbl.create 4096
         else no_slot_tbl);
      seen = (if dense && lazy_start then Bytes.make n '\000' else Bytes.empty);
      blocked = (if faulty then Bytes.make n '\000' else Bytes.empty);
      shards;
      tx = (if inline then [||] else Array.init (kshards * kshards) (fun _ -> buf ()));
      comp = [||];
      comp_len = 0;
      outstanding = 0;
      queued = 0;
      messages = 0;
      held = Heap.create ();
      held_count = 0;
      held_seq = 0;
      all_senders = Vec.create ~capacity:(if faulty && not inline then 16 else 1) ();
    }
  in
  if inline then
    execute k ~dispatch:(fun j t -> job k j shards.(0) t) ~starters ~halt_after
  else begin
    let helpers =
      match pool with
      | Some p -> Parallel.reserve p (kshards - 1)
      | None -> min (kshards - 1) (max 0 (Domain.recommended_domain_count () - 1))
    in
    let dispatch, stop =
      if helpers > 0 then start_lanes k ~helpers
      else ((fun j t -> Array.iter (fun sh -> job k j sh t) shards), ignore)
    in
    Fun.protect
      ~finally:(fun () ->
        stop ();
        Option.iter (fun p -> Parallel.release p helpers) pool;
        merge_recorders k)
      (fun () -> execute k ~dispatch ~starters ~halt_after)
  end;
  assemble k
