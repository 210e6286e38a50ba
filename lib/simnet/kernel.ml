(* The round kernel. See kernel.mli.

   One implementation of the Section 2.1 phase order, behind every
   engine entry point. Per executed round:

     coordinator: loop bookkeeping, quiescent-gap jump, round limit
     all lanes:   SEND    — drain own outboxes; local enqueues direct,
                            remote ones into transfer buffers
     barrier
     all lanes:   DELIVER — apply sorted incoming transfers, then
                            receive (arbiter, protocol), then due
                            wakes, then injections, for own nodes
     barrier
     coordinator: merge per-shard counter deltas, replay the round's
                  completions and tap events in (phase, node) order,
                  round-end hooks

   With one shard there are no lanes and no transfers: every phase runs
   inline on the calling domain, and completions and tap callbacks fire
   at the point they happen.

   With ?faults or ?dynamic the SEND phase instead runs on the
   coordinator over the globally sorted sender list — the fault
   decision stream is one mutable sequence whose global transmission
   order is observable — and the coordinator precomputes this round's
   crash/churn verdict for every node the DELIVER phase will examine,
   so fault-plan and schedule queries are never issued concurrently.

   Wakes live in one heap per shard, keyed by (round, node): a node
   only wakes itself, so its heap is its owning lane's and no wake
   crosses the barrier. A wake whose node is down when it falls due
   moves to the next round (or is dropped if the node is crashed for
   good), so every entry popped in round t has round t exactly, and a
   heap pops them in ascending node order.

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

   Each domain keeps one spare pre-assigned store in Domain.DLS: the
   int arrays inq_off, inq_ring, out_ring, rr and pending, the nbrs
   array (all [||]: it is reset when handed back, so no neighbour array
   stays alive) and the on_send, on_recv and seen bytes. A pre-assigned
   run takes it on the coordinator (worker lanes never touch it), uses
   each array that is long enough after clearing the prefix it needs,
   allocates any that is too short, and hands its arrays back when it
   returns normally. Only the first-touch layout reads these arrays'
   lengths, so a longer array is safe. The states array is never kept.
   What a domain retains is one store's int arrays and bytes at the
   size of its largest pre-assigned run so far (5n + 2m words and 3n
   bytes); back-to-back runs then stop mapping a second set while the
   dead first one waits for the major GC.

   The one shard rule for completions and tap events: a lane tags each
   with (phase, node) and buffers it; the coordinator replays the
   round's buffers at the barrier, k-way merged in that order (phase 0
   = time 0 or send, 1 = cross-shard transfer, 2 = receive, 3 = wake,
   4 = injection; send and transfer events are keyed by the sender).
   Each buffer is sorted and a node's receive, wake and injection
   events live in one shard, so the deliver/complete stream is exactly
   the sequential one. What the coordinator itself runs — the faulty
   send phase, round ends — calls the tap at once.

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
}

type ('m, 'r) action = Send of int * 'm | Complete of 'r | Wake of int

type ('s, 'm, 'r) protocol = {
  name : string;
  initial_state : int -> 's;
  on_start : node:int -> 's -> 's * ('m, 'r) action list;
  on_receive :
    round:int -> node:int -> src:int -> 'm -> 's -> 's * ('m, 'r) action list;
  on_wake : round:int -> node:int -> 's -> 's * ('m, 'r) action list;
}

let no_wake ~round:_ ~node:_ s = (s, [])

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

type 'r tap = {
  passive : bool;
  on_transmit : round:int -> src:int -> dst:int -> unit;
  on_backlog : round:int -> node:int -> backlog:int -> unit;
  on_deliver : round:int -> src:int -> dst:int -> unit;
  on_complete : round:int -> node:int -> value:'r -> unit;
  on_inject : round:int -> node:int -> unit;
  on_drop : round:int -> src:int -> dst:int -> unit;
  on_duplicate : round:int -> src:int -> dst:int -> unit;
  on_delay : round:int -> src:int -> dst:int -> unit;
  on_down_drop : round:int -> src:int -> dst:int -> unit;
  on_round_end : round:int -> in_flight:int -> [ `Continue | `Halt ];
}

let no_tap =
  let edge ~round:_ ~src:_ ~dst:_ = () in
  {
    passive = true;
    on_transmit = edge;
    on_backlog = (fun ~round:_ ~node:_ ~backlog:_ -> ());
    on_deliver = edge;
    on_complete = (fun ~round:_ ~node:_ ~value:_ -> ());
    on_inject = (fun ~round:_ ~node:_ -> ());
    on_drop = edge;
    on_duplicate = edge;
    on_delay = edge;
    on_down_drop = edge;
    on_round_end = (fun ~round:_ ~in_flight:_ -> `Continue);
  }

let both a b =
  let edge f g ~round ~src ~dst =
    f ~round ~src ~dst;
    g ~round ~src ~dst
  in
  {
    passive = a.passive && b.passive;
    on_transmit = edge a.on_transmit b.on_transmit;
    on_backlog =
      (fun ~round ~node ~backlog ->
        a.on_backlog ~round ~node ~backlog;
        b.on_backlog ~round ~node ~backlog);
    on_deliver = edge a.on_deliver b.on_deliver;
    on_complete =
      (fun ~round ~node ~value ->
        a.on_complete ~round ~node ~value;
        b.on_complete ~round ~node ~value);
    on_inject =
      (fun ~round ~node ->
        a.on_inject ~round ~node;
        b.on_inject ~round ~node);
    on_drop = edge a.on_drop b.on_drop;
    on_duplicate = edge a.on_duplicate b.on_duplicate;
    on_delay = edge a.on_delay b.on_delay;
    on_down_drop = edge a.on_down_drop b.on_down_drop;
    on_round_end =
      (fun ~round ~in_flight ->
        let ra = a.on_round_end ~round ~in_flight in
        let rb = b.on_round_end ~round ~in_flight in
        if ra = `Halt || rb = `Halt then `Halt else `Continue);
  }

(* [earliest] is the first tick position still to come for a handler
   running in [round]: a wake before it would never fire. *)
let check_wake ~round ~earliest r =
  if r < earliest then
    invalid_arg
      (Printf.sprintf
         "Wake %d asked for in round %d: the earliest round it may name is %d" r
         round earliest)

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

(* What a lane buffers for the round-end replay, under its
   (phase, node) tag; the comments name the tagged node. *)
type 'r event =
  | Transmit of int  (* dst; tagged by the sender *)
  | Backlog of int * int  (* dst, backlog; tagged by the sender *)
  | Delivered of int  (* src; tagged by the receiver *)
  | Completed of 'r
  | Injected

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

(* One shard's worklists, its deltas merged at the barrier, its event
   buffer and its share of the injection schedule. *)
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
  inj : ('s, 'm, 'r) injection array;  (* in global (round, node) order *)
  mutable inj_ptr : int;
  wakes : (int * int, unit) Heap.t;  (* (round, node), own nodes only *)
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
  kshards : int;
  owner : int -> int;  (* the partition's; unused inline *)
  inline : bool;
  dense : bool;  (* slots pre-assigned, else on first touch *)
  lazy_start : bool;  (* ?starters given *)
  faulty : bool;  (* ?faults or ?dynamic given *)
  fr : Faults.runtime;
  dynamic : Dynamic.runtime option;
  tap : 'r tap;
  tapped : bool;  (* ?tap given: lanes buffer its events when sharded *)
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
  blocked : Bytes.t;  (* this round's verdicts: '\000' up, '\001' down,
                        '\002' crashed for good *)
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
let owner_of k v = if k.inline then 0 else k.owner v

let node_down k v ~round =
  match k.dynamic with
  | None -> false
  | Some dr -> not (Dynamic.node_up (Dynamic.sched dr) ~round ~node:v)

let link_severed k ~src ~dst ~round =
  match k.dynamic with
  | None -> false
  | Some dr -> not (Dynamic.link_up (Dynamic.sched dr) ~round ~u:src ~v:dst)

let is_down k v ~round = Faults.crashed k.fr ~node:v ~round || node_down k v ~round
let is_blocked k v = k.faulty && Bytes.unsafe_get k.blocked v <> '\000'

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
  | Wake r :: rest ->
      let earliest = match phase with 0 -> 1 | 2 -> t | _ -> t + 1 in
      check_wake ~round:t ~earliest r;
      Heap.push sh.wakes (r, v) ();
      apply_actions k sh phase s v t rest
  | Complete value :: rest ->
      if k.inline then begin
        if k.tapped then k.tap.on_complete ~round:t ~node:v ~value;
        push_completion k { node = v; round = t; value }
      end
      else buf_push sh.evs (phase, v, Completed value);
      apply_actions k sh phase s v t rest

(* Hand [msg] (from [src]) to [dst]'s incoming queue, on [dst]'s owning
   shard [sh]; returns that link's backlog. *)
let enqueue k sh src dst msg =
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
  backlog

(* ---------------- SEND phase (lanes, fault-free only) ---------------- *)

let rec drain_free k sh s v t budget =
  if budget > 0 && out_len k s > 0 then begin
    let c = out_take k sh s in
    let dst = Array.unsafe_get sh.dsts c and msg = Array.unsafe_get sh.msgs c in
    sh.d_outstanding <- sh.d_outstanding - 1;
    sh.last_active <- t;
    let dsh = owner_of k dst in
    if dsh = sh.id then begin
      let backlog = enqueue k sh v dst msg in
      if k.tapped then
        if k.inline then begin
          k.tap.on_transmit ~round:t ~src:v ~dst;
          k.tap.on_backlog ~round:t ~node:dst ~backlog
        end
        else begin
          buf_push sh.evs (0, v, Transmit dst);
          buf_push sh.evs (0, v, Backlog (dst, backlog))
        end
    end
    else begin
      (* The receiving shard applies the queue side after the barrier. *)
      if k.tapped then buf_push sh.evs (0, v, Transmit dst);
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
let apply_transfers k sh =
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
        let backlog = enqueue k sh src dst msg in
        if k.tapped then buf_push sh.evs (1, src, Backlog (dst, backlog)))
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
      if k.tapped then
        if k.inline then k.tap.on_deliver ~round:t ~src ~dst:v
        else buf_push sh.evs (2, v, Delivered src);
      (* The per-message hot path: the network, funnel and counter
         handlers hand back [old], so [store] writes nothing. *)
      let old = k.states.(s) in
      let s', actions = k.protocol.on_receive ~round:t ~node:v ~src msg old in
      store k s old s';
      apply_actions k sh 2 s v t actions;
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

(* Fire this shard's wakes due in round [t], in node order, once per
   node ([prev] skips the duplicates, which pop next to each other); a
   blocked node's wake moves to round [t + 1], or is dropped if the
   node is crashed for good. Work issued at time [t] enters the network
   in round [t + 1]. *)
let rec wake_shard k sh t prev =
  match Heap.peek sh.wakes with
  | Some (((r, v) as key), ()) when r <= t ->
      ignore (Heap.pop sh.wakes);
      if key = prev then ()
      else if is_blocked k v then begin
        if Bytes.unsafe_get k.blocked v = '\001' then Heap.push sh.wakes (t + 1, v) ()
      end
      else begin
        let s = slot k v in
        let old = k.states.(s) in
        let s', actions = k.protocol.on_wake ~round:t ~node:v old in
        store k s old s';
        apply_actions k sh 3 s v t actions
      end;
      wake_shard k sh t key
  | _ -> ()

(* Injections fire at the tick position, after the wakes; a crashed or
   churned-out node's injection is lost. *)
let inject_shard k sh t =
  let arr = sh.inj in
  while sh.inj_ptr < Array.length arr && arr.(sh.inj_ptr).at <= t do
    let inj = arr.(sh.inj_ptr) in
    sh.inj_ptr <- sh.inj_ptr + 1;
    let v = inj.node in
    if not (is_blocked k v) then begin
      if k.tapped then
        if k.inline then k.tap.on_inject ~round:t ~node:v
        else buf_push sh.evs (4, v, Injected);
      let s = touch k sh v in
      let old = k.states.(s) in
      let s', actions = inj.inject old in
      store k s old s';
      apply_actions k sh 4 s v t actions
    end
  done

let deliver_shard k sh t =
  if not k.inline then apply_transfers k sh;
  recv_shard k sh t;
  wake_shard k sh t (-1, -1);
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
(* Queue effects land on the receiver's shard structures directly and
   tap events fire at once — safe, the lanes are parked. *)

(* Enqueue, or discard the message if the receiver is down — crashed by
   the fault plan, or churned out by the dynamic schedule. *)
let enqueue_faulty k t src dst msg =
  if Faults.crashed k.fr ~node:dst ~round:t then begin
    Faults.note_crash_drop k.fr;
    k.tap.on_down_drop ~round:t ~src ~dst
  end
  else if node_down k dst ~round:t then begin
    (match k.dynamic with Some dr -> Dynamic.note_node_drop dr | None -> ());
    k.tap.on_down_drop ~round:t ~src ~dst
  end
  else begin
    let backlog = enqueue k k.shards.(owner_of k dst) src dst msg in
    k.tap.on_backlog ~round:t ~node:dst ~backlog
  end

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
    k.tap.on_transmit ~round:t ~src:v ~dst;
    if link_severed k ~src:v ~dst ~round:t then begin
      (* A transmission over a down link is lost at the sender's end;
         the fault plan's decision stream is not consumed for it. *)
      (match k.dynamic with Some dr -> Dynamic.note_link_drop dr | None -> ());
      k.tap.on_drop ~round:t ~src:v ~dst
    end
    else begin
      match Faults.decide k.fr ~src:v ~dst ~round:t with
      | Faults.Deliver -> enqueue_faulty k t v dst msg
      | Faults.Drop -> k.tap.on_drop ~round:t ~src:v ~dst
      | Faults.Duplicate ->
          k.tap.on_duplicate ~round:t ~src:v ~dst;
          enqueue_faulty k t v dst msg;
          enqueue_faulty k t v dst msg
      | Faults.Delay d ->
          k.tap.on_delay ~round:t ~src:v ~dst;
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
   will consult: queued receivers, due wakes and due injections. A wake
   a receive asks for in round [t] is its receiver's, already here. *)
let precompute_blocked k t =
  let verdict v =
    Bytes.unsafe_set k.blocked v
      (if Faults.crashed_for_good k.fr ~node:v ~round:t then '\002'
       else if is_down k v ~round:t then '\001'
       else '\000')
  in
  Array.iter
    (fun sh ->
      Vec.iter verdict sh.receivers;
      Heap.iter_upto sh.wakes (t, max_int) (fun (_, v) () -> verdict v))
    k.shards;
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

(* Replay the round's buffered events (sharded runs), k-way merged in
   (phase, node) order, ties to the lower shard; see the preamble. *)
let replay k t =
  if not k.inline then begin
    let ptr = Array.make k.kshards 0 in
    let continue_ = ref true in
    while !continue_ do
      let best = ref (-1) and bp = ref max_int and bn = ref max_int in
      Array.iteri
        (fun i sh ->
          if ptr.(i) < sh.evs.len then begin
            let phase, node, _ = sh.evs.data.(ptr.(i)) in
            if phase < !bp || (phase = !bp && node < !bn) then begin
              bp := phase;
              bn := node;
              best := i
            end
          end)
        k.shards;
      if !best < 0 then continue_ := false
      else begin
        let _, node, ev = k.shards.(!best).evs.data.(ptr.(!best)) in
        ptr.(!best) <- ptr.(!best) + 1;
        match ev with
        | Transmit dst -> k.tap.on_transmit ~round:t ~src:node ~dst
        | Backlog (dst, backlog) -> k.tap.on_backlog ~round:t ~node:dst ~backlog
        | Delivered src -> k.tap.on_deliver ~round:t ~src ~dst:node
        | Completed value ->
            if k.tapped then k.tap.on_complete ~round:t ~node ~value;
            push_completion k { node; round = t; value }
        | Injected -> k.tap.on_inject ~round:t ~node
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

(* The round-end hooks; [true] when the tap halts the run. *)
let round_end k t =
  (match k.stats with
  | Some c -> c.executed_rounds <- c.executed_rounds + 1
  | None -> ());
  note_peak k;
  k.tap.on_round_end ~round:t ~in_flight:(in_flight k) = `Halt

let wakes_pending k = Array.exists (fun sh -> not (Heap.is_empty sh.wakes)) k.shards

(* The next held-message, wake or injection due round, or max_int. *)
let next_event k =
  let due = match Heap.peek k.held with Some ((d, _), _) -> d | None -> max_int in
  let due =
    Array.fold_left
      (fun due sh ->
        match Heap.peek sh.wakes with Some ((r, _), ()) -> min due r | None -> due)
      due k.shards
  in
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
       || wakes_pending k)
  do
    incr round;
    let t = !round in
    if t > halt_cap then halted := true
    else begin
      if t > config.max_rounds then raise_round_limit k;
      (* Quiescent, with a passive tap: jump to the round before the
         next held-message, wake or injection due round (one exists, or
         the loop would have ended); the cap keeps the limit check above
         authoritative. *)
      let next =
        if k.tap.passive && k.outstanding = 0 && k.queued = 0 then
          next_event k
        else t
      in
      if next > t then round := max t (min (next - 1) config.max_rounds)
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

(* ---------------- the spare pre-assigned store --------------------- *)

(* The pre-assigned layout's int arrays and bytes, kept by each domain
   for its next pre-assigned run (see the preamble). [nbrs] is all
   [||]; the other arrays' contents are stale. *)
type spare = {
  sp_nbrs : int array array;
  sp_inq_off : int array;
  sp_inq_ring : int array;
  sp_out_ring : int array;
  sp_rr : int array;
  sp_pending : int array;
  sp_on_send : Bytes.t;
  sp_on_recv : Bytes.t;
  sp_seen : Bytes.t;
}

let no_spare =
  {
    sp_nbrs = [||];
    sp_inq_off = [||];
    sp_inq_ring = [||];
    sp_out_ring = [||];
    sp_rr = [||];
    sp_pending = [||];
    sp_on_send = Bytes.empty;
    sp_on_recv = Bytes.empty;
    sp_seen = Bytes.empty;
  }

let spare_key = Domain.DLS.new_key (fun () -> no_spare)

(* The coordinator takes the spare for the length of a run, so a run
   nested in a handler finds none and allocates its own. *)
let take_spare () =
  let sp = Domain.DLS.get spare_key in
  Domain.DLS.set spare_key no_spare;
  sp

(* [a] if it holds [len] cells (their contents as they are), else a
   fresh array of [len] [x]. *)
let at_least a len x = if Array.length a >= len then a else Array.make len x

(* The same, with the prefix the run uses cleared to [x]. *)
let cleared a len x =
  if Array.length a >= len then begin
    Array.fill a 0 len x;
    a
  end
  else Array.make len x

let cleared_bytes b len =
  if Bytes.length b >= len then begin
    Bytes.fill b 0 len '\000';
    b
  end
  else Bytes.make len '\000'

(* After a normal return: no neighbour array stays reachable from the
   spare. [seen] is the spare's own when this run did not use it. *)
let give_back k =
  Array.fill k.nbrs 0 k.n [||];
  Domain.DLS.set spare_key
    {
      sp_nbrs = k.nbrs;
      sp_inq_off = k.inq_off;
      sp_inq_ring = k.inq_ring;
      sp_out_ring = k.out_ring;
      sp_rr = k.rr;
      sp_pending = k.pending;
      sp_on_send = k.on_send;
      sp_on_recv = k.on_recv;
      sp_seen = k.seen;
    }

let run ~who ?part ?pool ?faults ?dynamic ?tap ?sink ?(injections = [||])
    ?halt_after ?stats ?starters ~n ~degree ~neighbors ~config ~protocol () =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  if config.receive_capacity < 1 || config.send_capacity < 1 then
    fail "capacities must be >= 1";
  (match part with
  | Some p when Partition.size p <> n -> fail "partition does not cover the node set"
  | Some p -> (
      try Partition.validate p
      with Invalid_argument _ ->
        fail "partition needs a shard and every owner in 0 .. shards-1")
  | None -> ());
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
  let kshards, owner =
    match part with
    | Some p when Partition.shards p > 1 -> (Partition.shards p, Partition.owner p)
    | _ -> (1, fun _ -> 0)
  in
  let inline = kshards = 1 in
  let faulty = Option.is_some faults || Option.is_some dynamic in
  (* With ?starters everyone else starts lazily at first touch, and
     their on_start must produce no actions. *)
  let lazy_start = Option.is_some starters in
  let dense = (not inline) || not lazy_start in
  (* The pre-assigned store comes from this domain's spare where that is
     long enough (the on-first-touch layout starts empty and grows). *)
  let slots = if dense then n else 0 in
  let sp = if dense then take_spare () else no_spare in
  (* A lazily started pre-assigned store shares one filler until each
     node's first touch ([materialise]). The filler is node 0's state,
     not a starter's: an injection-driven run may name no starters at
     all. *)
  let states =
    if not dense || n = 0 then [||]
    else if lazy_start then Array.make n (protocol.initial_state 0)
    else Array.init n protocol.initial_state
  in
  let nbrs = at_least sp.sp_nbrs slots [||] in
  let inq_off = at_least sp.sp_inq_off slots 0 in
  let rings = ref 0 in
  for v = 0 to slots - 1 do
    inq_off.(v) <- !rings;
    rings := !rings + degree v
  done;
  let rings = !rings in
  let inq_ring = cleared sp.sp_inq_ring rings 0 in
  let out_ring = cleared sp.sp_out_ring slots 0 in
  let rr = cleared sp.sp_rr slots 0 in
  let pending = cleared sp.sp_pending slots 0 in
  let on_send = cleared_bytes sp.sp_on_send slots in
  let on_recv = cleared_bytes sp.sp_on_recv slots in
  let inj_of =
    if inline then [| injections |]
    else begin
      let parts = Array.make kshards [] in
      for i = ninj - 1 downto 0 do
        let s = owner injections.(i).node in
        parts.(s) <- injections.(i) :: parts.(s)
      done;
      Array.map Array.of_list parts
    end
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
          inj = inj_of.(id);
          inj_ptr = 0;
          wakes = Heap.create ();
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
      kshards;
      owner;
      inline;
      dense;
      lazy_start;
      faulty;
      fr = (match faults with Some fr -> fr | None -> Faults.start Faults.none);
      dynamic;
      tap = Option.value tap ~default:no_tap;
      tapped = Option.is_some tap;
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
      seen = (if dense && lazy_start then cleared_bytes sp.sp_seen n else sp.sp_seen);
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
        Option.iter (fun p -> Parallel.release p helpers) pool)
      (fun () -> execute k ~dispatch ~starters ~halt_after)
  end;
  if dense then give_back k;
  assemble k
