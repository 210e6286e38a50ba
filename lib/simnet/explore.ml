(* Bounded model checker over asynchronous interleavings. See
   explore.mli for the configuration encoding and the reduction
   argument. *)

module Graph = Countq_topology.Graph
module Parallel = Countq_util.Parallel

type stats = {
  explored : int;
  terminal : int;
  max_frontier : int;
  dedup_hits : int;
}

type outcome = Exhaustive of stats | Budget_exhausted of stats

exception Violation of string

(* ------------------------------------------------------------------ *)
(* Hashing the whole of a value. The polymorphic hash stops after 256
   blocks, so deep states that share a prefix would all fall into one
   probe chain; these walk every word. *)

let mix h x = (h lxor x) * 0x2545F4914F6CDD1D

let finish h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let float_bits f = Int64.to_int (Int64.bits_of_float f)

(* Floats hash by their bits, so -0.0 and 0.0 stay apart as they do in
   a serialisation. The last field is walked in tail position: long
   lists cost no stack. *)
let rec hash_obj h v =
  if Obj.is_int v then mix h (Obj.obj v : int)
  else
    let tag = Obj.tag v in
    if tag < Obj.lazy_tag then begin
      let size = Obj.size v in
      let h = ref (mix h (tag lor (size lsl 8))) in
      for i = 0 to size - 2 do
        h := hash_obj !h (Obj.field v i)
      done;
      if size = 0 then !h else hash_obj !h (Obj.field v (size - 1))
    end
    else if tag = Obj.string_tag then mix h (Hashtbl.hash (Obj.obj v : string))
    else if tag = Obj.double_tag then mix h (float_bits (Obj.obj v))
    else if tag = Obj.double_array_tag then begin
      let h = ref (mix h (Obj.size v)) in
      for i = 0 to Obj.size v - 1 do
        h := mix !h (float_bits (Obj.double_field v i))
      done;
      !h
    end
    else if tag = Obj.custom_tag then mix h (Hashtbl.hash v)
    else invalid_arg "Explore.run: configurations must be plain data"

let hash_value v = finish (hash_obj 0 (Obj.repr v))

let hash_ints (a : int array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := mix !h (Array.unsafe_get a i)
  done;
  finish !h

module Int_table = Hashtbl.Make (Int)

(* ------------------------------------------------------------------ *)
(* Interning: dense ids for one kind of component. [values.(id)] is the
   component itself, so an id decodes without a copy; [slots] indexes
   ids (stored as id + 1, 0 = free) by open addressing on the full
   hash. Only the sequential merge adds; pool workers read. *)

type 'a table = {
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
  mutable values : 'a array;
  mutable hashes : int array;
  mutable count : int;
  mutable slots : int array;
}

let table ~hash ~equal =
  {
    hash;
    equal;
    values = [||];
    hashes = [||];
    count = 0;
    slots = Array.make 64 0;
  }

(* Protocol values: whole-value hash, structural equality. *)
let structural () = table ~hash:hash_value ~equal:(fun a b -> compare a b = 0)

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.count - 1 do
    let i = ref (t.hashes.(id) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  t.slots <- slots

let add t i h v =
  let id = t.count in
  if id = Array.length t.values then begin
    let cap = max 16 (2 * id) in
    let values = Array.make cap v and hashes = Array.make cap 0 in
    Array.blit t.values 0 values 0 id;
    Array.blit t.hashes 0 hashes 0 id;
    t.values <- values;
    t.hashes <- hashes
  end;
  t.values.(id) <- v;
  t.hashes.(id) <- h;
  t.count <- id + 1;
  t.slots.(i) <- id + 1;
  if 2 * t.count > Array.length t.slots then grow_slots t;
  id

let intern t v =
  let h = t.hash v in
  let mask = Array.length t.slots - 1 in
  let rec probe i =
    match t.slots.(i) with
    | 0 -> add t i h v
    | s ->
        let id = s - 1 in
        if t.hashes.(id) = h && t.equal t.values.(id) v then id
        else probe ((i + 1) land mask)
  in
  probe (h land mask)

(* ------------------------------------------------------------------ *)
(* The visited set: each configuration's packed key once, in one byte
   arena. [index] is open addressing over (low 30 hash bits lsl 32) lor
   (arena offset + 1), 0 = free, so an entry is one unboxed int. A key
   is its id vector as varints; with the vector's length fixed per run
   keys are prefix-free, so comparing the probe's bytes never reads
   past a stored key. *)

type visited = {
  mutable arena : Bytes.t;
  mutable used : int;
  mutable index : int array;
  mutable size : int;
}

let hash_bits = 0x3FFF_FFFF

let rec put_varint buf pos x =
  if x < 0x80 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr x);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (x land 0x7f lor 0x80));
    put_varint buf (pos + 1) (x lsr 7)
  end

let rec same_key arena off key len j =
  j = len
  || Bytes.get arena (off + j) = Bytes.unsafe_get key j
     && same_key arena off key len (j + 1)

let rec probe v h key len mask i =
  let e = v.index.(i) in
  if e = 0 then i
  else if
    e lsr 32 = h land hash_bits
    && same_key v.arena ((e land 0xFFFF_FFFF) - 1) key len 0
  then i
  else probe v h key len mask ((i + 1) land mask)

(* [locate v h key len]: the index slot holding [key], or the free slot
   where it belongs. *)
let locate v h key len =
  let mask = Array.length v.index - 1 in
  probe v h key len mask (h land mask)

let grow_index v =
  let index = Array.make (2 * Array.length v.index) 0 in
  let mask = Array.length index - 1 in
  Array.iter
    (fun e ->
      if e <> 0 then begin
        let i = ref ((e lsr 32) land mask) in
        while index.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        index.(!i) <- e
      end)
    v.index;
  v.index <- index

(* Store [key] at free slot [i]; returns its arena offset. *)
let insert v i h key len =
  if v.used + len > Bytes.length v.arena then begin
    let arena = Bytes.create (2 * (v.used + len)) in
    Bytes.blit v.arena 0 arena 0 v.used;
    v.arena <- arena
  end;
  let off = v.used in
  Bytes.blit key 0 v.arena off len;
  v.used <- off + len;
  v.index.(i) <- ((h land hash_bits) lsl 32) lor (off + 1);
  v.size <- v.size + 1;
  if 2 * v.size > Array.length v.index then grow_index v;
  off

(* ------------------------------------------------------------------ *)

(* A frontier entry: where its key sits in the arena, the stamped
   completions of the representative execution that first reached it
   (newest first), and that execution's event counter. The stamps and
   the counter are deliberately NOT part of the configuration's
   identity. *)
type 'r entry = {
  key : int;
  completions : 'r Engine.completion list;
  events : int;
}

(* One successor as a worker computes it. Interning needs the merge's
   write access, so a delivery carries the raw values that changed and
   the merge turns them into ids. *)
type ('s, 'm, 'r) step =
  | Deliver of {
      slot : int;  (** the link whose head was delivered. *)
      state : 's;  (** the receiver's new state. *)
      sends : (int * 'm) list;  (** (link slot, message), FIFO. *)
      fresh : 'r Engine.completion list;  (** in order of occurrence. *)
    }
  | Transmit of int  (** this node's outbox head moves onto its link. *)

let run ~graph ~protocol ~check ?(max_configs = 1_000_000) ?(reduce = true)
    ?pool () =
  if max_configs < 1 then invalid_arg "Explore.run: max_configs must be >= 1";
  let n = Graph.n graph in
  (* One FIFO per directed edge, in CSR order over sorted neighbours:
     slot order is (src, dst) order. *)
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + Graph.degree graph v
  done;
  let nslots = first.(n) in
  let slot_dst = Array.make nslots 0 and slot_src = Array.make nslots 0 in
  for v = 0 to n - 1 do
    Array.iteri
      (fun i w ->
        slot_src.(first.(v) + i) <- v;
        slot_dst.(first.(v) + i) <- w)
      (Graph.neighbors graph v)
  done;
  let slot_of ~node dst =
    let rec search lo hi =
      if lo >= hi then raise (Engine.Not_a_neighbor { node; dst })
      else
        let mid = (lo + hi) / 2 in
        let w = slot_dst.(mid) in
        if w = dst then mid else if w < dst then search (mid + 1) hi
        else search lo mid
    in
    search first.(node) first.(node + 1)
  in
  (* A configuration's identity is its id vector: node states, then
     link queues, then outboxes (unreduced only), then the completion
     chain. *)
  let link = n and outbox = n + nslots in
  let chain = if reduce then outbox else outbox + n in
  let width = chain + 1 in
  let states = structural () and msgs = structural () in
  let results = structural () in
  (* Every int sequence: link queues (message ids), outboxes ((slot,
     message id) pairs) and chain entries (parent, node, value id). The
     empty sequence is id 0 for all three. *)
  let seqs = table ~hash:hash_ints ~equal:(fun (a : int array) b -> a = b) in
  ignore (intern seqs [||]);
  let drop q k =
    let a = seqs.values.(q) in
    intern seqs (Array.sub a k (Array.length a - k))
  in
  let append q tail = intern seqs (Array.append seqs.values.(q) tail) in
  (* Link pops and single-message pushes repeat across configurations,
     so both are memoised: pops per queue id (tail id + 1, 0 = not yet
     known), pushes by (queue id, message id), both ids far below 2^31
     at any budget the visited set can hold. *)
  let pops = ref [||] and pushes = Int_table.create 4096 in
  let pop q =
    if q >= Array.length !pops then begin
      let a = Array.make (max (q + 1) (2 * Array.length !pops)) 0 in
      Array.blit !pops 0 a 0 (Array.length !pops);
      pops := a
    end;
    match !pops.(q) with
    | 0 ->
        let r = drop q 1 in
        !pops.(q) <- r + 1;
        r
    | r -> r - 1
  in
  let push q m =
    let k = (q lsl 31) lor m in
    match Int_table.find pushes k with
    | r -> r
    | exception Not_found ->
        let r = append q [| m |] in
        Int_table.add pushes k r;
        r
  in
  let extend_chain c (comp : _ Engine.completion) =
    intern seqs [| c; comp.node; intern results comp.value |]
  in
  let visited =
    { arena = Bytes.create 4096; used = 0; index = Array.make 4096 0; size = 0 }
  in
  let key = Bytes.create (10 * width) in
  let pack ids =
    let pos = ref 0 in
    for i = 0 to width - 1 do
      pos := put_varint key !pos ids.(i)
    done;
    !pos
  in
  let decode off =
    let arena = visited.arena and ids = Array.make width 0 in
    let pos = ref off in
    for i = 0 to width - 1 do
      let x = ref 0 and shift = ref 0 in
      while Bytes.get arena !pos >= '\x80' do
        x := !x lor ((Char.code (Bytes.get arena !pos) land 0x7f) lsl !shift);
        shift := !shift + 7;
        incr pos
      done;
      ids.(i) <- !x lor (Char.code (Bytes.get arena !pos) lsl !shift);
      incr pos
    done;
    ids
  in
  (* One handler's actions: its sends as (link slot, message) and its
     completions, both in order of occurrence. *)
  let rec split ~node ~round sends fresh = function
    | [] -> (List.rev sends, List.rev fresh)
    | Engine.Send (dst, m) :: rest ->
        split ~node ~round ((slot_of ~node dst, m) :: sends) fresh rest
    | Engine.Complete value :: rest ->
        split ~node ~round sends ({ Engine.node; round; value } :: fresh) rest
    | Engine.Wake _ :: _ ->
        (* Dropping it would explore fewer executions than the engines run. *)
        invalid_arg
          (Printf.sprintf "Explore.run: node %d asked for a Wake (no timer model)" node)
  in
  (* Place [node]'s sends in the id vector: onto their links when
     reducing (the collapsed transmit chain), else behind its outbox. *)
  let place ids ~node sends =
    if reduce then
      List.iter
        (fun (s, m) -> ids.(link + s) <- push ids.(link + s) (intern msgs m))
        sends
    else if sends <> [] then
      ids.(outbox + node) <-
        append ids.(outbox + node)
          (Array.of_list
             (List.concat_map (fun (s, m) -> [ s; intern msgs m ]) sends))
  in
  (* Initial configuration: on_start everywhere at time 0. *)
  let initial_ids, initial_completions, initial_events =
    let ids = Array.make width 0 in
    let completions = ref [] and events = ref 0 in
    for v = 0 to n - 1 do
      let s, actions =
        protocol.Engine.on_start ~node:v (protocol.Engine.initial_state v)
      in
      ids.(v) <- intern states s;
      let sends, fresh = split ~node:v ~round:0 [] [] actions in
      place ids ~node:v sends;
      if reduce then events := !events + List.length sends;
      completions := List.rev_append fresh !completions
    done;
    ids.(chain) <- List.fold_left extend_chain 0 (List.rev !completions);
    (ids, !completions, !events)
  in
  (* A worker's pure view of one frontier entry: its successors in
     (transmits by node, deliveries by slot) order, or, when quiescent,
     the safety verdict. Only failing terminals pay for the canonical
     serialisation that orders counterexamples. *)
  let deliver (e : _ entry) ids slot q =
    let src = slot_src.(slot) and dst = slot_dst.(slot) in
    let msg = msgs.values.(seqs.values.(q).(0)) in
    let events = e.events + 1 in
    let state, actions =
      protocol.Engine.on_receive ~round:events ~node:dst ~src msg
        states.values.(ids.(dst))
    in
    let sends, fresh = split ~node:dst ~round:events [] [] actions in
    Deliver { slot; state; sends; fresh }
  in
  let verdict (e : _ entry) ids =
    match check (List.rev e.completions) with
    | Ok () -> None
    | Error msg ->
        let states = Array.init n (fun v -> states.values.(ids.(v))) in
        let stripped =
          List.map
            (fun (c : _ Engine.completion) -> (c.node, c.value))
            e.completions
        in
        (* The serialisation a quiescent configuration had as a whole
           (states, all-empty outboxes, no links, unstamped
           completions): the lowest one wins. *)
        Some
          ( Marshal.to_string
              (states, Array.make n [], [], stripped)
              [ Marshal.No_sharing ],
            msg )
  in
  let expand (e : _ entry) =
    let ids = decode e.key in
    let steps = ref [] in
    for slot = nslots - 1 downto 0 do
      let q = ids.(link + slot) in
      if q <> 0 then steps := deliver e ids slot q :: !steps
    done;
    if not reduce then
      for v = n - 1 downto 0 do
        if ids.(outbox + v) <> 0 then
          steps := Transmit v :: !steps
      done;
    match !steps with
    | [] -> `Terminal (verdict e ids)
    | steps -> `Succs (e, ids, steps)
  in
  let explored = ref 0
  and terminal = ref 0
  and max_frontier = ref 0
  and dedup_hits = ref 0 in
  let stats () =
    {
      explored = !explored;
      terminal = !terminal;
      max_frontier = !max_frontier;
      dedup_hits = !dedup_hits;
    }
  in
  (* [succ] becomes the successor's id vector: the parent's with the
     step's changes interned. *)
  let succ = Array.make width 0 in
  let apply ids step =
    Array.blit ids 0 succ 0 width;
    match step with
    | Transmit node ->
        let out = seqs.values.(ids.(outbox + node)) in
        succ.(outbox + node) <- drop ids.(outbox + node) 2;
        succ.(link + out.(0)) <- push ids.(link + out.(0)) out.(1)
    | Deliver { slot; state; sends; fresh } ->
        let dst = slot_dst.(slot) in
        succ.(link + slot) <- pop ids.(link + slot);
        if state != states.values.(ids.(dst)) then
          succ.(dst) <- intern states state;
        place succ ~node:dst sends;
        succ.(chain) <- List.fold_left extend_chain ids.(chain) fresh
  in
  let h = hash_ints initial_ids and len = pack initial_ids in
  let initial =
    {
      key = insert visited (locate visited h key len) h key len;
      completions = initial_completions;
      events = initial_events;
    }
  in
  explored := 1;
  (* Breadth-first by layers: workers expand a whole layer in
     parallel; interning, dedup, counting and budget enforcement happen
     here, in input order, so the run is bit-identical for every jobs
     count. *)
  let rec loop frontier =
    match frontier with
    | [] -> Exhaustive (stats ())
    | layer ->
        max_frontier := max !max_frontier (List.length layer);
        let next = ref [] in
        let exhausted = ref false in
        let violation = ref None in
        let admit (e : _ entry) ids step =
          apply ids step;
          let h = hash_ints succ and len = pack succ in
          let i = locate visited h key len in
          if visited.index.(i) <> 0 then incr dedup_hits
          else if not !exhausted then
            if !explored >= max_configs then exhausted := true
            else begin
              (* Each transmit is one event, and a reduced delivery
                 transmits its sends at once. *)
              let completions, events =
                match step with
                | Transmit _ -> (e.completions, e.events + 1)
                | Deliver { sends; fresh; _ } ->
                    ( List.rev_append fresh e.completions,
                      e.events + 1 + if reduce then List.length sends else 0 )
              in
              incr explored;
              let key = insert visited i h key len in
              next := { key; completions; events } :: !next
            end
        in
        let merge result =
          match result with
          | `Terminal verdict -> (
              incr terminal;
              match (verdict, !violation) with
              | None, _ -> ()
              | Some (ckey, _), Some (best, _) when best <= ckey -> ()
              | Some v, _ -> violation := Some v)
          | `Succs (e, ids, steps) -> List.iter (admit e ids) steps
        in
        (* Without a pool each entry's successors are merged as soon as
           they are expanded, so the heap holds this layer and the
           next, not every successor of the layer at once. *)
        (match pool with
        | None -> List.iter (fun e -> merge (expand e)) layer
        | Some p -> List.iter merge (Parallel.pool_map p expand layer));
        (match !violation with
        | Some (_, msg) -> raise (Violation msg)
        | None -> ());
        if !exhausted then Budget_exhausted (stats ())
        else loop (List.rev !next)
  in
  loop [ initial ]
