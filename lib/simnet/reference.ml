(* The pre-active-set synchronous engine, retained as a test oracle.
   See reference.mli.

   This is the dense O(n)-per-round implementation the optimised
   {!Engine} replaced: every round scans all n nodes in the send,
   receive and wake phases, neighbour lookups go through a per-node
   Hashtbl, and completions accumulate in a list. Keep it boring and
   keep it verbatim — its only job is to define, operationally, what
   "bit-identical" means for the equivalence properties in
   test/test_equiv.ml. Do not optimise this file. *)

open Engine
module Graph = Countq_topology.Graph
module Heap = Countq_util.Heap

(* Per-node runtime: incoming FIFO queues indexed by the sender's
   position in the receiver's sorted neighbour array, plus an outbox
   drained at [send_capacity] messages per round. *)
type 'm node_rt = {
  nbrs : int array;
  nbr_index : (int, int) Hashtbl.t; (* sender id -> incoming queue index *)
  inq : 'm Queue.t array;
  outbox : (int * 'm) Queue.t;
  mutable rr_pointer : int;
  mutable pending : int;
}

let run ?faults ?dynamic ?(tap = no_tap) ~graph ~config ~protocol () =
  if config.receive_capacity < 1 || config.send_capacity < 1 then
    invalid_arg "Engine.run: capacities must be >= 1";
  let n = Graph.n graph in
  let states = Array.init n protocol.initial_state in
  let rt =
    Array.init n (fun v ->
        let nbrs = Graph.neighbors graph v in
        let nbr_index = Hashtbl.create (max 1 (Array.length nbrs)) in
        Array.iteri (fun i u -> Hashtbl.replace nbr_index u i) nbrs;
        {
          nbrs;
          nbr_index;
          inq = Array.init (Array.length nbrs) (fun _ -> Queue.create ());
          outbox = Queue.create ();
          rr_pointer = 0;
          pending = 0;
        })
  in
  let completions = ref [] in
  let messages = ref 0 in
  let max_backlog = ref 0 in
  let outstanding_sends = ref 0 in
  let queued_total = ref 0 in
  (* Messages postponed by a Delay fault, keyed by delivery round (FIFO
     among equal rounds via the insertion counter). *)
  let held : (int * int, int * int * 'm) Heap.t = Heap.create () in
  let held_count = ref 0 in
  let held_seq = ref 0 in
  (* Rounds each node asked to be woken in, not yet fired. *)
  let wakes = Array.make n [] in
  let crashed v round =
    match faults with
    | None -> false
    | Some fr -> Faults.crashed fr ~node:v ~round
  in
  let gone v round =
    match faults with Some fr -> Faults.crashed_for_good fr ~node:v ~round | None -> false
  in
  let dyn_down v round =
    match dynamic with
    | None -> false
    | Some dr -> not (Dynamic.node_up (Dynamic.sched dr) ~round ~node:v)
  in
  (* Crashed by the fault plan or churned out by the dynamic schedule:
     either way the node is silent this round but keeps its state. *)
  let down v round = crashed v round || dyn_down v round in
  let severed u w round =
    match dynamic with
    | None -> false
    | Some dr -> not (Dynamic.link_up (Dynamic.sched dr) ~round ~u ~v:w)
  in
  let apply_actions v round ~earliest actions =
    List.iter
      (fun action ->
        match action with
        | Wake r ->
            Kernel.check_wake ~round ~earliest r;
            wakes.(v) <- r :: wakes.(v)
        | Send (dst, msg) ->
            if not (Hashtbl.mem rt.(v).nbr_index dst) then
              raise (Not_a_neighbor { node = v; dst });
            Queue.push (dst, msg) rt.(v).outbox;
            incr outstanding_sends
        | Complete value ->
            tap.on_complete ~round ~node:v ~value;
            completions := { node = v; round; value } :: !completions)
      actions
  in
  (* Time 0: the one-shot requests are issued; no communication yet. *)
  for v = 0 to n - 1 do
    let s, actions = protocol.on_start ~node:v states.(v) in
    states.(v) <- s;
    apply_actions v 0 ~earliest:1 actions
  done;
  (* Picks the sender whose queue head should be delivered next, per the
     configured arbitration policy. Returns the incoming-queue index. *)
  let pick nv t v =
    let k = Array.length nv.inq in
    match config.arbiter with
    | Lowest_sender_first ->
        let rec scan i =
          if i >= k then None
          else if not (Queue.is_empty nv.inq.(i)) then Some i
          else scan (i + 1)
        in
        scan 0
    | Round_robin ->
        let rec scan steps =
          if steps >= k then None
          else begin
            let idx = (nv.rr_pointer + steps) mod k in
            if not (Queue.is_empty nv.inq.(idx)) then begin
              nv.rr_pointer <- (idx + 1) mod k;
              Some idx
            end
            else scan (steps + 1)
          end
        in
        scan 0
    | Custom f ->
        let candidates = ref [] in
        for i = k - 1 downto 0 do
          if not (Queue.is_empty nv.inq.(i)) then
            candidates := nv.nbrs.(i) :: !candidates
        done;
        if !candidates = [] then None
        else begin
          let src = f ~round:t ~node:v ~candidates:!candidates in
          if not (List.mem src !candidates) then
            invalid_arg "Engine.run: arbiter chose a non-candidate";
          Some (Hashtbl.find nv.nbr_index src)
        end
  in
  (* Hand [msg] (sent by [src]) to [dst]'s incoming FIFO in round [t],
     or discard it if the receiver is down. *)
  let enqueue_at t src dst msg =
    if crashed dst t then begin
      Faults.note_crash_drop (Option.get faults);
      tap.on_down_drop ~round:t ~src ~dst
    end
    else if dyn_down dst t then begin
      (match dynamic with Some dr -> Dynamic.note_node_drop dr | None -> ());
      tap.on_down_drop ~round:t ~src ~dst
    end
    else begin
      let nd = rt.(dst) in
      let qi = Hashtbl.find nd.nbr_index src in
      Queue.push msg nd.inq.(qi);
      nd.pending <- nd.pending + 1;
      incr queued_total;
      let backlog = Queue.length nd.inq.(qi) in
      max_backlog := max !max_backlog backlog;
      tap.on_backlog ~round:t ~node:dst ~backlog
    end
  in
  let round = ref 0 in
  let last_active = ref 0 in
  let halted = ref false in
  while
    (not !halted)
    && (!outstanding_sends > 0 || !queued_total > 0 || !held_count > 0
       || Array.exists (fun l -> l <> []) wakes)
  do
    incr round;
    if !round > config.max_rounds then begin
      (* Same payload as the optimised engine computes at its raise
         point: per-node load, with held messages charged to their
         destination. *)
      let loads = Array.make n 0 in
      for v = 0 to n - 1 do
        loads.(v) <- rt.(v).pending + Queue.length rt.(v).outbox
      done;
      let rec drain () =
        match Heap.pop held with
        | Some (_, (_, dst, _)) ->
            loads.(dst) <- loads.(dst) + 1;
            drain ()
        | None -> ()
      in
      drain ();
      raise
        (Round_limit_exceeded
           {
             limit = config.max_rounds;
             outstanding = !outstanding_sends;
             queued = !queued_total;
             held = !held_count;
             busiest = top_loaded loads;
           })
    end;
    let t = !round in
    (* An idle round — nothing in an outbox or on a link, no held
       message or wake due — calls no hook of a passive tap. *)
    let idle =
      !outstanding_sends = 0 && !queued_total = 0
      && (match Heap.peek held with Some ((due, _), _) -> due > t | None -> true)
      && not (Array.exists (List.exists (fun r -> r <= t)) wakes)
    in
    (* Fault-delayed messages whose spike has elapsed join the receiver
       queues ahead of this round's fresh sends. *)
    let rec flush_held () =
      match Heap.peek held with
      | Some ((due, _), (src, dst, msg)) when due <= t ->
          ignore (Heap.pop held);
          decr held_count;
          last_active := t;
          enqueue_at t src dst msg;
          flush_held ()
      | _ -> ()
    in
    flush_held ();
    (* Send phase. *)
    for v = 0 to n - 1 do
      if not (down v t) then begin
        let nv = rt.(v) in
        let budget = ref config.send_capacity in
        while !budget > 0 && not (Queue.is_empty nv.outbox) do
          let dst, msg = Queue.pop nv.outbox in
          decr outstanding_sends;
          decr budget;
          last_active := t;
          tap.on_transmit ~round:t ~src:v ~dst;
          if severed v dst t then begin
            (* Lost at the sender's end; the fault plan's decision
               stream is not consumed for a severed link. *)
            (match dynamic with
            | Some dr -> Dynamic.note_link_drop dr
            | None -> ());
            tap.on_drop ~round:t ~src:v ~dst
          end
          else
            let decision =
              match faults with
              | None -> Faults.Deliver
              | Some fr -> Faults.decide fr ~src:v ~dst ~round:t
            in
            match decision with
          | Faults.Deliver -> enqueue_at t v dst msg
          | Faults.Drop -> tap.on_drop ~round:t ~src:v ~dst
          | Faults.Duplicate ->
              tap.on_duplicate ~round:t ~src:v ~dst;
              enqueue_at t v dst msg;
              enqueue_at t v dst msg
          | Faults.Delay d ->
              tap.on_delay ~round:t ~src:v ~dst;
              incr held_seq;
              incr held_count;
              Heap.push held (t + d, !held_seq) (v, dst, msg)
        done
      end
    done;
    (* Receive phase. *)
    for v = 0 to n - 1 do
      let nv = rt.(v) in
      if nv.pending > 0 && not (down v t) then begin
        let budget = ref (min config.receive_capacity nv.pending) in
        while !budget > 0 do
          match pick nv t v with
          | None -> budget := 0
          | Some qi ->
              let src = nv.nbrs.(qi) in
              let msg = Queue.pop nv.inq.(qi) in
              nv.pending <- nv.pending - 1;
              decr queued_total;
              incr messages;
              decr budget;
              last_active := t;
              tap.on_deliver ~round:t ~src ~dst:v;
              let s, actions =
                protocol.on_receive ~round:t ~node:v ~src msg states.(v)
              in
              states.(v) <- s;
              apply_actions v t ~earliest:t actions
        done
      end
    done;
    (* Wake phase: every node with a wake due by [t] fires once; a
       down node keeps its wakes for its next round up, and a node
       crashed for good loses them. Work issued at time [t] enters the
       network in round [t + 1], mirroring the one-shot requests issued
       at time 0. *)
    for v = 0 to n - 1 do
      if gone v t then wakes.(v) <- List.filter (fun r -> r > t) wakes.(v)
      else if List.exists (fun r -> r <= t) wakes.(v) && not (down v t) then begin
        wakes.(v) <- List.filter (fun r -> r > t) wakes.(v);
        let s, actions = protocol.on_wake ~round:t ~node:v states.(v) in
        states.(v) <- s;
        apply_actions v t ~earliest:(t + 1) actions
      end
    done;
    let in_flight = !outstanding_sends + !queued_total + !held_count in
    if not (tap.passive && idle) then
      match tap.on_round_end ~round:t ~in_flight with
      | `Continue -> ()
      | `Halt -> halted := true
  done;
  let completions =
    List.sort
      (fun (a : _ completion) (b : _ completion) ->
        match compare a.round b.round with 0 -> compare a.node b.node | c -> c)
      !completions
  in
  {
    completions;
    rounds = !last_active;
    messages = !messages;
    max_link_backlog = !max_backlog;
    expansion = config.receive_capacity;
  }
