(* Discrete-event asynchronous engine. See async.mli. *)

module Graph = Countq_topology.Graph
module Heap = Countq_util.Heap
module Rng = Countq_util.Rng

type delay_model =
  | Constant of int
  | Uniform of { min : int; max : int; seed : int64 }
  | Per_message of (src:int -> dst:int -> send_time:int -> int)

type 'r result = {
  completions : 'r Engine.completion list;
  finish_time : int;
  messages : int;
}

type ('m, 'r) event =
  | Arrival of { src : int; dst : int; msg : 'm }
  | Wakeup of int

let make_delay_fn = function
  | Constant d ->
      if d < 1 then invalid_arg "Async.run: constant delay must be >= 1";
      fun ~src:_ ~dst:_ ~send_time:_ -> d
  | Uniform { min; max; seed } ->
      if min < 1 || max < min then invalid_arg "Async.run: bad uniform delays";
      let rng = Rng.create seed in
      fun ~src:_ ~dst:_ ~send_time:_ -> min + Rng.below rng (max - min + 1)
  | Per_message f ->
      fun ~src ~dst ~send_time -> Stdlib.max 1 (f ~src ~dst ~send_time)

let run ~graph ~delay ?(max_events = 10_000_000) ?faults ~protocol () =
  let n = Graph.n graph in
  let delay_fn = make_delay_fn delay in
  let states = Array.init n protocol.Engine.initial_state in
  let heap : (int, ('m, 'r) event) Heap.t = Heap.create () in
  (* Serialisation clocks: a node processes (receives or wakes) at most
     one event per time unit and emits at most one message per unit;
     links remain FIFO. *)
  let proc_free = Array.make n (-1) in
  let send_free = Array.make n (-1) in
  (* The event time of each node's last fired wake: a node's wakes for
     one time fire once. *)
  let woke_at = Array.make n (-1) in
  (* Keyed by the flattened link id [src * n + dst]: an int key hashes
     without allocating the (src, dst) tuple the old scheme boxed for
     every scheduled message. *)
  let link_last : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let completions = ref [] in
  let messages = ref 0 in
  let finish = ref 0 in
  let events = ref 0 in
  let crashed v time =
    match faults with
    | None -> false
    | Some fr -> Faults.crashed fr ~node:v ~round:time
  in
  (* Schedule one copy of a message on the (FIFO) link, [extra] time
     units after its fault-free arrival instant. *)
  let schedule src dst msg ~send_time ~extra =
    let raw_arrival = send_time + delay_fn ~src ~dst ~send_time + extra in
    let key = (src * n) + dst in
    let arrival =
      match Hashtbl.find_opt link_last key with
      | Some last -> max raw_arrival (last + 1)
      | None -> raw_arrival
    in
    Hashtbl.replace link_last key arrival;
    Heap.push heap arrival (Arrival { src; dst; msg })
  in
  let emit src now ~earliest actions =
    List.iter
      (fun action ->
        match action with
        | Engine.Wake r ->
            Kernel.check_wake ~round:now ~earliest r;
            Heap.push heap r (Wakeup src)
        | Engine.Complete value ->
            completions := { Engine.node = src; round = now; value } :: !completions;
            finish := max !finish now
        | Engine.Send (dst, msg) ->
            if not (Graph.has_edge graph src dst) then
              raise (Engine.Not_a_neighbor { node = src; dst });
            let s = max now (send_free.(src) + 1) in
            send_free.(src) <- s;
            let decision =
              match faults with
              | None -> Faults.Deliver
              | Some fr -> Faults.decide fr ~src ~dst ~round:s
            in
            (match decision with
            | Faults.Deliver -> schedule src dst msg ~send_time:s ~extra:0
            | Faults.Drop -> ()
            | Faults.Duplicate ->
                schedule src dst msg ~send_time:s ~extra:0;
                schedule src dst msg ~send_time:s ~extra:0
            | Faults.Delay d ->
                schedule src dst msg ~send_time:s ~extra:d))
      actions
  in
  (* Time 0: one-shot issue. *)
  for v = 0 to n - 1 do
    let s, actions = protocol.Engine.on_start ~node:v states.(v) in
    states.(v) <- s;
    emit v 0 ~earliest:1 actions
  done;
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (t, ev) ->
        incr events;
        if !events > max_events then begin
          (* The event just popped is still unprocessed: count it, and
             charge every undelivered message to its destination for
             the busiest-nodes summary. *)
          let outstanding = Heap.size heap + 1 in
          let loads = Array.make n 0 in
          let note = function
            | Arrival { dst; _ } -> loads.(dst) <- loads.(dst) + 1
            | Wakeup _ -> ()
          in
          note ev;
          let rec drain () =
            match Heap.pop heap with
            | Some (_, e) ->
                note e;
                drain ()
            | None -> ()
          in
          drain ();
          raise
            (Engine.Round_limit_exceeded
               {
                 limit = max_events;
                 outstanding;
                 queued = 0;
                 held = 0;
                 busiest = Engine.top_loaded loads;
               })
        end;
        (match ev with
        | Arrival { src; dst; msg } ->
            if crashed dst t then Faults.note_crash_drop (Option.get faults)
            else begin
              let now = max t (proc_free.(dst) + 1) in
              proc_free.(dst) <- now;
              incr messages;
              finish := max !finish now;
              let s, actions =
                protocol.Engine.on_receive ~round:now ~node:dst ~src msg
                  states.(dst)
              in
              states.(dst) <- s;
              emit dst now ~earliest:now actions
            end
        | Wakeup v ->
            (* A crashed node's wake waits for its first time back up,
               or is dropped if the node never comes back. *)
            if crashed v t then begin
              if not (Faults.crashed_for_good (Option.get faults) ~node:v ~round:t)
              then Heap.push heap (t + 1) ev
            end
            else if woke_at.(v) < t then begin
              woke_at.(v) <- t;
              let now = max t (proc_free.(v) + 1) in
              proc_free.(v) <- now;
              finish := max !finish now;
              let s, actions =
                protocol.Engine.on_wake ~round:now ~node:v states.(v)
              in
              states.(v) <- s;
              emit v now ~earliest:(now + 1) actions
            end);
        loop ()
  in
  loop ();
  let completions =
    List.sort
      (fun (a : _ Engine.completion) (b : _ Engine.completion) ->
        match compare a.round b.round with 0 -> compare a.node b.node | c -> c)
      !completions
  in
  { completions; finish_time = !finish; messages = !messages }
