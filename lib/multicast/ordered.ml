(* Totally ordered multicast, both ways. See ordered.mli. *)

module Engine = Countq_simnet.Engine
module Graph = Countq_topology.Graph
module Bfs = Countq_topology.Bfs
module Spanning = Countq_topology.Spanning
module Counting = Countq_counting
module Arrow = Countq_arrow
module Queuing = Countq_queuing
module Oneshot = Countq_simnet.Oneshot

type scheme =
  | Via_counting of [ `Central | `Combining | `Network ]
  | Via_queuing of [ `Arrow | `Central ]

let pp_scheme ppf = function
  | Via_counting `Central -> Format.pp_print_string ppf "counting/central"
  | Via_counting `Combining -> Format.pp_print_string ppf "counting/combining"
  | Via_counting `Network -> Format.pp_print_string ppf "counting/network"
  | Via_queuing `Arrow -> Format.pp_print_string ppf "queuing/arrow"
  | Via_queuing `Central -> Format.pp_print_string ppf "queuing/central"

type message_stat = { sender : int; position : int; coordination_done : int }

type result = {
  scheme : scheme;
  messages : message_stat list;
  coordination_total : int;
  coordination_makespan : int;
  dissemination_rounds : int;
  total_delivery_latency : int;
  max_delivery_latency : int;
  mean_delivery_latency : float;
  network_messages : int;
}

(* Coordination phase: every sender learns its 1-based position in the
   agreed order and the (normalised) round at which it learned it.
   Returns (stats sorted by position, message count). *)
let coordinate ~seed ~graph ~senders scheme =
  match scheme with
  | Via_counting protocol ->
      let run =
        Counting.Counts.of_engine ~requests:senders
          (match protocol with
          | `Central ->
              Oneshot.run (Counting.Central.one_shot ~graph ~requests:senders ())
          | `Combining ->
              let tree = Spanning.bfs graph ~root:0 in
              Oneshot.run (Counting.Combining.one_shot ~tree ~requests:senders ())
          | `Network ->
              Oneshot.run (Counting.Network.one_shot ~graph ~requests:senders ()))
      in
      (match run.valid with
      | Error e ->
          invalid_arg
            (Format.asprintf "Ordered.run: counting protocol failed: %a"
               Counting.Counts.pp_error e)
      | Ok () -> ());
      ignore seed;
      let stats =
        List.map
          (fun (o : Counting.Counts.outcome) ->
            {
              sender = o.node;
              position = o.count;
              coordination_done = o.round * run.expansion;
            })
          run.outcomes
      in
      (List.sort (fun a b -> compare a.position b.position) stats, run.messages)
  | Via_queuing protocol ->
      let run =
        Arrow.Protocol.of_engine
          (match protocol with
          | `Arrow ->
              let tree = Spanning.best_for_arrow graph in
              Oneshot.run
                (Arrow.Protocol.one_shot ~tree ~notify:true ~requests:senders ())
          | `Central ->
              Oneshot.run
                (Queuing.Central_queue.one_shot ~graph ~requests:senders ()))
      in
      let order =
        match run.order with
        | Ok ops -> ops
        | Error e ->
            invalid_arg
              (Format.asprintf "Ordered.run: queuing protocol failed: %a"
                 Arrow.Order.pp_error e)
      in
      let delay_of = Hashtbl.create 16 in
      List.iter
        (fun (o : Arrow.Types.outcome) ->
          Hashtbl.replace delay_of o.op.origin (o.round * run.expansion))
        run.outcomes;
      let stats =
        List.mapi
          (fun i (op : Arrow.Types.op) ->
            {
              sender = op.origin;
              position = i + 1;
              coordination_done = Hashtbl.find delay_of op.origin;
            })
          order
      in
      (stats, run.messages)

type flood_msg = { sidx : int }

(* Dissemination phase: sender [i] floods over a BFS tree rooted at
   itself, starting the round after its coordination completed. The
   result maps (sender index, receiver) to the arrival round. *)
let disseminate ~graph ~senders ~starts =
  let n = Graph.n graph in
  let k = Array.length senders in
  let children =
    Array.map
      (fun s ->
        let parent = Bfs.parents graph s in
        let kids = Array.make n [] in
        Array.iteri (fun v p -> if v <> s && p <> v then kids.(p) <- v :: kids.(p)) parent;
        Array.iteri
          (fun v p ->
            if v <> s && p = v then
              invalid_arg "Ordered.disseminate: disconnected graph")
          parent;
        kids)
      senders
  in
  let forward sidx v = List.map (fun c -> Engine.Send (c, { sidx })) children.(sidx).(v) in
  let begin_flood node sidx = Engine.Complete sidx :: forward sidx node in
  (* Sender [i] floods at time [starts.(i)]: at once, or when woken. *)
  let protocol =
    {
      Engine.name = "ordered-multicast-flood";
      initial_state = (fun _ -> ());
      on_start =
        (fun ~node s ->
          let actions = ref [] in
          Array.iteri
            (fun sidx sender ->
              if sender = node then
                actions :=
                  (if starts.(sidx) = 0 then begin_flood node sidx
                   else [ Engine.Wake starts.(sidx) ])
                  @ !actions)
            senders;
          (s, !actions));
      on_receive =
        (fun ~round:_ ~node ~src:_ { sidx } s ->
          (s, Engine.Complete sidx :: forward sidx node));
      on_wake =
        (fun ~round ~node s ->
          let actions = ref [] in
          Array.iteri
            (fun sidx sender ->
              if sender = node && starts.(sidx) = round then
                actions := begin_flood node sidx @ !actions)
            senders;
          (s, !actions));
    }
  in
  let res = Engine.run ~graph ~config:Engine.default_config ~protocol () in
  let arrival = Array.make_matrix k n (-1) in
  List.iter
    (fun (c : _ Engine.completion) ->
      let sidx, receiver = (c.value, c.node) in
      arrival.(sidx).(receiver) <- c.round)
    res.completions;
  (arrival, res.rounds, res.messages)

let run ?(seed = 0x6a11L) ~graph ~senders scheme =
  let n = Graph.n graph in
  let seen = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Ordered.run: sender out of range";
      if seen.(v) then invalid_arg "Ordered.run: duplicate sender";
      seen.(v) <- true)
    senders;
  let stats, coord_msgs = coordinate ~seed ~graph ~senders scheme in
  let senders_in_order = Array.of_list (List.map (fun s -> s.sender) stats) in
  let starts = Array.of_list (List.map (fun s -> s.coordination_done) stats) in
  let arrival, dissemination_rounds, flood_msgs =
    disseminate ~graph ~senders:senders_in_order ~starts
  in
  let k = Array.length senders_in_order in
  (* In-order delivery: message i delivers at receiver r once it and all
     earlier-ordered messages have arrived. *)
  let total = ref 0 and maxd = ref 0 in
  for r = 0 to n - 1 do
    let frontier = ref 0 in
    for i = 0 to k - 1 do
      frontier := max !frontier arrival.(i).(r);
      total := !total + !frontier;
      maxd := max !maxd !frontier
    done
  done;
  let coordination_total =
    List.fold_left (fun acc s -> acc + s.coordination_done) 0 stats
  in
  let coordination_makespan =
    List.fold_left (fun acc s -> max acc s.coordination_done) 0 stats
  in
  {
    scheme;
    messages = stats;
    coordination_total;
    coordination_makespan;
    dissemination_rounds;
    total_delivery_latency = !total;
    max_delivery_latency = !maxd;
    mean_delivery_latency =
      (if k = 0 || n = 0 then 0.
       else float_of_int !total /. float_of_int (k * n));
    network_messages = coord_msgs + flood_msgs;
  }
