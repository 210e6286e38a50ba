(* Queuing on a dynamic graph. See dynamic_queue.mli. *)

module Engine = Countq_simnet.Engine
module Dynamic = Countq_simnet.Dynamic
module Monitor = Countq_simnet.Monitor
module Graph = Countq_topology.Graph
module Tree = Countq_topology.Tree
module Types = Countq_arrow.Types
module Order = Countq_arrow.Order

type report = {
  result : Countq_arrow.Protocol.run_result;
  monitors : Monitor.report;
  topo : Dynamic.stats;
}

(* ------------------------------------------------------------------ *)
(* Knowledge: the monotone value the dynamic queue floods.             *)
(* ------------------------------------------------------------------ *)

(* [chain] is newest-first (O(1) extension); [pend] is sorted by
   operation identity and disjoint from the chain. Knowledge only ever
   grows: the chain extends, and the set of known operations
   (chain ∪ pend) accumulates — which is what makes re-flooding
   idempotent and the explorable variant's termination argument work. *)
type know = { chain : Types.op list; pend : Types.op list }

let empty_know = { chain = []; pend = [] }

let in_chain op chain = List.exists (fun o -> Types.compare_op o op = 0) chain

let merge_know a b =
  let chain =
    if List.length a.chain >= List.length b.chain then a.chain else b.chain
  in
  let pend =
    List.filter
      (fun o -> not (in_chain o chain))
      (List.sort_uniq Types.compare_op (a.pend @ b.pend))
  in
  { chain; pend }

(* Only the origin of the chain's last entry — or the leader while the
   chain is empty — may extend, and extension is deterministic (the
   least pending operation), so every chain value is extended at most
   once system-wide: all chains are prefixes of one global chain. *)
let holder know ~leader =
  match know.chain with [] -> leader | last :: _ -> last.Types.origin

let rec extend v know ~leader =
  if holder know ~leader <> v then know
  else
    match know.pend with
    | [] -> know
    | op :: rest -> extend v { chain = op :: know.chain; pend = rest } ~leader

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Deltas: what flooding actually puts on the wire.                    *)
(*                                                                     *)
(* Full-state flooding re-sends the entire chain on every growth step  *)
(* — O(n·k) traffic per change, the ROADMAP item 2 blocker. Because    *)
(* every chain in the system is a prefix of one global chain (the      *)
(* single-extender argument below), a sender only owes a neighbour the *)
(* chain entries above what that neighbour already has plus the        *)
(* pending ops it has not seen, and the receiver can splice the        *)
(* suffix directly onto its own chain.                                 *)
(* ------------------------------------------------------------------ *)

type delta = {
  d_base : int;  (** receiver-side chain length the suffix extends. *)
  d_suffix : Types.op list;  (** chain entries above [d_base], newest-first. *)
  d_pend : Types.op list;  (** pending ops the receiver has not seen. *)
}

(* The delta owed to a neighbour believed to hold [sent_chain] chain
   entries and to know the pending ops [sent_pend]; [None] when it
   already knows everything. [sent_chain <= length k.chain] is an
   invariant: beliefs only advance to lengths this node itself holds
   (after a send) or has just merged past (after a receive). *)
let delta_for k ~sent_chain ~sent_pend =
  let len = List.length k.chain in
  let suffix = if len > sent_chain then take (len - sent_chain) k.chain else [] in
  let pend =
    List.filter
      (fun o -> not (List.exists (fun p -> Types.compare_op p o = 0) sent_pend))
      k.pend
  in
  if suffix = [] && pend = [] then None
  else Some { d_base = sent_chain; d_suffix = suffix; d_pend = pend }

(* Merge a delta into local knowledge. When [d_base <= |chain|] the
   prefix property makes the splice exact: our chain is the sender's
   first [|chain|] entries, so suffix entries above it reconstruct the
   sender's chain verbatim. A gap ([d_base > |chain|], possible only
   when an earlier delta was lost to churn) degrades to learning the
   suffix ops as pending — safe, because extension happens only at the
   holder of the globally longest chain, whose own chain already
   contains every chained op, so its pend (kept disjoint from its
   chain by [merge_know]) can never re-chain one. The periodic refresh
   re-sends the full chain and closes the gap. *)
let apply_delta node k d ~leader =
  let len = List.length k.chain in
  let incoming =
    if d.d_base <= len then begin
      let extra = d.d_base + List.length d.d_suffix - len in
      if extra <= 0 then { chain = []; pend = d.d_pend }
      else { chain = take extra d.d_suffix @ k.chain; pend = d.d_pend }
    end
    else { chain = []; pend = d.d_suffix @ d.d_pend }
  in
  extend node (merge_know k incoming) ~leader

(* Predecessor of [op] in a newest-first chain that contains it. *)
let rec pred_in_chain op = function
  | [] -> assert false
  | x :: rest when Types.compare_op x op = 0 -> (
      match rest with [] -> Types.Init | p :: _ -> Types.Op p)
  | _ :: rest -> pred_in_chain op rest

(* The completion a knowledge step [old_k -> new_k] owes node [v]:
   its own operation just entered the chain. *)
let newly_chained mine old_k new_k =
  match mine with
  | None -> []
  | Some op ->
      if in_chain op new_k.chain && not (in_chain op old_k.chain) then
        [ Engine.Complete (op, pred_in_chain op new_k.chain) ]
      else []

let check_requests ~who ~n ~leader requests =
  if leader < 0 || leader >= n then
    invalid_arg (who ^ ": leader out of range");
  let requesting = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg (who ^ ": request out of range");
      if requesting.(v) then invalid_arg (who ^ ": duplicate request");
      requesting.(v) <- true)
    requests;
  requesting

(* ------------------------------------------------------------------ *)
(* Receive-driven core: static graph, explorable.                      *)
(* ------------------------------------------------------------------ *)

(* Per neighbour: the knowledge this node believes that neighbour
   holds, advanced by both what it sends there and what arrives from
   there. Beliefs make flooding self-pruning — a neighbour that owes
   nothing gets nothing, which subsumes the don't-echo-to-[src]
   special case full-state flooding needed. Updates are functional
   (copy-on-write) so the state stays structural for [Explore]. *)
type peer = { p_chain : int; p_pend : Types.op list }

let fresh_peers graph v =
  Array.map (fun _ -> { p_chain = 0; p_pend = [] }) (Graph.neighbors graph v)

let note_peer peers slot d =
  let peers = Array.copy peers in
  let p = peers.(slot) in
  peers.(slot) <-
    {
      p_chain = max p.p_chain (d.d_base + List.length d.d_suffix);
      p_pend = List.sort_uniq Types.compare_op (d.d_pend @ p.p_pend);
    };
  peers

type checker_state = { ck : know; cmine : Types.op option; cpeers : peer array }
type checker_msg = delta

let one_shot_protocol ?(leader = 0) ~graph ~requests () =
  let n = Graph.n graph in
  let requesting =
    check_requests ~who:"Dynamic_queue.one_shot_protocol" ~n ~leader requests
  in
  (* Send every neighbour the delta it is owed, advancing beliefs. *)
  let flood node k peers =
    let nbrs = Graph.neighbors graph node in
    let peers = Array.copy peers in
    let sends = ref [] in
    for i = Array.length nbrs - 1 downto 0 do
      let p = peers.(i) in
      match delta_for k ~sent_chain:p.p_chain ~sent_pend:p.p_pend with
      | None -> ()
      | Some d ->
          peers.(i) <-
            {
              p_chain = List.length k.chain;
              p_pend = List.sort_uniq Types.compare_op (d.d_pend @ p.p_pend);
            };
          sends := Engine.Send (nbrs.(i), d) :: !sends
    done;
    (peers, !sends)
  in
  {
    Engine.name = "dynamic-queue";
    initial_state =
      (fun v ->
        let mine =
          if requesting.(v) then Some { Types.origin = v; seq = 0 } else None
        in
        let k =
          match mine with
          | Some op -> { empty_know with pend = [ op ] }
          | None -> empty_know
        in
        { ck = k; cmine = mine; cpeers = fresh_peers graph v });
    on_start =
      (fun ~node s ->
        let k' = extend node s.ck ~leader in
        let comps = newly_chained s.cmine s.ck k' in
        let peers, sends = flood node k' s.cpeers in
        ({ s with ck = k'; cpeers = peers }, comps @ sends));
    on_receive =
      (fun ~round:_ ~node ~src d s ->
        let nbrs = Graph.neighbors graph node in
        let slot = ref 0 in
        Array.iteri (fun i w -> if w = src then slot := i) nbrs;
        let peers = note_peer s.cpeers !slot d in
        let k' = apply_delta node s.ck d ~leader in
        if k' = s.ck then ({ s with cpeers = peers }, [])
        else begin
          let comps = newly_chained s.cmine s.ck k' in
          let peers, sends = flood node k' peers in
          ({ ck = k'; cmine = s.cmine; cpeers = peers }, comps @ sends)
        end);
    on_wake = Engine.no_wake;
  }

(* ------------------------------------------------------------------ *)
(* Wake-driven variant: dynamic graph, engine-only.                    *)
(* ------------------------------------------------------------------ *)

(* Same knowledge logic; flooding is paced by wakes instead: a node
   wakes every round from its first knowledge on, while [live ()]
   (the caller's "operations still pending") holds. Each
   neighbour slot carries the belief of what that neighbour holds
   (advancing on both send and receive) plus the version last offered;
   a version bump (any knowledge growth) re-arms every link, and a
   periodic refresh forgets the beliefs unconditionally so deltas lost
   to a mid-flight topology change are recovered by a full re-send.
   Engine-only — state is mutable, keep it away from [Explore]. *)
type dpeer = {
  mutable q_chain : int;
  mutable q_pend : Types.op list;
  mutable q_version : int;
}

type dstate = {
  dk : know;
  dmine : Types.op option;
  dversion : int;
  dpeers : dpeer array;
}

let dynamic_protocol ~leader ~sched ~refresh ~live ~graph ~requests =
  let n = Graph.n graph in
  let requesting = check_requests ~who:"Dynamic_queue.run" ~n ~leader requests in
  if refresh < 1 then invalid_arg "Dynamic_queue.run: refresh must be >= 1";
  {
    Engine.name = "dynamic-queue";
    initial_state =
      (fun v ->
        let mine =
          if requesting.(v) then Some { Types.origin = v; seq = 0 } else None
        in
        let k =
          match mine with
          | Some op -> { empty_know with pend = [ op ] }
          | None -> empty_know
        in
        {
          dk = k;
          dmine = mine;
          dversion = (if k = empty_know then 0 else 1);
          dpeers =
            Array.map
              (fun _ -> { q_chain = 0; q_pend = []; q_version = -1 })
              (Graph.neighbors graph v);
        });
    on_start =
      (fun ~node s ->
        let k' = extend node s.dk ~leader in
        let comps = newly_chained s.dmine s.dk k' in
        let s =
          if k' = s.dk then s
          else { s with dk = k'; dversion = s.dversion + 1 }
        in
        (s, if s.dversion = 0 then comps else comps @ [ Engine.Wake 1 ]));
    on_receive =
      (fun ~round ~node ~src d s ->
        let nbrs = Graph.neighbors graph node in
        Array.iteri
          (fun i w ->
            if w = src then begin
              let p = s.dpeers.(i) in
              p.q_chain <- max p.q_chain (d.d_base + List.length d.d_suffix);
              p.q_pend <- List.sort_uniq Types.compare_op (d.d_pend @ p.q_pend)
            end)
          nbrs;
        let k' = apply_delta node s.dk d ~leader in
        if k' = s.dk then (s, [])
        else
          let comps = newly_chained s.dmine s.dk k' in
          ( { s with dk = k'; dversion = s.dversion + 1 },
            if s.dversion = 0 then comps @ [ Engine.Wake round ] else comps ));
    on_wake =
      (fun ~round ~node s ->
          if round mod refresh = 0 then
            Array.iter
              (fun p ->
                p.q_chain <- 0;
                p.q_pend <- [];
                p.q_version <- -1)
              s.dpeers;
          let nbrs = Graph.neighbors graph node in
          let sends = ref [] in
          for i = Array.length nbrs - 1 downto 0 do
            let w = nbrs.(i) in
            let p = s.dpeers.(i) in
            (* Sends issued in round [t] enter the network in [t+1];
               offer over links usable then — "a node knows its
               current neighbourhood". *)
            if
              p.q_version < s.dversion
              && Dynamic.usable sched ~round:(round + 1) ~u:node ~v:w
            then begin
              p.q_version <- s.dversion;
              match
                delta_for s.dk ~sent_chain:p.q_chain ~sent_pend:p.q_pend
              with
              | None -> ()
              | Some d ->
                  p.q_chain <- List.length s.dk.chain;
                  p.q_pend <-
                    List.sort_uniq Types.compare_op (d.d_pend @ p.q_pend);
                  sends := Engine.Send (w, d) :: !sends
            end
          done;
          let rearm = if live () then [ Engine.Wake (round + 1) ] else [] in
          (s, !sends @ rearm));
  }

(* ------------------------------------------------------------------ *)
(* Runners.                                                            *)
(* ------------------------------------------------------------------ *)

(* Monitors fused with completion counting: the run halts once every
   request has completed (gossip never quiesces on its own) and the
   stall diagnosis describes the partition around the current holder —
   approximated by the origin of the latest completion, which is exact
   whenever the queue froze because the holder was walled off. *)
let holder_tap ~monitors ~expected ~last_holder =
  let base = Monitor.tap monitors in
  let done_count = ref 0 in
  let tap =
    {
      base with
      Engine.on_complete =
        (fun ~round ~node ~value ->
          last_holder := (fst value).Types.origin;
          incr done_count;
          base.on_complete ~round ~node ~value);
      on_round_end =
        (fun ~round ~in_flight ->
          match base.on_round_end ~round ~in_flight with
          | `Halt -> `Halt
          | `Continue ->
              if !done_count >= expected then `Halt else `Continue);
    }
  in
  (tap, done_count)

let default_config graph =
  Engine.config_with_capacity (max 1 (Graph.max_degree graph))

let one_shot ?leader ~graph ~requests () =
  {
    Countq_simnet.Oneshot.graph;
    config = default_config graph;
    protocol = one_shot_protocol ?leader ~graph ~requests ();
    spec = Order.spec ~requests;
    (* A delta carries knowledge of many ops at once. *)
    op_of_msg = (fun _ -> None);
  }

let run ?config ?(leader = 0) ?sched ?(refresh = 8) ?(progress_budget = 256)
    ~graph ~requests () =
  let sched =
    match sched with Some s -> s | None -> Dynamic.identity graph
  in
  let config = match config with Some c -> c | None -> default_config graph in
  let dyn = Dynamic.start sched in
  let expected = List.length requests in
  let last_holder = ref leader in
  let diagnose ~round =
    Some (Dynamic.describe_cut sched ~round ~from:!last_holder)
  in
  let monitors =
    (Order.spec ~requests).monitors ()
    @ [
        Monitor.completes ~expected;
        Monitor.completion_progress ~budget:progress_budget ~diagnose ();
      ]
  in
  let tap, done_count = holder_tap ~monitors ~expected ~last_holder in
  let protocol =
    dynamic_protocol ~leader ~sched ~refresh
      ~live:(fun () -> !done_count < expected)
      ~graph ~requests
  in
  let res = Engine.run ~dynamic:dyn ~tap ~graph ~config ~protocol () in
  {
    result = Countq_arrow.Protocol.of_engine res;
    monitors = Monitor.finalise monitors;
    topo = Dynamic.stats dyn;
  }

(* ------------------------------------------------------------------ *)
(* The repairing envelope layer and the churn-tolerant arrow.          *)
(* ------------------------------------------------------------------ *)

type route_stats = {
  forwarded : int;
  rerouted : int;
  retransmits : int;
  gave_up : int;
}

type 'm envelope = {
  e_src : int;  (** logical sender. *)
  e_dst : int;  (** logical receiver. *)
  e_seq : int;  (** per (e_src, e_dst) sequence number. *)
  e_pay : 'm option;  (** [None] is the end-to-end ack. *)
}

type 'm unack = { u_msg : 'm; mutable u_due : int; mutable u_retries : int }

type ('s, 'm) routed = {
  mutable rt_inner : 's;
  rt_next : int array;  (** per logical destination: next sequence. *)
  rt_expect : int array;  (** per logical sender: next expected. *)
  rt_buffer : (int * int, 'm) Hashtbl.t;  (** out-of-order payloads. *)
  rt_unacked : (int * int, 'm unack) Hashtbl.t;  (** (dst, seq). *)
  rt_transit : 'm envelope Queue.t;  (** envelopes awaiting a hop. *)
  rt_inner_wakes : Engine.inner_wakes;
}

type route_handle = {
  mutable h_outstanding : int;  (** envelopes awaiting their ack. *)
  mutable h_forwarded : int;
  mutable h_rerouted : int;
  mutable h_retransmits : int;
  mutable h_gave_up : int;
}

let route_stats h =
  {
    forwarded = h.h_forwarded;
    rerouted = h.h_rerouted;
    retransmits = h.h_retransmits;
    gave_up = h.h_gave_up;
  }

let wrap_route ?(ack_timeout = 4) ?(max_retries = 8) ~sched ~graph ~live
    (p : _ Engine.protocol) =
  if ack_timeout < 1 then
    invalid_arg "Dynamic_queue.wrap_route: ack_timeout must be >= 1";
  if max_retries < 0 then
    invalid_arg "Dynamic_queue.wrap_route: max_retries must be >= 0";
  let n = Graph.n graph in
  let h =
    {
      h_outstanding = 0;
      h_forwarded = 0;
      h_rerouted = 0;
      h_retransmits = 0;
      h_gave_up = 0;
    }
  in
  (* Inner completions pass through and inner wakes are noted; inner
     sends become sequenced envelopes queued for routing (all physical
     sends happen on wake, so every hop gets a fresh usability check). *)
  let lift v st ~round actions =
    List.filter_map
      (function
        | Engine.Complete r -> Some (Engine.Complete r)
        | Engine.Wake r ->
            Engine.note_wake st.rt_inner_wakes r;
            Some (Engine.Wake r)
        | Engine.Send (dst, m) ->
            let seq = st.rt_next.(dst) in
            st.rt_next.(dst) <- seq + 1;
            Hashtbl.replace st.rt_unacked (dst, seq)
              { u_msg = m; u_due = round + ack_timeout; u_retries = 0 };
            h.h_outstanding <- h.h_outstanding + 1;
            Queue.push
              { e_src = v; e_dst = dst; e_seq = seq; e_pay = Some m }
              st.rt_transit;
            None)
      actions
  in
  (* Release buffered payloads to the inner protocol strictly in
     sequence order. *)
  let rec deliver_ready v st ~round src acc =
    let q = st.rt_expect.(src) in
    match Hashtbl.find_opt st.rt_buffer (src, q) with
    | None -> acc
    | Some m ->
        Hashtbl.remove st.rt_buffer (src, q);
        st.rt_expect.(src) <- q + 1;
        let s', actions = p.on_receive ~round ~node:v ~src m st.rt_inner in
        st.rt_inner <- s';
        deliver_ready v st ~round src (acc @ lift v st ~round actions)
  in
  let protocol =
    {
      Engine.name = p.name ^ "+route";
      initial_state =
        (fun v ->
          {
            rt_inner = p.initial_state v;
            rt_next = Array.make n 0;
            rt_expect = Array.make n 0;
            rt_buffer = Hashtbl.create 8;
            rt_unacked = Hashtbl.create 8;
            rt_transit = Queue.create ();
            rt_inner_wakes = ref [];
          });
      on_start =
        (fun ~node st ->
          let s', actions = p.on_start ~node st.rt_inner in
          st.rt_inner <- s';
          let actions = lift node st ~round:0 actions in
          let route = if Queue.is_empty st.rt_transit then [] else [ Engine.Wake 1 ] in
          (st, actions @ route));
      on_receive =
        (fun ~round ~node:v ~src:_ env st ->
          if env.e_dst <> v then begin
            (* In transit: forward at this round's wake, off the current
               up-graph. *)
            Queue.push env st.rt_transit;
            (st, [ Engine.Wake round ])
          end
          else
            match env.e_pay with
            | None ->
                let key = (env.e_src, env.e_seq) in
                if Hashtbl.mem st.rt_unacked key then begin
                  Hashtbl.remove st.rt_unacked key;
                  h.h_outstanding <- h.h_outstanding - 1
                end;
                (st, [])
            | Some m ->
                (* Ack every copy — the first ack may itself be lost. *)
                Queue.push
                  { e_src = v; e_dst = env.e_src; e_seq = env.e_seq; e_pay = None }
                  st.rt_transit;
                let s0 = env.e_src in
                if env.e_seq >= st.rt_expect.(s0) then
                  Hashtbl.replace st.rt_buffer (s0, env.e_seq) m;
                (st, deliver_ready v st ~round s0 [] @ [ Engine.Wake round ]));
      on_wake =
        (fun ~round ~node:v st ->
          (* 1. Retry timers, in deterministic (dst, seq) order. *)
          let due =
            List.sort
              (fun (a, _) (b, _) -> compare a b)
              (Hashtbl.fold
                 (fun k u acc -> if u.u_due <= round then (k, u) :: acc else acc)
                 st.rt_unacked [])
          in
          List.iter
            (fun ((dst, seq), u) ->
              if u.u_retries >= max_retries then begin
                Hashtbl.remove st.rt_unacked (dst, seq);
                h.h_gave_up <- h.h_gave_up + 1;
                h.h_outstanding <- h.h_outstanding - 1
              end
              else begin
                u.u_retries <- u.u_retries + 1;
                u.u_due <- round + (ack_timeout * (1 lsl u.u_retries));
                h.h_retransmits <- h.h_retransmits + 1;
                Queue.push
                  { e_src = v; e_dst = dst; e_seq = seq; e_pay = Some u.u_msg }
                  st.rt_transit
              end)
            due;
          (* 2. The inner wake, if it asked for this round. *)
          let s', actions =
            Engine.forward_wake st.rt_inner_wakes p ~round ~node:v st.rt_inner
          in
          st.rt_inner <- s';
          let acc = lift v st ~round actions in
          (* 3. Route everything in transit one hop along the
             up-graph of the round the hop will travel in; envelopes
             with no usable path wait here. *)
          let keep = Queue.create () in
          let sends = ref [] in
          while not (Queue.is_empty st.rt_transit) do
            let env = Queue.pop st.rt_transit in
            match
              Dynamic.next_hop sched ~round:(round + 1) ~src:v ~dst:env.e_dst
            with
            | None -> Queue.push env keep
            | Some w ->
                h.h_forwarded <- h.h_forwarded + 1;
                if w <> env.e_dst then h.h_rerouted <- h.h_rerouted + 1;
                sends := Engine.Send (w, env) :: !sends
          done;
          Queue.transfer keep st.rt_transit;
          (* 4. Wake again next round while anything is unacked or
             the caller still waits on operations. *)
          let rearm =
            if h.h_outstanding > 0 || live () then [ Engine.Wake (round + 1) ] else []
          in
          (st, acc @ List.rev !sends @ rearm));
    }
  in
  (protocol, h)

let run_arrow ?config ?tail ?(ack_timeout = 4) ?(max_retries = 8)
    ?progress_budget ?sched ~graph ~tree ~requests () =
  let sched =
    match sched with Some s -> s | None -> Dynamic.identity graph
  in
  let config = match config with Some c -> c | None -> default_config graph in
  let dyn = Dynamic.start sched in
  let expected = List.length requests in
  let budget =
    match progress_budget with
    | Some b -> b
    | None -> Countq_simnet.Reliable.progress_budget ~ack_timeout ~max_retries ()
  in
  let holder0 = match tail with Some t -> t | None -> Tree.root tree in
  let last_holder = ref holder0 in
  let diagnose ~round =
    Some (Dynamic.describe_cut sched ~round ~from:!last_holder)
  in
  let monitors =
    (Order.spec ~requests).monitors ()
    @ [ Monitor.completes ~expected; Monitor.progress ~budget ~diagnose () ]
  in
  let tap, done_count = holder_tap ~monitors ~expected ~last_holder in
  let inner = Countq_arrow.Protocol.one_shot_protocol ?tail ~tree ~requests () in
  let protocol, h =
    wrap_route ~ack_timeout ~max_retries ~sched ~graph
      ~live:(fun () -> !done_count < expected)
      inner
  in
  let res = Engine.run ~dynamic:dyn ~tap ~graph ~config ~protocol () in
  ( {
      result = Countq_arrow.Protocol.of_engine res;
      monitors = Monitor.finalise monitors;
      topo = Dynamic.stats dyn;
    },
    route_stats h )
