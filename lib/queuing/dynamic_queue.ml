(* Queuing on a dynamic graph. See dynamic_queue.mli. *)

module Engine = Countq_simnet.Engine
module Dynamic = Countq_simnet.Dynamic
module Monitor = Countq_simnet.Monitor
module Graph = Countq_topology.Graph
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
(* — O(n·k) traffic per change, too much to flood under churn. Because *)
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
  Engine.requesting ~name:who ~n requests

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

(* Completion counting for a queuing run: the run halts once every
   request has completed (gossip never quiesces on its own), and the
   latest completion's origin approximates the current holder, around
   which a stall diagnosis describes the partition — exact whenever the
   queue froze because the holder was walled off. *)
let holder_tap ~from ~expected =
  let last_holder = ref from and completed = ref 0 in
  let tap =
    {
      Engine.no_tap with
      passive = false;
      on_complete =
        (fun ~round:_ ~node:_ ~value ->
          last_holder := (fst value).Types.origin;
          incr completed);
      on_round_end =
        (fun ~round:_ ~in_flight:_ ->
          if !completed >= expected then `Halt else `Continue);
    }
  in
  (tap, last_holder, completed)

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
  let holder, last_holder, completed = holder_tap ~from:leader ~expected in
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
  let tap = Engine.both holder (Monitor.tap monitors) in
  let protocol =
    dynamic_protocol ~leader ~sched ~refresh
      ~live:(fun () -> !completed < expected)
      ~graph ~requests
  in
  let res = Engine.run ~dynamic:dyn ~tap ~graph ~config ~protocol () in
  {
    result = Countq_arrow.Protocol.of_engine res;
    monitors = Monitor.finalise monitors;
    topo = Dynamic.stats dyn;
  }
