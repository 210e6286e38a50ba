(* Bounded model checker over asynchronous interleavings. See
   explore.mli for the canonicalisation and reduction arguments. *)

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

(* An immutable configuration. Queues are lists with the head first;
   everything inside must be pure and structural (no closures or
   cycles), which holds for the pure-state protocols this checker
   targets. [events] is the monotone event counter of the
   representative execution that first reached the configuration; it
   is deliberately NOT part of the configuration's identity. *)
type ('s, 'm, 'r) config = {
  states : 's array;
  outbox : (int * 'm) list array; (* per node, FIFO; all empty when reduced *)
  links : ((int * int) * 'm list) list; (* sorted by key, FIFO per link *)
  completions : 'r Engine.completion list; (* reverse order of occurrence *)
  events : int;
}

let link_get links key =
  match List.assoc_opt key links with Some q -> q | None -> []

let link_set links key q =
  let without = List.remove_assoc key links in
  if q = [] then without
  else List.sort (fun (a, _) (b, _) -> compare a b) ((key, q) :: without)

(* The canonical serialisation. States, outboxes and links are
   canonical by construction (links sorted, empty queues dropped);
   completions drop their round stamps, which describe the
   representative execution rather than the state. Marshal without
   sharing is purely structural — equal values serialise equally. *)
let canonical_key cfg =
  Marshal.to_string
    ( cfg.states,
      cfg.outbox,
      cfg.links,
      List.map
        (fun (c : _ Engine.completion) -> (c.node, c.value))
        cfg.completions )
    [ Marshal.No_sharing ]

let run ~graph ~protocol ~check ?(max_configs = 1_000_000) ?(reduce = true)
    ?pool () =
  let n = Graph.n graph in
  (* One shared all-empty outbox for every drained configuration: the
     reduction keeps outboxes empty, so there is no point allocating
     (or serialising differently) a fresh array per state. Never
     mutated. *)
  let empty_outbox = Array.make n [] in
  let check_send ~node dst =
    if not (Graph.has_edge graph node dst) then
      raise (Engine.Not_a_neighbor { node; dst })
  in
  (* Append [sends] (FIFO order, all from [src]) onto their links: the
     canonical transmit chain the reduction collapses into the
     delivery step that produced them. Each transmit is one event. *)
  let drain ~src ~links ~events sends =
    List.fold_left
      (fun (links, events) (dst, msg) ->
        let key = (src, dst) in
        (link_set links key (link_get links key @ [ msg ]), events + 1))
      (links, events) sends
  in
  (* Initial configuration: on_start everywhere at time 0. *)
  let initial =
    let states = Array.init n protocol.Engine.initial_state in
    let outbox = Array.make n [] in
    let completions = ref [] in
    for v = 0 to n - 1 do
      let s, actions = protocol.Engine.on_start ~node:v states.(v) in
      states.(v) <- s;
      List.iter
        (fun action ->
          match action with
          | Engine.Send (dst, msg) ->
              check_send ~node:v dst;
              outbox.(v) <- outbox.(v) @ [ (dst, msg) ]
          | Engine.Complete value ->
              completions :=
                { Engine.node = v; round = 0; value } :: !completions)
        actions
    done;
    if reduce then begin
      let links, events = ref [], ref 0 in
      Array.iteri
        (fun v q ->
          let l, e = drain ~src:v ~links:!links ~events:!events q in
          links := l;
          events := e)
        outbox;
      {
        states;
        outbox = empty_outbox;
        links = !links;
        completions = !completions;
        events = !events;
      }
    end
    else
      { states; outbox; links = []; completions = !completions; events = 0 }
  in
  (* Deliver the head of link [key]; returns the post-receive pieces
     with the sends not yet placed (the two modes place them
     differently). *)
  let deliver cfg ((src, dst) as key) q =
    match q with
    | [] -> None
    | msg :: rest ->
        let links = link_set cfg.links key rest in
        let events = cfg.events + 1 in
        let s, actions =
          protocol.Engine.on_receive ~round:events ~node:dst ~src msg
            cfg.states.(dst)
        in
        let states = Array.copy cfg.states in
        states.(dst) <- s;
        let completions = ref cfg.completions in
        let sends = ref [] in
        List.iter
          (fun action ->
            match action with
            | Engine.Send (d, m) ->
                check_send ~node:dst d;
                sends := (d, m) :: !sends
            | Engine.Complete value ->
                completions :=
                  { Engine.node = dst; round = events; value } :: !completions)
          actions;
        Some (states, links, List.rev !sends, !completions, events)
  in
  let successors cfg =
    if reduce then
      (* Drained mode: one successor per non-empty link (deliver its
         head, then drain the sends it produced). Transmit branching
         is gone — see the persistent-set argument in the .mli. *)
      List.filter_map
        (fun ((_, dst) as key, q) ->
          match deliver cfg key q with
          | None -> None
          | Some (states, links, sends, completions, events) ->
              let links, events = drain ~src:dst ~links ~events sends in
              Some { states; outbox = empty_outbox; links; completions; events })
        cfg.links
    else begin
      let succs = ref [] in
      (* (a) transmit an outbox head onto its link. *)
      for v = 0 to n - 1 do
        match cfg.outbox.(v) with
        | [] -> ()
        | (dst, msg) :: rest ->
            let outbox = Array.copy cfg.outbox in
            outbox.(v) <- rest;
            let key = (v, dst) in
            let links =
              link_set cfg.links key (link_get cfg.links key @ [ msg ])
            in
            succs :=
              { cfg with outbox; links; events = cfg.events + 1 } :: !succs
      done;
      (* (b) deliver a link head. *)
      List.iter
        (fun ((_, dst) as key, q) ->
          match deliver cfg key q with
          | None -> ()
          | Some (states, links, sends, completions, events) ->
              let outbox = Array.copy cfg.outbox in
              outbox.(dst) <- outbox.(dst) @ sends;
              succs := { states; outbox; links; completions; events } :: !succs)
        cfg.links;
      List.rev !succs
    end
  in
  (* A worker's pure verdict on one frontier configuration: successors
     (digests precomputed off the merge path) or, when quiescent, the
     safety check tagged with the canonical key so the lowest failing
     configuration wins deterministically. *)
  let expand cfg =
    match successors cfg with
    | [] -> `Terminal (canonical_key cfg, check (List.rev cfg.completions))
    | succs ->
        `Succs (List.map (fun c -> (Digest.string (canonical_key c), c)) succs)
  in
  let visited = Hashtbl.create 4096 in
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
  Hashtbl.replace visited (Digest.string (canonical_key initial)) ();
  explored := 1;
  (* Breadth-first by layers: workers expand a whole layer in
     parallel; dedup, counting and budget enforcement happen here, in
     input order, so the run is bit-identical for every jobs count. *)
  let rec loop frontier =
    match frontier with
    | [] -> Exhaustive (stats ())
    | layer ->
        max_frontier := max !max_frontier (List.length layer);
        let next = ref [] in
        let exhausted = ref false in
        let violation = ref None in
        let merge result =
          match result with
          | `Terminal (ckey, verdict) -> (
              incr terminal;
              match verdict with
              | Ok () -> ()
              | Error msg -> (
                  match !violation with
                  | Some (best, _) when best <= ckey -> ()
                  | _ -> violation := Some (ckey, msg)))
          | `Succs succs ->
              List.iter
                (fun (dg, c) ->
                  if Hashtbl.mem visited dg then incr dedup_hits
                  else if not !exhausted then
                    if !explored >= max_configs then exhausted := true
                    else begin
                      Hashtbl.replace visited dg ();
                      incr explored;
                      next := c :: !next
                    end)
                succs
        in
        (* Without a pool each configuration's successors are merged as
           soon as they are expanded, so duplicates are garbage at once:
           the heap holds this layer and the next, not every successor
           of the layer at the same time. *)
        (match pool with
        | None -> List.iter (fun cfg -> merge (expand cfg)) layer
        | Some p -> List.iter merge (Parallel.pool_map p expand layer));
        (match !violation with
        | Some (_, msg) -> raise (Violation msg)
        | None -> ());
        if !exhausted then Budget_exhausted (stats ())
        else loop (List.rev !next)
  in
  loop [ initial ]
