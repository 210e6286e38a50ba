(* One ack / retransmit / dedup layer, direct or routed. See reliable.mli. *)

type 'm msg = {
  origin : int;  (** the logical sender. *)
  dest : int;  (** the logical receiver: only it acks, dedups and releases. *)
  seq : int;  (** per (origin, dest) sequence number. *)
  payload : 'm option;  (** [None] is the ack of [seq] from [origin]. *)
}

module Peer = Map.Make (Int)

module Link = Map.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | o -> o
end)

type 'm pending = { data : 'm; retries : int; due : int }

type ('s, 'm) state = {
  inner : 's;
  wakes : int list;  (** rounds the inner protocol asked for, ascending. *)
  next_seq : int Peer.t;  (** dest -> next seq to assign. *)
  unacked : 'm pending Link.t;  (** (dest, seq). *)
  next_expected : int Peer.t;  (** origin -> next seq to release. *)
  buffer : 'm Link.t;  (** (origin, seq): payloads not yet released. *)
  transit : 'm msg list;  (** envelopes with no next hop yet, oldest first. *)
}

type stats = {
  data_sent : int;
  retransmits : int;
  acks_sent : int;
  duplicates_ignored : int;
  gave_up : int;
  relayed : int;
}

(* Shared by every node's handlers, which a sharded run calls from
   several domains at once: the counters are atomic. *)
type handle = {
  r_data_sent : int Atomic.t;
  r_retransmits : int Atomic.t;
  r_acks_sent : int Atomic.t;
  r_duplicates_ignored : int Atomic.t;
  r_gave_up : int Atomic.t;
  r_relayed : int Atomic.t;
}

let stats h =
  {
    data_sent = Atomic.get h.r_data_sent;
    retransmits = Atomic.get h.r_retransmits;
    acks_sent = Atomic.get h.r_acks_sent;
    duplicates_ignored = Atomic.get h.r_duplicates_ignored;
    gave_up = Atomic.get h.r_gave_up;
    relayed = Atomic.get h.r_relayed;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d payloads, %d retransmits, %d acks, %d duplicates ignored, %d abandoned"
    s.data_sent s.retransmits s.acks_sent s.duplicates_ignored s.gave_up;
  if s.relayed > 0 then Format.fprintf ppf ", %d relayed" s.relayed

let default_ack_timeout = 8
let default_max_retries = 5

(* Longer than the worst legitimate silence: a full exponential backoff
   ladder, with slack for round-trips. *)
let progress_budget ?(ack_timeout = default_ack_timeout)
    ?(max_retries = default_max_retries) () =
  max 512 (4 * ack_timeout * (1 lsl max_retries))

let direct ~round:_ ~src:_ ~dst = Some dst
let find0 key map = Option.value (Peer.find_opt key map) ~default:0

let wrap ?(ack_timeout = default_ack_timeout)
    ?(max_retries = default_max_retries) ?(next_hop = direct)
    (p : _ Engine.protocol) =
  if ack_timeout < 1 then invalid_arg "Reliable.wrap: ack_timeout must be >= 1";
  if max_retries < 0 then invalid_arg "Reliable.wrap: max_retries must be >= 0";
  let h =
    {
      r_data_sent = Atomic.make 0;
      r_retransmits = Atomic.make 0;
      r_acks_sent = Atomic.make 0;
      r_duplicates_ignored = Atomic.make 0;
      r_gave_up = Atomic.make 0;
      r_relayed = Atomic.make 0;
    }
  in
  (* Put [env] on the next hop of the round it travels in, or park it
     in [transit] until the next round's wake. Whoever parks the first
     envelope asks for that wake; the wake asks again while any stay. *)
  let route ~round ~node st env =
    match next_hop ~round:(round + 1) ~src:node ~dst:env.dest with
    | Some w ->
        if w <> env.dest then Atomic.incr h.r_relayed;
        (st, [ Engine.Send (w, env) ])
    | None ->
        let wake = if st.transit = [] then [ Engine.Wake (round + 1) ] else [] in
        ({ st with transit = st.transit @ [ env ] }, wake)
  in
  (* Every retransmit timer wakes its node when it falls due; a timer
     whose payload was acked meanwhile wakes it for nothing. *)
  let send_data ~round ~node st dest payload =
    let seq = find0 dest st.next_seq in
    let due = round + ack_timeout in
    let st =
      {
        st with
        next_seq = Peer.add dest (seq + 1) st.next_seq;
        unacked = Link.add (dest, seq) { data = payload; retries = 0; due } st.unacked;
      }
    in
    Atomic.incr h.r_data_sent;
    let st, sent =
      route ~round ~node st { origin = node; dest; seq; payload = Some payload }
    in
    (st, sent @ [ Engine.Wake due ])
  in
  (* Inner actions become numbered, tracked transmissions; the inner
     protocol's own wakes are noted so it is woken only when it asked. *)
  let lift ~round ~node st actions =
    List.fold_left
      (fun (st, acc) action ->
        match action with
        | Engine.Send (dest, m) ->
            let st, acts = send_data ~round ~node st dest m in
            (st, acc @ acts)
        | Engine.Complete r -> (st, acc @ [ Engine.Complete r ])
        | Engine.Wake r ->
            ( { st with wakes = List.merge Int.compare [ r ] st.wakes },
              acc @ [ Engine.Wake r ] ))
      (st, []) actions
  in
  let initial_state v =
    {
      inner = p.Engine.initial_state v;
      wakes = [];
      next_seq = Peer.empty;
      unacked = Link.empty;
      next_expected = Peer.empty;
      buffer = Link.empty;
      transit = [];
    }
  in
  let on_start ~node st =
    let inner, actions = p.Engine.on_start ~node st.inner in
    lift ~round:0 ~node { st with inner } actions
  in
  (* Release every buffered payload that is next in sequence from
     [origin], feeding each to the inner protocol in order. *)
  let rec release ~round ~node ~origin st acc =
    let expected = find0 origin st.next_expected in
    match Link.find_opt (origin, expected) st.buffer with
    | None -> (st, acc)
    | Some payload ->
        let st =
          {
            st with
            buffer = Link.remove (origin, expected) st.buffer;
            next_expected = Peer.add origin (expected + 1) st.next_expected;
          }
        in
        let inner, acts =
          p.Engine.on_receive ~round ~node ~src:origin payload st.inner
        in
        let st, acts = lift ~round ~node { st with inner } acts in
        release ~round ~node ~origin st (acc @ acts)
  in
  let on_receive ~round ~node ~src:_ env st =
    if env.dest <> node then route ~round ~node st env
    else
      match env.payload with
      | None ->
          ({ st with unacked = Link.remove (env.origin, env.seq) st.unacked }, [])
      | Some payload ->
          (* Ack every copy: the first ack may itself be lost. *)
          Atomic.incr h.r_acks_sent;
          let st, ack =
            route ~round ~node st
              { origin = node; dest = env.origin; seq = env.seq; payload = None }
          in
          let key = (env.origin, env.seq) in
          if env.seq < find0 env.origin st.next_expected || Link.mem key st.buffer
          then begin
            Atomic.incr h.r_duplicates_ignored;
            (st, ack)
          end
          else
            release ~round ~node ~origin:env.origin
              { st with buffer = Link.add key payload st.buffer }
              ack
  in
  let on_wake ~round ~node st =
    (* Parked envelopes try again, oldest first. *)
    let st, moved =
      List.fold_left
        (fun (st, acc) env ->
          let st, acts = route ~round ~node st env in
          (st, acc @ acts))
        ({ st with transit = [] }, [])
        st.transit
    in
    (* Then the retransmit timers due this round, in (dest, seq) order. *)
    let due =
      Link.fold
        (fun key pending acc -> if pending.due <= round then (key, pending) :: acc else acc)
        st.unacked []
    in
    let st, resent =
      List.fold_left
        (fun (st, acc) (((dest, seq) as key), pending) ->
          if pending.retries >= max_retries then begin
            Atomic.incr h.r_gave_up;
            ({ st with unacked = Link.remove key st.unacked }, acc)
          end
          else begin
            let retries = pending.retries + 1 in
            let due = round + (ack_timeout * (1 lsl retries)) in
            Atomic.incr h.r_retransmits;
            let st =
              { st with unacked = Link.add key { pending with retries; due } st.unacked }
            in
            let st, sent =
              route ~round ~node st
                { origin = node; dest; seq; payload = Some pending.data }
            in
            (st, acc @ sent @ [ Engine.Wake due ])
          end)
        (st, []) (List.rev due)
    in
    (* Then the inner protocol, if it asked for this round. *)
    match st.wakes with
    | r :: _ when r <= round ->
        let inner, acts = p.Engine.on_wake ~round ~node st.inner in
        let wakes = List.filter (fun r -> r > round) st.wakes in
        let st, acts = lift ~round ~node { st with inner; wakes } acts in
        (st, moved @ resent @ acts)
    | _ -> (st, moved @ resent)
  in
  let protocol =
    {
      Engine.name = p.Engine.name ^ "+retry";
      initial_state;
      on_start;
      on_receive;
      on_wake;
    }
  in
  (protocol, h)
