(* Hop-by-hop ack / retransmit / dedup layer. See reliable.mli. *)

type 'm msg = Data of { seq : int; payload : 'm } | Ack of { seq : int }

type 'm pending = {
  p_dst : int;
  payload : 'm;
  mutable retries : int;
  mutable due : int;  (** round at which the next retransmit fires. *)
}

type ('s, 'm) state = {
  mutable inner : 's;
  next_seq : (int, int) Hashtbl.t;  (** dst -> next seq to assign. *)
  unacked : (int * int, 'm pending) Hashtbl.t;  (** (dst, seq). *)
  next_expected : (int, int) Hashtbl.t;  (** src -> next seq to release. *)
  buffer : (int * int, 'm) Hashtbl.t;  (** out-of-order payloads. *)
  inner_wakes : Engine.inner_wakes;
}

type stats = {
  data_sent : int;
  retransmits : int;
  acks_sent : int;
  duplicates_ignored : int;
  gave_up : int;
}

(* Shared by every node's handlers, which a sharded run calls from
   several domains at once: the counters are atomic. *)
type handle = {
  r_data_sent : int Atomic.t;
  r_retransmits : int Atomic.t;
  r_acks_sent : int Atomic.t;
  r_duplicates_ignored : int Atomic.t;
  r_gave_up : int Atomic.t;
}

let stats h =
  {
    data_sent = Atomic.get h.r_data_sent;
    retransmits = Atomic.get h.r_retransmits;
    acks_sent = Atomic.get h.r_acks_sent;
    duplicates_ignored = Atomic.get h.r_duplicates_ignored;
    gave_up = Atomic.get h.r_gave_up;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d payloads, %d retransmits, %d acks, %d duplicates ignored, %d abandoned"
    s.data_sent s.retransmits s.acks_sent s.duplicates_ignored s.gave_up

let default_ack_timeout = 8
let default_max_retries = 5

(* Longer than the worst legitimate silence: a full exponential backoff
   ladder, with slack for round-trips. *)
let progress_budget ?(ack_timeout = default_ack_timeout)
    ?(max_retries = default_max_retries) () =
  max 512 (4 * ack_timeout * (1 lsl max_retries))

let wrap ?(ack_timeout = default_ack_timeout)
    ?(max_retries = default_max_retries) (p : _ Engine.protocol) =
  if ack_timeout < 1 then invalid_arg "Reliable.wrap: ack_timeout must be >= 1";
  if max_retries < 0 then invalid_arg "Reliable.wrap: max_retries must be >= 0";
  let h =
    {
      r_data_sent = Atomic.make 0;
      r_retransmits = Atomic.make 0;
      r_acks_sent = Atomic.make 0;
      r_duplicates_ignored = Atomic.make 0;
      r_gave_up = Atomic.make 0;
    }
  in
  (* Every retransmit timer wakes its node when it falls due; a timer
     whose payload was acked meanwhile wakes it for nothing. *)
  let send_data st ~round dst payload =
    let seq = Option.value (Hashtbl.find_opt st.next_seq dst) ~default:0 in
    Hashtbl.replace st.next_seq dst (seq + 1);
    let due = round + ack_timeout in
    Hashtbl.replace st.unacked (dst, seq) { p_dst = dst; payload; retries = 0; due };
    Atomic.incr h.r_data_sent;
    [ Engine.Send (dst, Data { seq; payload }); Engine.Wake due ]
  in
  (* Inner actions become numbered, tracked transmissions; the inner
     protocol's own wakes are noted so it is woken only when it asked. *)
  let lift st ~round actions =
    List.concat_map
      (fun action ->
        match action with
        | Engine.Send (dst, m) -> send_data st ~round dst m
        | Engine.Complete r -> [ Engine.Complete r ]
        | Engine.Wake r ->
            Engine.note_wake st.inner_wakes r;
            [ Engine.Wake r ])
      actions
  in
  let initial_state v =
    {
      inner = p.Engine.initial_state v;
      next_seq = Hashtbl.create 4;
      unacked = Hashtbl.create 8;
      next_expected = Hashtbl.create 4;
      buffer = Hashtbl.create 8;
      inner_wakes = ref [];
    }
  in
  let on_start ~node st =
    let inner, actions = p.Engine.on_start ~node st.inner in
    st.inner <- inner;
    (st, lift st ~round:0 actions)
  in
  (* Release every buffered payload that is next in sequence from
     [src], feeding each to the inner protocol in order. *)
  let release st ~round ~node ~src =
    let actions = ref [] in
    let continue = ref true in
    while !continue do
      let expected =
        Option.value (Hashtbl.find_opt st.next_expected src) ~default:0
      in
      match Hashtbl.find_opt st.buffer (src, expected) with
      | None -> continue := false
      | Some payload ->
          Hashtbl.remove st.buffer (src, expected);
          Hashtbl.replace st.next_expected src (expected + 1);
          let inner, acts = p.Engine.on_receive ~round ~node ~src payload st.inner in
          st.inner <- inner;
          actions := !actions @ lift st ~round acts
    done;
    !actions
  in
  let on_receive ~round ~node ~src msg st =
    match msg with
    | Ack { seq } ->
        Hashtbl.remove st.unacked (src, seq);
        (st, [])
    | Data { seq; payload } ->
        Atomic.incr h.r_acks_sent;
        let ack = Engine.Send (src, Ack { seq }) in
        let expected =
          Option.value (Hashtbl.find_opt st.next_expected src) ~default:0
        in
        if seq < expected || Hashtbl.mem st.buffer (src, seq) then begin
          Atomic.incr h.r_duplicates_ignored;
          (st, [ ack ])
        end
        else begin
          Hashtbl.replace st.buffer (src, seq) payload;
          (st, ack :: release st ~round ~node ~src)
        end
  in
  let on_wake ~round ~node st =
    (* Fire the retransmit timers due this round, oldest link first so
       the scan order is independent of hash-table internals. *)
    let due =
      Hashtbl.fold
        (fun key pending acc -> if pending.due <= round then (key, pending) :: acc else acc)
        st.unacked []
      |> List.sort compare
    in
    let resends =
      List.concat_map
        (fun ((_, seq), pending) ->
          if pending.retries >= max_retries then begin
            Hashtbl.remove st.unacked (pending.p_dst, seq);
            Atomic.incr h.r_gave_up;
            []
          end
          else begin
            pending.retries <- pending.retries + 1;
            pending.due <- round + (ack_timeout * (1 lsl pending.retries));
            Atomic.incr h.r_retransmits;
            [
              Engine.Send (pending.p_dst, Data { seq; payload = pending.payload });
              Engine.Wake pending.due;
            ]
          end)
        due
    in
    let inner, acts = Engine.forward_wake st.inner_wakes p ~round ~node st.inner in
    st.inner <- inner;
    (st, resends @ lift st ~round acts)
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
