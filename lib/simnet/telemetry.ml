(* Windowed telemetry + span reservoirs. See telemetry.mli. *)

module Rng = Countq_util.Rng
module Heap = Countq_util.Heap
module J = Countq_util.Json

type slot = {
  mutable s_index : int; (* window number stored here; -1 = never used *)
  mutable s_sends : int;
  mutable s_deliveries : int;
  mutable s_completions : int;
  mutable s_injections : int;
  mutable s_drops : int;
  mutable s_max_backlog : int;
  mutable s_max_in_flight : int;
}

let fresh_slot () =
  {
    s_index = -1;
    s_sends = 0;
    s_deliveries = 0;
    s_completions = 0;
    s_injections = 0;
    s_drops = 0;
    s_max_backlog = 0;
    s_max_in_flight = 0;
  }

let reset_slot s index =
  s.s_index <- index;
  s.s_sends <- 0;
  s.s_deliveries <- 0;
  s.s_completions <- 0;
  s.s_injections <- 0;
  s.s_drops <- 0;
  s.s_max_backlog <- 0;
  s.s_max_in_flight <- 0

type t = {
  win : int;
  ring : slot array;
  mutable cur : slot; (* ring.(cur_index mod cap), cached *)
  mutable cur_index : int; (* window of the latest event; -1 = none *)
}

let create ?(windows = 64) ~window_size () =
  if window_size < 1 then invalid_arg "Telemetry.create: window_size < 1";
  if windows < 1 then invalid_arg "Telemetry.create: windows < 1";
  let ring = Array.init windows (fun _ -> fresh_slot ()) in
  { win = window_size; ring; cur = ring.(0); cur_index = -1 }

let window_size t = t.win

(* The hot path: one division to find the event's window; same window
   as the previous event (the overwhelmingly common case) costs one
   compare. Advancing resets only the slots actually entered — a
   fast-forward jump over k windows touches min(k, cap) slots. *)
let advance t round =
  let w = round / t.win in
  if w = t.cur_index then t.cur
  else begin
    let cap = Array.length t.ring in
    let first = max (t.cur_index + 1) (w - cap + 1) in
    for idx = first to w do
      reset_slot t.ring.(idx mod cap) idx
    done;
    t.cur_index <- w;
    t.cur <- t.ring.(w mod cap);
    t.cur
  end

let tap t =
  let drop ~round ~src:_ ~dst:_ =
    let s = advance t round in
    s.s_drops <- s.s_drops + 1
  in
  {
    Engine.no_tap with
    on_transmit =
      (fun ~round ~src:_ ~dst:_ ->
        let s = advance t round in
        s.s_sends <- s.s_sends + 1);
    on_backlog =
      (fun ~round ~node:_ ~backlog ->
        let s = advance t round in
        if backlog > s.s_max_backlog then s.s_max_backlog <- backlog);
    on_deliver =
      (fun ~round ~src:_ ~dst:_ ->
        let s = advance t round in
        s.s_deliveries <- s.s_deliveries + 1);
    on_complete =
      (fun ~round ~node:_ ~value:_ ->
        let s = advance t round in
        s.s_completions <- s.s_completions + 1);
    on_inject =
      (fun ~round ~node:_ ->
        let s = advance t round in
        s.s_injections <- s.s_injections + 1);
    on_drop = drop;
    on_down_drop = drop;
    on_round_end =
      (fun ~round ~in_flight ->
        let s = advance t round in
        if in_flight > s.s_max_in_flight then s.s_max_in_flight <- in_flight;
        `Continue);
  }

type window = {
  w_index : int;
  w_start : int;
  w_len : int;
  sends : int;
  deliveries : int;
  completions : int;
  injections : int;
  drops : int;
  max_backlog : int;
  max_in_flight : int;
}

let evicted t =
  let cap = Array.length t.ring in
  max 0 (t.cur_index + 1 - cap)

let windows t =
  if t.cur_index < 0 then []
  else begin
    let cap = Array.length t.ring in
    let first = max 0 (t.cur_index + 1 - cap) in
    List.init
      (t.cur_index - first + 1)
      (fun i ->
        let idx = first + i in
        let s = t.ring.(idx mod cap) in
        (* Slots between the oldest event and the newest are always
           live: advance resets every entered slot, and fast-forwarded
           windows were reset to zero on the way past. *)
        assert (s.s_index = idx);
        {
          w_index = idx;
          w_start = idx * t.win;
          w_len = t.win;
          sends = s.s_sends;
          deliveries = s.s_deliveries;
          completions = s.s_completions;
          injections = s.s_injections;
          drops = s.s_drops;
          max_backlog = s.s_max_backlog;
          max_in_flight = s.s_max_in_flight;
        })
  end

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun w ->
      let obj =
        J.Obj
          [
            ("type", J.Str "window");
            ("index", J.Int w.w_index);
            ("start", J.Int w.w_start);
            ("len", J.Int w.w_len);
            ("sends", J.Int w.sends);
            ("deliveries", J.Int w.deliveries);
            ("completions", J.Int w.completions);
            ("injections", J.Int w.injections);
            ("drops", J.Int w.drops);
            ("max_backlog", J.Int w.max_backlog);
            ("max_in_flight", J.Int w.max_in_flight);
          ]
      in
      Buffer.add_string buf (J.to_string obj);
      Buffer.add_char buf '\n')
    (windows t);
  Buffer.contents buf

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  let hi = Array.fold_left max 0. values in
  let buf = Buffer.create (Array.length values * 3) in
  Array.iter
    (fun v ->
      let level =
        if hi <= 0. || v <= 0. then 0
        else min 7 (int_of_float (v /. hi *. 7.99))
      in
      Buffer.add_string buf blocks.(level))
    values;
  Buffer.contents buf

module Reservoir = struct
  type 'a res = {
    k_first : int;
    k_slowest : int;
    k_sample : int;
    rng : Rng.t;
    mutable firsts : 'a list; (* newest first; length <= k_first *)
    mutable n_firsts : int;
    slow : (int, 'a) Heap.t; (* min-heap on delay: root = evictee *)
    sample : 'a option array;
    mutable r_seen : int;
    mutable r_completed : int;
    mutable r_stranded : int;
  }

  let create ?(first = 4) ?(slowest = 8) ?(sample = 8) ~seed () =
    {
      k_first = max 0 first;
      k_slowest = max 0 slowest;
      k_sample = max 0 sample;
      rng = Rng.create seed;
      firsts = [];
      n_firsts = 0;
      slow = Heap.create ();
      sample = Array.make (max 1 (max 0 sample)) None;
      r_seen = 0;
      r_completed = 0;
      r_stranded = 0;
    }

  let note r ~delay s =
    let i = r.r_seen in
    r.r_seen <- i + 1;
    (match delay with
    | None -> r.r_stranded <- r.r_stranded + 1
    | Some d ->
        r.r_completed <- r.r_completed + 1;
        if r.k_slowest > 0 then begin
          if Heap.size r.slow < r.k_slowest then Heap.push r.slow d s
          else
            match Heap.peek r.slow with
            | Some (dmin, _) when d > dmin ->
                ignore (Heap.pop r.slow);
                Heap.push r.slow d s
            | _ -> ()
        end);
    if r.n_firsts < r.k_first then begin
      r.firsts <- s :: r.firsts;
      r.n_firsts <- r.n_firsts + 1
    end;
    if r.k_sample > 0 then begin
      if i < r.k_sample then r.sample.(i) <- Some s
      else begin
        (* Algorithm R: the i-th span replaces a random slot with
           probability k/(i+1). *)
        let j = Rng.below r.rng (i + 1) in
        if j < r.k_sample then r.sample.(j) <- Some s
      end
    end

  let seen r = r.r_seen
  let completed r = r.r_completed
  let stranded r = r.r_stranded

  let exemplars r =
    let firsts = List.rev_map (fun s -> ("first", s)) r.firsts in
    let slow = ref [] in
    let h = Heap.create () in
    (* Drain a copy so [exemplars] is re-callable; ascending pops
       prepended yield largest-delay-first. *)
    let rec refill () =
      match Heap.pop r.slow with
      | None -> ()
      | Some (d, s) ->
          Heap.push h d s;
          slow := ("slowest", s) :: !slow;
          refill ()
    in
    refill ();
    let rec restore () =
      match Heap.pop h with
      | None -> ()
      | Some (d, s) ->
          Heap.push r.slow d s;
          restore ()
    in
    restore ();
    let sample =
      Array.to_list r.sample
      |> List.filter_map (fun o -> Option.map (fun s -> ("sample", s)) o)
    in
    firsts @ !slow @ sample
end
