(* Open-loop workload layer. See load.mli. *)

module Engine = Countq_simnet.Engine
module Event = Countq_simnet.Event_engine
module Shard = Countq_simnet.Shard
module Span = Countq_simnet.Span
module Implicit = Countq_topology.Implicit
module Rng = Countq_util.Rng
module Stats = Countq_util.Stats
module Sketch = Countq_util.Sketch
module Telemetry = Countq_simnet.Telemetry
module Reservoir = Telemetry.Reservoir

type arrival =
  | Poisson of float
  | Bursty of { rate : float; on : int; off : int }
  | Diurnal of { rate : float; period : int }

let arrival_label = function
  | Poisson r -> Printf.sprintf "poisson-%g" r
  | Bursty { rate; on; off } -> Printf.sprintf "bursty-%g-%d-%d" rate on off
  | Diurnal { rate; period } -> Printf.sprintf "diurnal-%g-%d" rate period

(* Knuth's product method, chunked so the e^-λ factor never
   underflows: Poisson(λ) is the sum of ⌈λ/10⌉ independent
   Poisson(λ/⌈λ/10⌉) draws. *)
let poisson_draw rng lambda =
  if lambda <= 0. then 0
  else begin
    let chunks = max 1 (int_of_float (ceil (lambda /. 10.))) in
    let per = lambda /. float_of_int chunks in
    let l = exp (-.per) in
    let total = ref 0 in
    for _ = 1 to chunks do
      let k = ref 0 and p = ref 1.0 in
      let continue = ref true in
      while !continue do
        p := !p *. Rng.float rng;
        if !p > l then incr k else continue := false
      done;
      total := !total + !k
    done;
    !total
  end

let rate_at arrival t =
  match arrival with
  | Poisson r -> r
  | Bursty { rate; on; off } ->
      if (t - 1) mod (on + off) < on then
        rate *. float_of_int (on + off) /. float_of_int on
      else 0.
  | Diurnal { rate; period } ->
      rate
      *. (1. +. sin (2. *. Float.pi *. float_of_int t /. float_of_int period))

let schedule ~seed arrival ~n ~horizon =
  if horizon < 1 then invalid_arg "Load.schedule: horizon must be >= 1";
  if n < 1 then invalid_arg "Load.schedule: n must be >= 1";
  let rng = Rng.create seed in
  let acc = ref [] in
  for t = 1 to horizon do
    let k = poisson_draw rng (rate_at arrival t) in
    let origins = Array.init k (fun _ -> Rng.below rng n) in
    Array.sort Int.compare origins;
    (* Prepend in ascending order; the final [List.rev] restores
       ascending (round, node) order. *)
    for i = 0 to k - 1 do
      acc := (t, origins.(i)) :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

type workload = Queuing | Counting | Funnel

let workload_label = function
  | Queuing -> "queuing"
  | Counting -> "counting"
  | Funnel -> "funnel"

type summary = {
  workload : string;
  topology : string;
  arrival : string;
  horizon : int;
  injected : int;
  completed : int;
  unfinished : int;
  offered : float;
  throughput : float;
  mean_delay : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max_delay : int;
  max_backlog : int;
  peak_in_flight : int;
  touched : int;
  executed_rounds : int;
  rounds : int;
  messages : int;
  saturated : bool;
  spans : Span.t list;
  sketched : bool;
  exemplars : (string * Span.t) list;
}

(* ------------------------------------------------------------------ *)
(* Queuing: arrow path reversal (Raymond / Demmer–Herlihy) over the
   implicit topology. A node's whole state is its link, which points
   toward the current queue tail (self when the node holds it), and
   queue(i) carries only the global op index [i]. Both are immediates,
   so no receive or hop allocates a state or a message. Completion
   values are op indices: the open-loop observable is the completion
   instant.                                                            *)

type q_state = int
type q_msg = Queue of int [@@unboxed]

let queuing_protocol ~topo ~tail =
  let nn = Implicit.n topo in
  if tail < 0 || tail >= nn then invalid_arg "Load.run: tail out of range";
  {
    Engine.name = "open-loop-arrow";
    initial_state =
      (fun v -> if v = tail then v else Implicit.next_hop topo ~src:v ~dst:tail);
    on_start = (fun ~node:_ s -> (s, []));
    on_receive =
      (fun ~round:_ ~node ~src (Queue i) (link : q_state) ->
        if link = node then (src, [ Engine.Complete i ])
        else (src, [ Engine.Send (link, Queue i) ]));
    on_wake = Engine.no_wake;
  }

(* Issuing operation [i] at [v]: local completion if v holds the tail,
   else fire queue(i) at the arrow; either way v becomes the tail. *)
let issue_q v i (link : q_state) =
  if link = v then (v, [ Engine.Complete i ])
  else (v, [ Engine.Send (link, Queue i) ])

(* ------------------------------------------------------------------ *)
(* Counting: a central fetch-and-add. Requests route hop-by-hop to the
   centre, the counter increments, the response routes back; the
   operation completes when its origin receives the response. State is
   the counter (meaningful at the centre only).                        *)

type c_msg = { op_idx : int; resp : bool }

let counting_protocol ~topo ~center ~origin_of =
  let nn = Implicit.n topo in
  if center < 0 || center >= nn then invalid_arg "Load.run: center out of range";
  {
    Engine.name = "open-loop-counter";
    initial_state = (fun _ -> 0);
    on_start = (fun ~node:_ s -> (s, []));
    on_receive =
      (fun ~round:_ ~node ~src:_ m s ->
        let target = if m.resp then origin_of m.op_idx else center in
        if m.resp && node = target then (s, [ Engine.Complete m.op_idx ])
        else if (not m.resp) && node = center then
          let m' = { m with resp = true } in
          let dst = origin_of m.op_idx in
          if dst = center then (s + 1, [ Engine.Complete m.op_idx ])
          else
            (s + 1, [ Engine.Send (Implicit.next_hop topo ~src:node ~dst, m') ])
        else (s, [ Engine.Send (Implicit.next_hop topo ~src:node ~dst:target, m) ]));
    on_wake = Engine.no_wake;
  }

let issue_c ~topo ~center v i s =
  if v = center then (s + 1, [ Engine.Complete i ])
  else
    ( s,
      [
        Engine.Send
          (Implicit.next_hop topo ~src:v ~dst:center, { op_idx = i; resp = false });
      ] )

(* ------------------------------------------------------------------ *)
(* Funnel: the combining funnel (Funnel module) generalised to an open
   loop. Operations arriving in the same round form a cohort; each
   cohort runs one leaf-to-root combine / root-to-leaf decombine pass
   over its own on-path closure, and the root folds cohort totals into
   one global counter, so counts stay exact across the whole run. Each
   (cohort, on-path node) pair owns one combining window, built from
   the arrival calendar before the run: [pending] starts at the number
   of on-path children that will report plus the local arrivals that
   will join, and the node flushes upward the moment it reaches 0 —
   message-driven, no timers. Same-round arrivals at a node inject
   before any child's Up can arrive (an Up sent in round t delivers in
   t+1), so batches form deterministically.

   The window table is complete before the run starts and never
   resized, and only on-path nodes ever see a cohort, so every lookup
   hits. A window is written only by its node's handlers, which run on
   that node's owning shard, so sharded runs share the table safely.
   Node state is just the root's counter.                              *)

type f_contrib = F_own of int | F_child of { child : int; count : int }

type f_window = {
  mutable pending : int;  (** on-path children and local arrivals to come. *)
  mutable f_total : int;
  mutable f_batch : f_contrib list;  (** reverse arrival order. *)
}

type f_msg =
  | F_up of { cohort : int; count : int }
  | F_down of { cohort : int; base : int }

module Itbl = Hashtbl.Make (Int)

(* One window per (cohort, on-path node), keyed [cohort * n + node],
   from one walk up the tree per operation — the open-loop twin of the
   Funnel module's closure table. *)
let funnel_windows ~n ~root ~parent ~cal =
  let tbl = Itbl.create ((4 * Array.length cal) + 16) in
  Array.iter
    (fun (at, node) ->
      let rec ensure v =
        let key = (at * n) + v in
        match Itbl.find_opt tbl key with
        | Some w -> w
        | None ->
            let w = { pending = 0; f_total = 0; f_batch = [] } in
            Itbl.add tbl key w;
            if v <> root then begin
              let pw = ensure (parent v) in
              pw.pending <- pw.pending + 1
            end;
            w
      in
      let w = ensure node in
      w.pending <- w.pending + 1)
    cal;
  fun ~cohort ~node -> Itbl.find tbl ((cohort * n) + node)

let funnel_machinery ~root ~parent ~window =
  (* Decombine invariant, cohort-local: entered with [base] and batch
     total t, hand out exactly {base+1 .. base+t} in arrival order;
     each own operation completes with its count. *)
  let hand_down ~cohort base w =
    let acts, _ =
      List.fold_left
        (fun (acts, b) contrib ->
          match contrib with
          | F_own i -> (Engine.Complete (i, b + 1) :: acts, b + 1)
          | F_child { child; count } ->
              (Engine.Send (child, F_down { cohort; base = b }) :: acts, b + count))
        ([], base) (List.rev w.f_batch)
    in
    w.f_batch <- [];
    List.rev acts
  in
  (* Add one contribution to [node]'s window; the last one flushes it:
     the root decombines at once, any other node reports upward. *)
  let join ~cohort ~node contrib count counter =
    let w = window ~cohort ~node in
    w.pending <- w.pending - 1;
    w.f_total <- w.f_total + count;
    w.f_batch <- contrib :: w.f_batch;
    if w.pending > 0 then (counter, [])
    else if node = root then (counter + w.f_total, hand_down ~cohort counter w)
    else
      (counter, [ Engine.Send (parent node, F_up { cohort; count = w.f_total }) ])
  in
  let protocol =
    {
      Engine.name = "open-loop-funnel";
      initial_state = (fun _ -> 0);
      on_start = (fun ~node:_ s -> (s, []));
      on_receive =
        (fun ~round:_ ~node ~src msg counter ->
          match msg with
          | F_up { cohort; count } ->
              join ~cohort ~node (F_child { child = src; count }) count counter
          | F_down { cohort; base } ->
              (counter, hand_down ~cohort base (window ~cohort ~node)));
      on_wake = Engine.no_wake;
    }
  in
  let issue v i ~cohort counter = join ~cohort ~node:v (F_own i) 1 counter in
  (protocol, issue)

(* Counts stay exact: every completion carries a distinct count in
   [1 .. injected]. A run with nothing unfinished completes each of its
   [injected] operations at least once, so by pigeonhole its counts are
   then exactly {1 .. injected}. *)
let count_check ~injected =
  let seen = Bytes.make injected '\000' in
  fun count ->
    if count < 1 || count > injected then
      failwith
        (Printf.sprintf "Load.run: funnel count %d is outside 1..%d" count
           injected);
    if Bytes.get seen (count - 1) <> '\000' then
      failwith
        (Printf.sprintf "Load.run: funnel count %d was handed out twice" count);
    Bytes.set seen (count - 1) '\001'

let funnel_tree ~topo name =
  match Implicit.tree_arity topo with
  | Some arity -> (0, fun v -> (v - 1) / arity)
  | None ->
      invalid_arg (name ^ ": the funnel workload needs an implicit tree family")

(* ------------------------------------------------------------------ *)

let summarise ~workload ~topo ~arrival ~horizon ~keep_spans ~cal ~stats
    ~(result : int Engine.result) =
  let injected = Array.length cal in
  let completion_round = Array.make injected (-1) in
  List.iter
    (fun (c : int Engine.completion) -> completion_round.(c.value) <- c.round)
    result.completions;
  let delays = ref [] in
  let completed = ref 0 in
  let max_delay = ref 0 in
  let sum_delay = ref 0 in
  Array.iteri
    (fun i (at, _) ->
      if completion_round.(i) >= 0 then begin
        incr completed;
        let d = completion_round.(i) - at in
        delays := d :: !delays;
        sum_delay := !sum_delay + d;
        if d > !max_delay then max_delay := d
      end)
    cal;
  let completed = !completed in
  (* One sort serves every percentile (see [Stats.percentile_ints]). *)
  let sorted = Array.of_list !delays in
  Array.sort Int.compare sorted;
  let sorted = Array.map float_of_int sorted in
  let pct q = match Stats.percentile sorted q with Some v -> v | None -> 0. in
  let spans =
    if not keep_spans then []
    else
      Array.to_list
        (Array.mapi
           (fun i (at, _) ->
             {
               Span.op = i;
               inject_round = at;
               hops = [];
               completion_round =
                 (if completion_round.(i) >= 0 then Some completion_round.(i)
                  else None);
             })
           cal)
  in
  let unfinished = injected - completed in
  {
    workload = workload_label workload;
    topology = Implicit.label topo;
    arrival = arrival_label arrival;
    horizon;
    injected;
    completed;
    unfinished;
    offered = float_of_int injected /. float_of_int horizon;
    throughput = float_of_int completed /. float_of_int horizon;
    mean_delay =
      (if completed = 0 then 0.
       else float_of_int !sum_delay /. float_of_int completed);
    p50 = pct 0.5;
    p95 = pct 0.95;
    p99 = pct 0.99;
    max_delay = !max_delay;
    max_backlog = result.max_link_backlog;
    peak_in_flight = stats.Event.peak_in_flight;
    touched = stats.Event.touched;
    executed_rounds = stats.Event.executed_rounds;
    rounds = result.rounds;
    messages = result.messages;
    saturated = unfinished * 20 > injected;
    spans;
    sketched = false;
    exemplars = [];
  }

(* Streaming summary: everything is folded at completion time — the
   delay sketch replaces the sorted delay list, the reservoir keeps K
   exemplar spans, and nothing O(completed) survives the run. *)
let summarise_streaming ~workload ~topo ~arrival ~horizon ~cal ~stats ~sketch
    ~reservoir ~(result : int Engine.result) =
  let injected = Array.length cal in
  let completed = Sketch.count sketch in
  let unfinished = injected - completed in
  let pct q = match Sketch.quantile sketch q with Some v -> v | None -> 0. in
  {
    workload = workload_label workload;
    topology = Implicit.label topo;
    arrival = arrival_label arrival;
    horizon;
    injected;
    completed;
    unfinished;
    offered = float_of_int injected /. float_of_int horizon;
    throughput = float_of_int completed /. float_of_int horizon;
    mean_delay = (match Sketch.mean sketch with Some m -> m | None -> 0.);
    p50 = pct 0.5;
    p95 = pct 0.95;
    p99 = pct 0.99;
    max_delay = (match Sketch.max_value sketch with Some m -> m | None -> 0);
    max_backlog = result.max_link_backlog;
    peak_in_flight = stats.Event.peak_in_flight;
    touched = stats.Event.touched;
    executed_rounds = stats.Event.executed_rounds;
    rounds = result.rounds;
    messages = result.messages;
    saturated = unfinished * 20 > injected;
    spans = [];
    sketched = not (Sketch.is_exact sketch);
    exemplars = Reservoir.exemplars reservoir;
  }

let run ?(seed = 0xc0417L) ?(config = Engine.default_config) ?(tail = 0)
    ?center ?drain ?(keep_spans = false) ?(streaming = false) ?(shards = 1)
    ?pool ?telemetry ~topo ~workload ~arrival ~horizon () =
  (* A function: each workload's tap has its own completion type. *)
  let tap () = Option.map Telemetry.tap telemetry in
  let n = Implicit.n topo in
  let center = match center with Some c -> c | None -> n / 2 in
  let drain = match drain with Some d -> max 0 d | None -> horizon in
  let cal = schedule ~seed arrival ~n ~horizon in
  let stats = Event.fresh_stats () in
  let halt_after = horizon + drain in
  let stream =
    if not streaming then None
    else begin
      let sketch = Sketch.create () in
      let reservoir =
        Reservoir.create ~seed:(Int64.logxor seed 0x51ee9L) ()
      in
      Some (sketch, reservoir)
    end
  in
  let sink =
    Option.map
      (fun (sketch, reservoir) (c : int Engine.completion) ->
        let at, _ = cal.(c.value) in
        let d = c.round - at in
        Sketch.add sketch d;
        Reservoir.note reservoir ~delay:(Some d)
          {
            Span.op = c.value;
            inject_round = at;
            hops = [];
            completion_round = Some c.round;
          })
      stream
  in
  let result =
    match workload with
    | Queuing ->
        let protocol = queuing_protocol ~topo ~tail in
        let injections =
          Array.mapi
            (fun i (at, node) ->
              { Event.at; node; inject = (fun s -> issue_q node i s) })
            cal
        in
        Shard.run_implicit ~shards ?pool ?tap:(tap ()) ?sink ~injections
          ~halt_after ~stats ~starters:[] ~topo ~config ~protocol ()
    | Counting ->
        let origin_of i = snd cal.(i) in
        let protocol = counting_protocol ~topo ~center ~origin_of in
        let injections =
          Array.mapi
            (fun i (at, node) ->
              { Event.at; node; inject = (fun s -> issue_c ~topo ~center node i s) })
            cal
        in
        Shard.run_implicit ~shards ?pool ?tap:(tap ()) ?sink ~injections
          ~halt_after ~stats ~starters:[] ~topo ~config ~protocol ()
    | Funnel ->
        let root, parent = funnel_tree ~topo "Load.run" in
        let window = funnel_windows ~n ~root ~parent ~cal in
        let protocol, issue = funnel_machinery ~root ~parent ~window in
        let injections =
          Array.mapi
            (fun i (at, node) ->
              { Event.at; node; inject = (fun s -> issue node i ~cohort:at s) })
            cal
        in
        (* Check each completion's count, then keep only its op index. *)
        let check = count_check ~injected:(Array.length cal) in
        let project (c : (int * int) Engine.completion) =
          let op, count = c.value in
          check count;
          { c with value = op }
        in
        let sink = Option.map (fun f c -> f (project c)) sink in
        let r =
          Shard.run_implicit ~shards ?pool ?tap:(tap ()) ?sink ~injections
            ~halt_after ~stats ~starters:[] ~topo ~config ~protocol ()
        in
        { r with completions = List.map project r.completions }
  in
  match stream with
  | Some (sketch, reservoir) ->
      summarise_streaming ~workload ~topo ~arrival ~horizon ~cal ~stats ~sketch
        ~reservoir ~result
  | None ->
      summarise ~workload ~topo ~arrival ~horizon ~keep_spans ~cal ~stats
        ~result

type one_shot_summary = {
  os_requests : int;
  os_completed : int;
  os_rounds : int;
  os_messages : int;
  os_max_backlog : int;
  os_total_delay : int;
  os_max_delay : int;
}

let one_shot ?(config = Engine.default_config) ?(tail = 0) ?center
    ?(shards = 1) ?pool ?stats ~topo ~workload ~requests () =
  (* One-shot delays are completion rounds (issue is at time 0), so the
     summary never looks at the completion values — the fold is
     polymorphic in them, which lets the funnel's [(origin, count)]
     completions share the path with the int-valued workloads. *)
  let summarise_os (type r) ~nreq (result : r Engine.result) =
    let total = ref 0 and maxd = ref 0 in
    List.iter
      (fun (c : r Engine.completion) ->
        total := !total + c.round;
        if c.round > !maxd then maxd := c.round)
      result.completions;
    {
      os_requests = nreq;
      os_completed = List.length result.completions;
      os_rounds = result.rounds;
      os_messages = result.messages;
      os_max_backlog = result.max_link_backlog;
      os_total_delay = !total;
      os_max_delay = !maxd;
    }
  in
  let exec :
      type s m r.
      protocol:(s, m, r) Engine.protocol -> unit -> r Engine.result =
   fun ~protocol () ->
    Shard.run_implicit ~shards ?pool ?stats ~starters:requests ~topo ~config
      ~protocol ()
  in
  let n = Implicit.n topo in
  let center = match center with Some c -> c | None -> n / 2 in
  let req = Array.of_list requests in
  let nreq = Array.length req in
  (* Request [i] is issued at [req.(i)]; the kernel rejects starters
     that are not strictly ascending, so a binary search finds it. *)
  let idx_of (v : int) =
    let lo = ref 0 and hi = ref (nreq - 1) and res = ref (-1) in
    while !res < 0 && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let x = req.(mid) in
      if x = v then res := mid else if x < v then lo := mid + 1 else hi := mid - 1
    done;
    !res
  in
  match workload with
  | Queuing ->
      let base = queuing_protocol ~topo ~tail in
      let protocol =
        {
          base with
          on_start =
            (fun ~node s ->
              let i = idx_of node in
              if i >= 0 then issue_q node i s else (s, []));
        }
      in
      summarise_os ~nreq (exec ~protocol ())
  | Counting ->
      let origin_of i = req.(i) in
      let base = counting_protocol ~topo ~center ~origin_of in
      let protocol =
        {
          base with
          on_start =
            (fun ~node s ->
              let i = idx_of node in
              if i >= 0 then issue_c ~topo ~center node i s else (s, []));
        }
      in
      summarise_os ~nreq (exec ~protocol ())
  | Funnel ->
      let protocol =
        Countq_counting.Funnel.implicit_protocol ~topo ~requests ()
      in
      summarise_os ~nreq (exec ~protocol ())
