(* Counting outcome validation. See counts.mli. *)

module Engine = Countq_simnet.Engine

let op ~n ~node ~seq = (seq * n) + node
let origin ~n op = op mod n

type long_lived_outcome = { node : int; seq : int; count : int; delay : int }

type long_lived_result = {
  outcomes : long_lived_outcome list;
  counts_exact : bool;
  rounds : int;
  messages : int;
  total_delay : int;
  max_delay : int;
}

(* Scheduled op (v, seq) owns slot [first.(v) + seq] of the [m]
   arrivals; byte marks catch an op completing twice or a rank handed
   out twice, so [m] distinct completions with ranks in 1..m are
   exactly every op once and the ranks {1..m}. *)
let of_long_lived ~schedule (res : (int * int) Engine.result) =
  let n = Array.length schedule in
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + Array.length schedule.(v)
  done;
  let m = first.(n) in
  let completed = Bytes.make m '\000' and ranked = Bytes.make m '\000' in
  let exact = ref (List.length res.completions = m) in
  let mark marks i =
    if Bytes.get marks i <> '\000' then exact := false;
    Bytes.set marks i '\001'
  in
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let op, count = c.value in
        let node = origin ~n op and seq = op / n in
        let issued =
          if op >= 0 && seq < Array.length schedule.(node) then begin
            mark completed (first.(node) + seq);
            schedule.(node).(seq)
          end
          else begin
            exact := false;
            0
          end
        in
        if count >= 1 && count <= m then mark ranked (count - 1) else exact := false;
        { node; seq; count; delay = c.round - issued })
      res.completions
  in
  {
    outcomes;
    counts_exact = !exact;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = List.fold_left (fun acc o -> acc + o.delay) 0 outcomes;
    max_delay = List.fold_left (fun acc o -> max acc o.delay) 0 outcomes;
  }

type outcome = { node : int; count : int; round : int }

type error =
  | Unrequested_count of int
  | Duplicate_node of int
  | Missing_node of int
  | Bad_count_set

let pp_error ppf = function
  | Unrequested_count v ->
      Format.fprintf ppf "non-requesting node %d received a count" v
  | Duplicate_node v -> Format.fprintf ppf "node %d received two counts" v
  | Missing_node v -> Format.fprintf ppf "requesting node %d got no count" v
  | Bad_count_set ->
      Format.pp_print_string ppf "counts are not exactly {1..|R|}"

(* Index of [v] in the ascending prefix [a.(0 .. len-1)], or -1. *)
let index_in (a : int array) len (v : int) =
  let lo = ref 0 and hi = ref (len - 1) and res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = a.(mid) in
    if x = v then res := mid else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !res

(* One int sort of the requests, then a binary search per outcome and
   byte marks for nodes and counts. The first failing outcome in list
   order names the node (a non-requester, or a requester counted
   twice), then the smallest requester without a count; past both, the
   [k] outcomes sit on [k] distinct requesters, and their counts are
   exactly {1..k} iff each lies in 1..k and none repeats. *)
let validate ~requests outcomes =
  let exception E of error in
  try
    let req = Array.of_list requests in
    Array.sort Int.compare req;
    (* Deduplicate in place: [req.(0 .. m-1)] is the distinct prefix. *)
    let m = ref 0 in
    for i = 0 to Array.length req - 1 do
      let v = req.(i) in
      if !m = 0 || req.(!m - 1) <> v then begin
        req.(!m) <- v;
        incr m
      end
    done;
    let m = !m in
    let seen = Bytes.make m '\000' in
    List.iter
      (fun o ->
        let i = index_in req m o.node in
        if i < 0 then raise (E (Unrequested_count o.node));
        if Bytes.get seen i <> '\000' then raise (E (Duplicate_node o.node));
        Bytes.set seen i '\001')
      outcomes;
    for i = 0 to m - 1 do
      if Bytes.get seen i = '\000' then raise (E (Missing_node req.(i)))
    done;
    let k = List.length outcomes in
    let got = Bytes.make k '\000' in
    List.iter
      (fun o ->
        let c = o.count in
        if c < 1 || c > k || Bytes.get got (c - 1) <> '\000' then
          raise (E Bad_count_set);
        Bytes.set got (c - 1) '\001')
      outcomes;
    Ok ()
  with E e -> Error e

type run_result = {
  outcomes : outcome list;
  valid : (unit, error) result;
  rounds : int;
  messages : int;
  total_delay : int;
  max_delay : int;
  expansion : int;
}

let of_completions completions =
  List.map
    (fun (c : _ Engine.completion) ->
      let node, count = c.value in
      { node; count; round = c.round })
    completions

let of_engine ~requests (res : (int * int) Engine.result) =
  let outcomes = of_completions res.completions in
  {
    outcomes;
    valid = validate ~requests outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = List.fold_left (fun acc o -> acc + o.round) 0 outcomes;
    max_delay = List.fold_left (fun acc o -> max acc o.round) 0 outcomes;
    expansion = res.expansion;
  }

module Monitor = Countq_simnet.Monitor

let spec ~requests =
  {
    Countq_simnet.Oneshot.expected = List.length requests;
    injects = List.map (fun v -> (v, 0)) requests;
    op_of_completion = (fun ((node, _) : int * int) -> Some node);
    check =
      (fun completions ->
        match validate ~requests (of_completions completions) with
        | Ok () -> Ok ()
        | Error e -> Error (Format.asprintf "%a" pp_error e));
    (* Ranks are handed out once each, and nobody is counted twice. *)
    monitors =
      (fun () ->
        [
          Monitor.distinct_ranks ~rank:snd;
          Monitor.rank_monotonic ~rank:snd;
          Monitor.unique_completion ~node_of:(fun ~node:_ (origin, _) -> origin);
        ]);
  }

let pp_outcome ppf o =
  Format.fprintf ppf "node %d count %d (round %d)" o.node o.count o.round
