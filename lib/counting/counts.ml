(* Counting outcome validation. See counts.mli. *)

module Engine = Countq_simnet.Engine

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

let of_engine ~requests (res : (int * int) Engine.result) =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let node, count = c.value in
        { node; count; round = c.round })
      res.completions
  in
  {
    outcomes;
    valid = validate ~requests outcomes;
    rounds = res.rounds;
    messages = res.messages;
    total_delay = List.fold_left (fun acc o -> acc + o.round) 0 outcomes;
    max_delay = List.fold_left (fun acc o -> max acc o.round) 0 outcomes;
    expansion = res.expansion;
  }

let of_async ~requests (res : (int * int) Countq_simnet.Async.result) =
  let outcomes =
    List.map
      (fun (c : _ Engine.completion) ->
        let node, count = c.value in
        { node; count; round = c.round })
      res.completions
  in
  {
    outcomes;
    valid = validate ~requests outcomes;
    rounds = res.finish_time;
    messages = res.messages;
    total_delay = List.fold_left (fun acc o -> acc + o.round) 0 outcomes;
    max_delay = List.fold_left (fun acc o -> max acc o.round) 0 outcomes;
    expansion = 1;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "node %d count %d (round %d)" o.node o.count o.round
