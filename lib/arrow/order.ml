(* Total-order validation for queuing outcomes. See order.mli. *)

type error =
  | Duplicate_op of Types.op
  | Duplicate_pred of Types.pred
  | Missing_op of Types.op
  | No_head
  | Broken_chain of { covered : int; total : int }

let pp_error ppf = function
  | Duplicate_op op ->
      Format.fprintf ppf "operation %a has two outcomes" Types.pp_op op
  | Duplicate_pred p ->
      Format.fprintf ppf "two operations share predecessor %a" Types.pp_pred p
  | Missing_op op ->
      Format.fprintf ppf "predecessor %a is not a queued operation" Types.pp_op
        op
  | No_head -> Format.pp_print_string ppf "no operation is queued behind Init"
  | Broken_chain { covered; total } ->
      Format.fprintf ppf "successor chain covers %d of %d operations" covered
        total

module OpMap = Map.Make (struct
  type t = Types.op

  let compare = Types.compare_op
end)

let chain outcomes =
  let exception E of error in
  try
    let total = List.length outcomes in
    if total = 0 then Ok []
    else begin
      (* Index outcomes by op, rejecting duplicates. *)
      let by_op =
        List.fold_left
          (fun acc (o : Types.outcome) ->
            if OpMap.mem o.op acc then raise (E (Duplicate_op o.op))
            else OpMap.add o.op o acc)
          OpMap.empty outcomes
      in
      (* successor : pred -> op, rejecting shared predecessors and
         predecessors that are not themselves queued. *)
      let head = ref None in
      let successor =
        List.fold_left
          (fun acc (o : Types.outcome) ->
            (match o.pred with
            | Types.Init ->
                if !head <> None then raise (E (Duplicate_pred Types.Init))
                else head := Some o.op
            | Types.Op p -> if not (OpMap.mem p by_op) then raise (E (Missing_op p)));
            match o.pred with
            | Types.Init -> acc
            | Types.Op p ->
                if OpMap.mem p acc then raise (E (Duplicate_pred (Types.Op p)))
                else OpMap.add p o.op acc)
          OpMap.empty outcomes
      in
      match !head with
      | None -> raise (E No_head)
      | Some first ->
          let rec follow acc covered current =
            match OpMap.find_opt current successor with
            | None ->
                if covered = total then Ok (List.rev acc)
                else raise (E (Broken_chain { covered; total }))
            | Some next -> follow (next :: acc) (covered + 1) next
          in
          follow [ first ] 1 first
    end
  with E e -> Error e

let is_valid outcomes = Result.is_ok (chain outcomes)

let total_delay outcomes =
  List.fold_left (fun acc (o : Types.outcome) -> acc + o.round) 0 outcomes

let max_delay outcomes =
  List.fold_left (fun acc (o : Types.outcome) -> max acc o.round) 0 outcomes

let respects_real_time ~issue ~complete order =
  (* a precedes b in the order whenever complete a < issue b; i.e. for
     every b, every operation that finished before b started must
     appear earlier. Equivalent check in one pass: the running maximum
     completion time of *later* operations never undercuts an earlier
     operation's... simplest correct form: compare all ordered pairs
     (quadratic; long-lived runs are small). *)
  let arr = Array.of_list order in
  let k = Array.length arr in
  let ok = ref true in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      (* arr.(i) precedes arr.(j): fine unless arr.(j) completed before
         arr.(i) was issued. *)
      if complete arr.(j) < issue arr.(i) then ok := false
    done
  done;
  !ok

let of_completions completions =
  List.map
    (fun (c : _ Countq_simnet.Engine.completion) ->
      let op, pred = c.value in
      { Types.op; pred; found_at = c.node; round = c.round })
    completions

(* The queuing specification over [expected] ops, [id] naming each. *)
let make_spec ~expected ~injects ~id =
  {
    Countq_simnet.Oneshot.expected;
    injects;
    op_of_completion = (fun (op, _) -> Some (id op));
    check =
      (fun completions ->
        if List.length completions <> expected then
          Error "wrong completion count"
        else
          match chain (of_completions completions) with
          | Ok _ -> Ok ()
          | Error e -> Error (Format.asprintf "%a" pp_error e));
    (* The online fragment of [chain]: an injective predecessor map with
       one head, checked as completions arrive. *)
    monitors =
      (fun () ->
        let id (op : Types.op) = (op.origin, op.seq) in
        [
          Countq_simnet.Monitor.chain_consistent
            ~op:(fun (op, _) -> id op)
            ~pred:(function _, Types.Init -> None | _, Types.Op q -> Some (id q));
        ]);
  }

let spec ~requests =
  make_spec ~expected:(List.length requests)
    ~injects:(List.map (fun v -> (v, 0)) requests)
    ~id:(fun (op : Types.op) -> op.origin)

let long_lived_spec ~schedule =
  let n = Array.length schedule in
  let id (op : Types.op) = (op.seq * n) + op.origin in
  let injects =
    List.concat
      (List.init n (fun origin ->
           List.mapi
             (fun seq round -> (id { origin; seq }, round))
             (Array.to_list schedule.(origin))))
  in
  make_spec ~expected:(List.length injects) ~injects ~id
