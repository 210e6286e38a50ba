(* Runtime invariant monitors. See monitor.mli. *)

type kind = Safety | Liveness

type status =
  | Pass
  | Violated of string
  | Stalled of { round : int; last_progress : int; detail : string option }

type outcome = { name : string; kind : kind; status : status }

type report = outcome list

(* A monitor is a bundle of callbacks over hidden mutable state.
   [round_end] returns [true] to request an engine halt; [at_end] runs
   the end-of-run checks. *)
type 'r t = {
  mon_name : string;
  mon_kind : kind;
  deliver : round:int -> src:int -> dst:int -> unit;
  complete : round:int -> node:int -> 'r -> unit;
  round_end : round:int -> in_flight:int -> bool;
  at_end : unit -> unit;
  status : unit -> status;
}

let name m = m.mon_name
let kind m = m.mon_kind

let nop_deliver ~round:_ ~src:_ ~dst:_ = ()
let nop_round_end ~round:_ ~in_flight:_ = false

(* Record only the first violation: later ones are usually cascade. *)
let violation_cell () =
  let v = ref None in
  let fail m = if !v = None then v := Some m in
  (v, fail)

let safety name make_complete =
  let v, fail = violation_cell () in
  {
    mon_name = name;
    mon_kind = Safety;
    deliver = nop_deliver;
    complete = make_complete fail;
    round_end = nop_round_end;
    at_end = (fun () -> ());
    status = (fun () -> match !v with None -> Pass | Some m -> Violated m);
  }

let rank_monotonic ~rank =
  let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
  safety "safety-rank-monotonicity" (fun fail ~round ~node value ->
      let r = rank value in
      (match Hashtbl.find_opt last node with
      | Some prev when r <= prev ->
          fail
            (Printf.sprintf "node %d completed rank %d after rank %d (round %d)"
               node r prev round)
      | _ -> ());
      Hashtbl.replace last node r)

let distinct_ranks ~rank =
  let owner : (int, int) Hashtbl.t = Hashtbl.create 16 in
  safety "safety-distinct-ranks" (fun fail ~round ~node value ->
      let r = rank value in
      (match Hashtbl.find_opt owner r with
      | Some first ->
          fail
            (Printf.sprintf "rank %d handed out twice: nodes %d and %d (round %d)"
               r first node round)
      | None -> ());
      Hashtbl.replace owner r node)

let unique_completion ~node_of =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  safety "safety-unique-completion" (fun fail ~round ~node value ->
      let who = node_of ~node value in
      if Hashtbl.mem seen who then
        fail (Printf.sprintf "requester %d completed twice (round %d)" who round)
      else Hashtbl.add seen who ())

let chain_consistent ~op ~pred =
  let completed : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* predecessor identity -> claiming op; None encodes Init. *)
  let claimed : ((int * int) option, int * int) Hashtbl.t = Hashtbl.create 16 in
  let pp (o, s) = Printf.sprintf "%d.%d" o s in
  safety "safety-chain-consistency" (fun fail ~round ~node:_ value ->
      let o = op value in
      let p = pred value in
      if Hashtbl.mem completed o then
        fail (Printf.sprintf "operation %s completed twice (round %d)" (pp o) round);
      Hashtbl.replace completed o ();
      if p = Some o then
        fail
          (Printf.sprintf "operation %s is its own predecessor (round %d)"
             (pp o) round);
      match Hashtbl.find_opt claimed p with
      | Some first ->
          fail
            (Printf.sprintf "operations %s and %s share predecessor %s (round %d)"
               (pp first) (pp o)
               (match p with None -> "init" | Some q -> pp q)
               round)
      | None -> Hashtbl.add claimed p o)

(* [progress] and [completion_progress] differ only in which events
   reset the silence clock. [diagnose] runs once, at the stall, so a
   costly diagnosis (e.g. a reachability sweep) is off the hot path. *)
let progress_monitor ~name ~count_delivers ?(budget = 512) ?diagnose () =
  if budget < 1 then invalid_arg ("Monitor." ^ name ^ ": budget must be >= 1");
  let last = ref 0 in
  let verdict = ref None in
  let bump ~round = last := max !last round in
  {
    mon_name = name;
    mon_kind = Liveness;
    deliver =
      (if count_delivers then fun ~round ~src:_ ~dst:_ -> bump ~round
       else nop_deliver);
    complete = (fun ~round ~node:_ _ -> bump ~round);
    round_end =
      (fun ~round ~in_flight:_ ->
        if !verdict = None && round - !last >= budget then begin
          let detail =
            match diagnose with None -> None | Some f -> f ~round
          in
          verdict := Some (Stalled { round; last_progress = !last; detail });
          true
        end
        else false);
    at_end = (fun () -> ());
    status = (fun () -> Option.value !verdict ~default:Pass);
  }

let progress ?budget ?diagnose () =
  progress_monitor ~name:"liveness-progress" ~count_delivers:true ?budget
    ?diagnose ()

let completion_progress ?budget ?diagnose () =
  progress_monitor ~name:"liveness-completion-progress" ~count_delivers:false
    ?budget ?diagnose ()

let completes ~expected =
  let count = ref 0 in
  let missing = ref 0 in
  {
    mon_name = "liveness-completion";
    mon_kind = Liveness;
    deliver = nop_deliver;
    complete = (fun ~round:_ ~node:_ _ -> incr count);
    round_end = nop_round_end;
    at_end = (fun () -> missing := max 0 (expected - !count));
    status =
      (fun () ->
        if !missing = 0 then Pass
        else
          Violated
            (Printf.sprintf "%d of %d operations never completed" !missing
               expected));
  }

let tap monitors =
  {
    Engine.no_tap with
    passive = false;
    on_deliver =
      (fun ~round ~src ~dst ->
        List.iter (fun m -> m.deliver ~round ~src ~dst) monitors);
    on_complete =
      (fun ~round ~node ~value ->
        List.iter (fun m -> m.complete ~round ~node value) monitors);
    on_round_end =
      (fun ~round ~in_flight ->
        let halt =
          List.fold_left
            (fun acc m -> if m.round_end ~round ~in_flight then true else acc)
            false monitors
        in
        if halt then `Halt else `Continue);
  }

let finalise monitors =
  List.map
    (fun m ->
      m.at_end ();
      { name = m.mon_name; kind = m.mon_kind; status = m.status () })
    monitors

let ok (o : outcome) = o.status = Pass

let all_pass report = List.for_all ok report

let safety_ok report = List.for_all (fun o -> o.kind = Liveness || ok o) report

let liveness_ok report = List.for_all (fun o -> o.kind = Safety || ok o) report

let stalled report =
  List.exists
    (fun (o : outcome) ->
      match o.status with Stalled _ -> true | _ -> false)
    report

let pp_outcome ppf o =
  let k = match o.kind with Safety -> "safety" | Liveness -> "liveness" in
  match o.status with
  | Pass -> Format.fprintf ppf "%s [%s]: pass" o.name k
  | Violated m -> Format.fprintf ppf "%s [%s]: VIOLATED - %s" o.name k m
  | Stalled { round; last_progress; detail } ->
      Format.fprintf ppf "%s [%s]: STALLED at round %d (no progress since %d)%s"
        o.name k round last_progress
        (match detail with None -> "" | Some d -> " - " ^ d)

let pp_report ppf report =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_outcome ppf report
