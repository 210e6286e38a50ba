(* Causal operation spans. See span.mli. *)

type hop = {
  h_src : int;
  h_dst : int;
  queued_round : int;
  delivered_round : int;
}

type t = {
  op : int;
  inject_round : int;
  hops : hop list;
  completion_round : int option;
}

let hop_wait h = h.delivered_round - h.queued_round - 1

let delay s =
  Option.map (fun c -> c - s.inject_round) s.completion_round

(* Mutable per-operation accumulator; hops collect in reverse. *)
type acc = {
  a_inject : int;
  mutable a_hops : hop list;
  mutable a_completion : int option;
}

let tap ?(injects = []) ~op_of_msg ~op_of_completion () =
  let spans : (int, acc) Hashtbl.t = Hashtbl.create 64 in
  (* FIFO of queued rounds per (op, src, dst): the k-th delivery of an
     op's messages on a link matches the k-th send. *)
  let pending : (int * int * int, int Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let get op round =
    match Hashtbl.find_opt spans op with
    | Some a -> a
    | None ->
        let a = { a_inject = round; a_hops = []; a_completion = None } in
        Hashtbl.add spans op a;
        a
  in
  List.iter (fun (op, round) -> ignore (get op round)) injects;
  let on_enqueue ~round ~src ~dst msg =
    match op_of_msg msg with
    | None -> ()
    | Some op ->
        ignore (get op round);
        let key = (op, src, dst) in
        let q =
          match Hashtbl.find_opt pending key with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add pending key q;
              q
        in
        Queue.push round q
  in
  let on_deliver ~round ~src ~dst msg =
    match op_of_msg msg with
    | None -> ()
    | Some op ->
        let a = get op round in
        let queued =
          match Hashtbl.find_opt pending (op, src, dst) with
          | Some q when not (Queue.is_empty q) -> Queue.pop q
          | _ ->
              (* No matching send: a fault-injected duplicate. Charge a
                 plain one-round transit (zero wait). *)
              round - 1
        in
        a.a_hops <-
          { h_src = src; h_dst = dst; queued_round = queued; delivered_round = round }
          :: a.a_hops
  in
  let on_complete ~round ~node:_ ~value =
    match op_of_completion value with
    | None -> ()
    | Some op ->
        let a = get op round in
        if a.a_completion = None then a.a_completion <- Some round
  in
  let snapshot () =
    Hashtbl.fold
      (fun op (a : acc) l ->
        {
          op;
          inject_round = a.a_inject;
          hops = List.rev a.a_hops;
          completion_round = a.a_completion;
        }
        :: l)
      spans []
    |> List.sort (fun s1 s2 -> compare s1.op s2.op)
  in
  ({ Engine.no_tap with on_enqueue; on_deliver; on_complete }, snapshot)

let to_jsonl spans =
  let module J = Countq_util.Json in
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      let hops =
        J.Arr
          (List.map
             (fun h ->
               J.Obj
                 [
                   ("src", J.Int h.h_src);
                   ("dst", J.Int h.h_dst);
                   ("queued", J.Int h.queued_round);
                   ("delivered", J.Int h.delivered_round);
                   ("wait", J.Int (hop_wait h));
                 ])
             s.hops)
      in
      let fields =
        [ ("type", J.Str "span"); ("op", J.Int s.op);
          ("inject", J.Int s.inject_round) ]
        @ (match s.completion_round with
          | Some c ->
              [ ("complete", J.Int c);
                ("delay", J.Int (c - s.inject_round)) ]
          | None -> [])
        @ [ ("hops", hops) ]
      in
      Buffer.add_string buf (J.to_string (J.Obj fields));
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

let pp ppf s =
  let worst = List.fold_left (fun acc h -> max acc (hop_wait h)) 0 s.hops in
  match s.completion_round with
  | Some c ->
      Format.fprintf ppf "op %d: t=%d -> t=%d (delay %d, %d hops, worst wait %d)"
        s.op s.inject_round c (c - s.inject_round) (List.length s.hops) worst
  | None ->
      Format.fprintf ppf "op %d: t=%d -> incomplete (%d hops, worst wait %d)"
        s.op s.inject_round (List.length s.hops) worst
