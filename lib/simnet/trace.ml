(* Protocol instrumentation and ASCII timelines. See trace.mli. *)

type event =
  | Received of { round : int; node : int; src : int }
  | Queued_send of { round : int; node : int; dst : int }
  | Completed of { round : int; node : int }

let event_round = function
  | Received { round; _ } | Queued_send { round; _ } | Completed { round; _ } ->
      round

let event_node = function
  | Received { node; _ } | Queued_send { node; _ } | Completed { node; _ } ->
      node

let instrument (p : _ Engine.protocol) =
  let log = ref [] in
  let record e = log := e :: !log in
  let record_actions round node actions =
    List.iter
      (fun action ->
        match action with
        | Engine.Send (dst, _) -> record (Queued_send { round; node; dst })
        | Engine.Complete _ -> record (Completed { round; node })
        | Engine.Wake _ -> ())
      actions
  in
  let p' =
    {
      p with
      Engine.on_start =
        (fun ~node s ->
          let s, actions = p.Engine.on_start ~node s in
          record_actions 0 node actions;
          (s, actions));
      on_receive =
        (fun ~round ~node ~src msg s ->
          record (Received { round; node; src });
          let s, actions = p.Engine.on_receive ~round ~node ~src msg s in
          record_actions round node actions;
          (s, actions));
      on_wake =
        (fun ~round ~node s ->
          let s, actions = p.Engine.on_wake ~round ~node s in
          record_actions round node actions;
          (s, actions));
    }
  in
  (p', fun () -> List.rev !log)

let render ~n events =
  let horizon =
    List.fold_left (fun acc e -> max acc (event_round e)) 0 events
  in
  let grid = Array.make_matrix n (horizon + 1) '.' in
  let upgrade cell c =
    (* priority: * > + > R > s > . *)
    let rank = function '*' -> 4 | '+' -> 3 | 'R' -> 2 | 's' -> 1 | _ -> 0 in
    if rank c > rank cell then c else cell
  in
  List.iter
    (fun e ->
      let v = event_node e and t = event_round e in
      let c =
        match e with
        | Completed _ -> '*'
        | Received _ -> if grid.(v).(t) = 's' then '+' else 'R'
        | Queued_send _ -> if grid.(v).(t) = 'R' then '+' else 's'
      in
      grid.(v).(t) <- upgrade grid.(v).(t) c)
    events;
  let buf = Buffer.create ((n + 2) * (horizon + 12)) in
  Buffer.add_string buf "      round 0";
  for t = 1 to horizon do
    Buffer.add_char buf (if t mod 10 = 0 then Char.chr (48 + (t / 10 mod 10)) else ' ')
  done;
  Buffer.add_char buf '\n';
  for v = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "node %3d  " v);
    for t = 0 to horizon do
      Buffer.add_char buf grid.(v).(t)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_jsonl events =
  let module J = Countq_util.Json in
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let obj =
        match e with
        | Received { round; node; src } ->
            J.Obj
              [ ("type", J.Str "recv"); ("round", J.Int round);
                ("node", J.Int node); ("src", J.Int src) ]
        | Queued_send { round; node; dst } ->
            J.Obj
              [ ("type", J.Str "send"); ("round", J.Int round);
                ("node", J.Int node); ("dst", J.Int dst) ]
        | Completed { round; node } ->
            J.Obj
              [ ("type", J.Str "complete"); ("round", J.Int round);
                ("node", J.Int node) ]
      in
      Buffer.add_string buf (J.to_string obj);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let of_jsonl text =
  let module J = Countq_util.Json in
  let parse_line lineno line =
    let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    match J.of_string line with
    | Error e -> fail e
    | Ok j -> (
        let int k =
          match Option.bind (J.member k j) J.to_int with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "line %d: missing int %S" lineno k)
        in
        let ( let* ) = Result.bind in
        match Option.bind (J.member "type" j) J.to_str with
        | Some "recv" ->
            let* round = int "round" in
            let* node = int "node" in
            let* src = int "src" in
            Ok (Received { round; node; src })
        | Some "send" ->
            let* round = int "round" in
            let* node = int "node" in
            let* dst = int "dst" in
            Ok (Queued_send { round; node; dst })
        | Some "complete" ->
            let* round = int "round" in
            let* node = int "node" in
            Ok (Completed { round; node })
        | Some other -> fail (Printf.sprintf "unknown event type %S" other)
        | None -> fail "missing \"type\" field")
  in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else (
          match parse_line lineno line with
          | Ok e -> go (e :: acc) (lineno + 1) rest
          | Error _ as e -> e)
  in
  go [] 1 (String.split_on_char '\n' text)

let pp_event ppf = function
  | Received { round; node; src } ->
      Format.fprintf ppf "t=%d node %d received from %d" round node src
  | Queued_send { round; node; dst } ->
      Format.fprintf ppf "t=%d node %d queued a send to %d" round node dst
  | Completed { round; node } ->
      Format.fprintf ppf "t=%d node %d completed" round node
