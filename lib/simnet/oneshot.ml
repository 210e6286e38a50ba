(* One-shot instances and their drivers. See oneshot.mli. *)

type 'r spec = {
  expected : int;
  injects : (int * int) list;
  op_of_completion : 'r -> int option;
  check : 'r Engine.completion list -> (unit, string) result;
  monitors : unit -> 'r Monitor.t list;
}

type ('s, 'm, 'r) t = {
  graph : Countq_topology.Graph.t;
  config : Engine.config;
  protocol : ('s, 'm, 'r) Engine.protocol;
  spec : 'r spec;
  op_of_msg : 'm -> int option;
}

let run ?faults ?tap i =
  Engine.run ?faults ?tap ~graph:i.graph ~config:i.config ~protocol:i.protocol ()

type 'r report = {
  result : 'r Engine.result;
  injected : Faults.stats;
  monitors : Monitor.report;
  retry : Reliable.stats option;
}

let faulty ?(retry = false) ?ack_timeout ?max_retries ?next_hop ?progress_budget
    ?dynamic ?tap ?diagnose ~plan i =
  let budget =
    match progress_budget with
    | Some b -> b
    | None -> Reliable.progress_budget ?ack_timeout ?max_retries ()
  in
  let monitors =
    i.spec.monitors ()
    @ [
        Monitor.completes ~expected:i.spec.expected;
        Monitor.progress ~budget ?diagnose ();
      ]
  in
  (* Built per run: with [retry] the messages are Reliable's
     envelopes, which the caller's tap is never shown. *)
  let tap () =
    let m = Monitor.tap monitors in
    match tap with
    | None -> m
    | Some (t : (unit, _) Engine.tap) ->
        Engine.both m
          {
            t with
            on_enqueue = (fun ~round ~src ~dst _ -> t.on_enqueue ~round ~src ~dst ());
            on_deliver = (fun ~round ~src ~dst _ -> t.on_deliver ~round ~src ~dst ());
          }
  in
  let faults = Faults.start plan in
  let go protocol =
    Engine.run ~faults ?dynamic ~tap:(tap ()) ~graph:i.graph ~config:i.config
      ~protocol ()
  in
  let result, retry =
    if retry then begin
      let protocol, h = Reliable.wrap ?ack_timeout ?max_retries ?next_hop i.protocol in
      let result = go protocol in
      (result, Some (Reliable.stats h))
    end
    else (go i.protocol, None)
  in
  {
    result;
    injected = Faults.stats faults;
    monitors = Monitor.finalise monitors;
    retry;
  }

let async ?(delay = Async.Constant 1) i =
  let r = Async.run ~graph:i.graph ~delay ~protocol:i.protocol () in
  {
    Engine.completions = r.completions;
    rounds = r.finish_time;
    messages = r.messages;
    max_link_backlog = 0;
    expansion = 1;
  }

let explore ?max_configs ?pool i =
  Explore.run ~graph:i.graph ~protocol:i.protocol ~check:i.spec.check
    ?max_configs ?pool ()
