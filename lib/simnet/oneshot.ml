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

let run i = Engine.run ~graph:i.graph ~config:i.config ~protocol:i.protocol ()

type 'r report = {
  result : 'r Engine.result;
  injected : Faults.stats;
  monitors : Monitor.report;
  retry : Reliable.stats option;
}

let faulty ?(retry = false) ?ack_timeout ?max_retries ?progress_budget ?dynamic
    ?tap ?diagnose ~plan i =
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
  let tap =
    let m = Monitor.tap monitors in
    match tap with Some t -> Engine.both m t | None -> m
  in
  let faults = Faults.start plan in
  let go protocol =
    Engine.run ~faults ?dynamic ~tap ~graph:i.graph ~config:i.config
      ~protocol ()
  in
  let result, retry =
    if retry then begin
      let protocol, h = Reliable.wrap ?ack_timeout ?max_retries i.protocol in
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

let observed ?plan ~metrics i =
  let protocol, spans =
    Span.instrument ~injects:i.spec.injects ~op_of_msg:i.op_of_msg
      ~op_of_completion:i.spec.op_of_completion i.protocol
  in
  let faults = Option.map Faults.start plan in
  let result =
    Engine.run ?faults ~tap:(Metrics.tap metrics) ~graph:i.graph ~config:i.config
      ~protocol ()
  in
  (result, spans (), Option.map Faults.stats faults)

let traced i =
  let protocol, events = Trace.instrument i.protocol in
  let result = Engine.run ~graph:i.graph ~config:i.config ~protocol () in
  (result, events ())

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
