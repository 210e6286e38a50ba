(* Deterministic fault plans for the simulation engines. See faults.mli. *)

module Rng = Countq_util.Rng

type decision = Deliver | Drop | Duplicate | Delay of int

type crash = { node : int; at_round : int; recover_at : int option }

type profile = {
  drop : float;
  duplicate : float;
  delay : float;
  delay_max : int;
  seed : int64;
}

type rule =
  | Nothing
  | Random of profile
  | Nth of { index : int; what : decision }
  | Oracle of (src:int -> dst:int -> round:int -> index:int -> decision)

type plan = { plan_label : string; rule : rule; plan_crashes : crash list }

let none = { plan_label = "none"; rule = Nothing; plan_crashes = [] }

let is_none p = p.rule = Nothing && p.plan_crashes = []

let label p = p.plan_label
let crashes p = p.plan_crashes

let check_prob name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults.random: %s must be in [0, 1]" name)

let check_crashes cs =
  List.iter
    (fun c ->
      if c.node < 0 then invalid_arg "Faults: crash node must be >= 0";
      if c.at_round < 0 then invalid_arg "Faults: crash round must be >= 0";
      match c.recover_at with
      | Some r when r <= c.at_round ->
          invalid_arg "Faults: recovery must come after the crash"
      | _ -> ())
    cs

let random ~label ~seed ?(drop = 0.) ?(duplicate = 0.) ?(delay = 0.)
    ?(delay_max = 5) ?(crashes = []) () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "delay" delay;
  if delay_max < 1 then invalid_arg "Faults.random: delay_max must be >= 1";
  check_crashes crashes;
  {
    plan_label = label;
    rule = Random { drop; duplicate; delay; delay_max; seed };
    plan_crashes = crashes;
  }

let nth_plan what default_label label index =
  if index < 0 then invalid_arg "Faults: transmission index must be >= 0";
  {
    plan_label = Option.value label ~default:default_label;
    rule = Nth { index; what };
    plan_crashes = [];
  }

let drop_nth ?label i = nth_plan Drop (Printf.sprintf "drop-%d" i) label i

let dup_nth ?label i = nth_plan Duplicate (Printf.sprintf "dup-%d" i) label i

let delay_nth ?label ~by i =
  if by < 1 then invalid_arg "Faults.delay_nth: delay must be >= 1";
  nth_plan (Delay by) (Printf.sprintf "delay-%d-by-%d" i by) label i

let crash_only ~label cs =
  check_crashes cs;
  { plan_label = label; rule = Nothing; plan_crashes = cs }

let oracle ~label ?(crashes = []) f =
  check_crashes crashes;
  { plan_label = label; rule = Oracle f; plan_crashes = crashes }

let registry_seed = 0xfa117_5eedL

let named =
  [
    ("none", none);
    ("drop-first", drop_nth ~label:"drop-first" 0);
    ("lossy", random ~label:"lossy" ~seed:registry_seed ~drop:0.05 ());
    ("very-lossy", random ~label:"very-lossy" ~seed:registry_seed ~drop:0.2 ());
    ("dup", random ~label:"dup" ~seed:registry_seed ~duplicate:0.1 ());
    ( "jitter",
      random ~label:"jitter" ~seed:registry_seed ~delay:0.3 ~delay_max:5 () );
    ( "chaos",
      random ~label:"chaos" ~seed:registry_seed ~drop:0.05 ~duplicate:0.05
        ~delay:0.2 ~delay_max:5 () );
    ( "crash-root",
      crash_only ~label:"crash-root"
        [ { node = 0; at_round = 3; recover_at = None } ] );
    ( "crash-restart",
      crash_only ~label:"crash-restart"
        [ { node = 0; at_round = 3; recover_at = Some 40 } ] );
  ]

let find name =
  let name = String.lowercase_ascii (String.trim name) in
  List.assoc_opt name named

type stats = {
  transmissions : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_dropped : int;
}

let no_stats =
  { transmissions = 0; dropped = 0; duplicated = 0; delayed = 0; crash_dropped = 0 }

type runtime = {
  rt_plan : plan;
  rng : Rng.t option;  (** only for [Random] rules. *)
  mutable index : int;
  mutable s : stats;
}

let start p =
  let rng =
    match p.rule with Random { seed; _ } -> Some (Rng.create seed) | _ -> None
  in
  { rt_plan = p; rng; index = 0; s = no_stats }

let plan rt = rt.rt_plan

let decide rt ~src ~dst ~round =
  let index = rt.index in
  rt.index <- index + 1;
  let d =
    match rt.rt_plan.rule with
    | Nothing -> Deliver
    | Nth { index = i; what } -> if index = i then what else Deliver
    | Oracle f -> f ~src ~dst ~round ~index
    | Random { drop; duplicate; delay; delay_max; _ } ->
        (* One fixed number of draws per transmission, so the stream
           position is independent of earlier outcomes. *)
        let rng = Option.get rt.rng in
        let u = Rng.float rng in
        let spike = 1 + Rng.below rng delay_max in
        if u < drop then Drop
        else if u < drop +. duplicate then Duplicate
        else if u < drop +. duplicate +. delay then Delay spike
        else Deliver
  in
  let d = match d with Delay k when k < 1 -> Deliver | d -> d in
  rt.s <-
    (let s = { rt.s with transmissions = rt.s.transmissions + 1 } in
     match d with
     | Deliver -> s
     | Drop -> { s with dropped = s.dropped + 1 }
     | Duplicate -> { s with duplicated = s.duplicated + 1 }
     | Delay _ -> { s with delayed = s.delayed + 1 });
  d

let crashed rt ~node ~round =
  List.exists
    (fun c ->
      c.node = node && round >= c.at_round
      && match c.recover_at with None -> true | Some r -> round < r)
    rt.rt_plan.plan_crashes

let crashed_for_good rt ~node ~round =
  List.exists
    (fun c -> c.node = node && round >= c.at_round && c.recover_at = None)
    rt.rt_plan.plan_crashes

let note_crash_drop rt =
  rt.s <- { rt.s with crash_dropped = rt.s.crash_dropped + 1 }

let stats rt = rt.s

let pp_stats ppf s =
  Format.fprintf ppf
    "%d transmissions: %d dropped, %d duplicated, %d delayed, %d lost to crashes"
    s.transmissions s.dropped s.duplicated s.delayed s.crash_dropped
