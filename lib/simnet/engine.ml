(* Synchronous simulator for the Section 2.1 model. See engine.mli.

   The types live in Kernel (so the kernel can be written against them)
   and are re-exported here under their documented names; [run] is the
   materialised-graph entry point into Kernel.run — one shard, every
   node started at time 0, so slots are pre-assigned (slot = node) and
   Graph.neighbors is aliased zero-copy. *)

module Graph = Countq_topology.Graph

type arbiter = Kernel.arbiter =
  | Round_robin
  | Lowest_sender_first
  | Custom of (round:int -> node:int -> candidates:int list -> int)

type config = Kernel.config = {
  receive_capacity : int;
  send_capacity : int;
  arbiter : arbiter;
  max_rounds : int;
}

let default_config =
  {
    receive_capacity = 1;
    send_capacity = 1;
    arbiter = Round_robin;
    max_rounds = 10_000_000;
  }

let config_with_capacity c =
  if c < 1 then invalid_arg "Engine.config_with_capacity: c must be >= 1";
  { default_config with receive_capacity = c; send_capacity = c }

type ('m, 'r) action = ('m, 'r) Kernel.action =
  | Send of int * 'm
  | Complete of 'r
  | Wake of int

type ('s, 'm, 'r) protocol = ('s, 'm, 'r) Kernel.protocol = {
  name : string;
  initial_state : int -> 's;
  on_start : node:int -> 's -> 's * ('m, 'r) action list;
  on_receive :
    round:int -> node:int -> src:int -> 'm -> 's -> 's * ('m, 'r) action list;
  on_wake : round:int -> node:int -> 's -> 's * ('m, 'r) action list;
}

let no_wake = Kernel.no_wake
let wake_next = function r :: _ -> [ Wake r ] | [] -> []

type inner_wakes = int list ref  (* ascending *)

let note_wake w r = w := List.merge Int.compare [ r ] !w

let forward_wake w (p : _ protocol) ~round ~node s =
  match !w with
  | r :: _ when r <= round ->
      w := List.filter (fun r -> r > round) !w;
      p.on_wake ~round ~node s
  | _ -> (s, [])

type 'r completion = 'r Kernel.completion = { node : int; round : int; value : 'r }

type 'r result = 'r Kernel.result = {
  completions : 'r completion list;
  rounds : int;
  messages : int;
  max_link_backlog : int;
  expansion : int;
}

exception Not_a_neighbor = Kernel.Not_a_neighbor
exception Round_limit_exceeded = Kernel.Round_limit_exceeded

type 'r tap = 'r Kernel.tap = {
  passive : bool;
  on_transmit : round:int -> src:int -> dst:int -> unit;
  on_backlog : round:int -> node:int -> backlog:int -> unit;
  on_deliver : round:int -> src:int -> dst:int -> unit;
  on_complete : round:int -> node:int -> value:'r -> unit;
  on_inject : round:int -> node:int -> unit;
  on_drop : round:int -> src:int -> dst:int -> unit;
  on_duplicate : round:int -> src:int -> dst:int -> unit;
  on_delay : round:int -> src:int -> dst:int -> unit;
  on_down_drop : round:int -> src:int -> dst:int -> unit;
  on_round_end : round:int -> in_flight:int -> [ `Continue | `Halt ];
}

let no_tap = Kernel.no_tap
let both = Kernel.both
let top_loaded = Kernel.top_loaded
let top_loaded_pairs = Kernel.top_loaded_pairs

let total_delay res =
  List.fold_left (fun acc (c : _ completion) -> acc + c.round) 0 res.completions

let max_delay res =
  List.fold_left (fun acc (c : _ completion) -> max acc c.round) 0 res.completions

let completion_count res = List.length res.completions

let run ?faults ?dynamic ?tap ~graph ~config ~protocol () =
  Kernel.run ~who:"Engine.run" ?faults ?dynamic ?tap ~n:(Graph.n graph) ~degree:(Graph.degree graph)
    ~neighbors:(Graph.neighbors graph) ~config ~protocol ()
