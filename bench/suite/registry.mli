(** The suite's single table of workloads and metrics; [BENCHMARK.json]
    at the repository root declares the same names, units, directions
    and bounds, and a unit test keeps the two in step. *)

type metric = {
  name : string;
  unit : string;
  better : Sample.better;
  bound : float;
      (** end-to-end only: the share of the base median by which the
          metric may get worse before it counts as a regression. *)
  floor : float;
      (** end-to-end only: an absolute allowance in the metric's unit
          that applies when it exceeds [bound] times the base median. *)
}

type workload = {
  wname : string;
  why : string;
  reps : int;  (** untraced reps in a full suite run. *)
  simulated : string list;
      (** the {!simulated} metrics this workload reports. *)
}

val workloads : workload list

val end_to_end : metric list
(** Host-side metrics every workload reports: [setup_s], [wall_s],
    [ops_per_s], [peak_rss_mb]. *)

val simulated : metric list
(** Outputs of the simulation itself — messages and delays per
    operation, failure share. Deterministic for a given seed, so they
    must not change at all; reported only where a workload defines them
    (see {!workload.simulated}). *)

val per_layer : metric list
(** Metrics of single layers, taken from the traced rep. *)

val explore_protocols : string list
(** The protocols the [check] workload model-checks, as they appear in
    [explore.<protocol>_s]. *)

val run_protocols : string list
(** The protocols the [paper-sweep] workload runs, as they appear in
    [run.<protocol>_s] and [run.<protocol>_msgs]. *)

val find_workload : string -> workload option
val find : string -> metric list -> metric option
