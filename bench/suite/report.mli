(** From reps to metrics: what a rep reports, how reps of one workload
    become medians and a correctness verdict, the result line, and the
    result files that [--compare] reads. *)

type rep = {
  workload : string;
  rep : int;
  traced : bool;
  setup_s : float;  (** median set-up time within the rep. *)
  wall_s : float;  (** the measured calls, set-up excluded. *)
  ops : int;  (** operations completed by the measured calls. *)
  attempted : int;
  failed : int;
  peak_rss_mb : float option;  (** [None] where it cannot be read. *)
  sim : (string * float) list;
      (** the workload's {!Registry.simulated} metrics, in declared order. *)
  fingerprint : string;
      (** every deterministic output of the rep, for rep-to-rep identity. *)
  layers : (string * float) list;  (** per-layer values; traced reps only. *)
  self_times : Trace.layer_time list;  (** traced reps only. *)
  spans : Countq_util.Json.t list;  (** traced reps only. *)
  errors : string list;  (** failed correctness checks. *)
}

val rep_to_json : rep -> Countq_util.Json.t
val rep_of_json : Countq_util.Json.t -> (rep, string) result

type workload_result = {
  name : string;
  reps : rep list;  (** untraced. *)
  traced_rep : rep option;
  errors : string list;  (** reps that crashed or printed no record. *)
}

val samples : workload_result -> (Registry.metric * float list) list
(** Every {!Registry.end_to_end} metric with its per-rep values (NaN
    where a rep could not measure it). *)

val e2e_medians : workload_result -> (Registry.metric * float) list
(** Medians of {!samples}; a metric with an unusable sample is left out
    rather than reported as 0. *)

val check : workload_result -> string list
(** Everything wrong with the result: rep errors, a rep with no
    completed operation, simulated metrics other than the workload
    declares, undeclared per-layer names, and simulated outputs that
    differ between reps. [[]] when correct. *)

val overhead_pct : workload_result -> float option
(** Traced wall time over the untraced median, minus one, in percent. *)

val layer_values : workload_result -> (Registry.metric * float) list
(** Every {!Registry.per_layer} metric from the traced rep, 0 for a
    layer the workload does not call; [[]] without a traced rep. *)

val totals : workload_result list -> int * int
(** Attempted and failed operations over every rep. *)

val result_line :
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * Registry.metric * float) list ->
  Countq_util.Json.t
(** The run's final line: [{"correct", "attempted", "failed",
    "metrics": {key: {"value", "unit"}}}], skipping non-finite values. *)

val results_json :
  seed:int -> cores:int -> workload_result list -> Countq_util.Json.t
(** A [countq-bench-suite/1] result file: per workload, the raw
    end-to-end samples, the simulated metrics and the per-layer values. *)

type saved = {
  s_name : string;
  s_samples : (string * float list) list;
  s_sim : (string * float) list;
}

val read_results : string -> (saved list, string) result

type row = {
  r_workload : string;
  r_metric : string;
  base : float option;  (** median, or the simulated value. *)
  cand : float option;
  verdict : string;
  fails : bool;
}

val compare_results : saved list -> saved list -> row list
(** One row per (workload, end-to-end metric) with its
    {!Sample.verdict} under the registry's bounds, plus one row per
    simulated metric whose value changed (a rise in [failed_pct] is
    called out). [fails] marks worse, unusable, changed and missing. *)
