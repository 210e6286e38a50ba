(** Spans recorded by the benchmark around its calls into each layer's
    public functions, kept in memory and written out when the run ends.

    Tracing is off until {!enable}; while off, {!span}, {!note} and
    {!tally} only call through, so untraced reps measure the program
    alone. Spans are recorded on the calling domain only. *)

type tally = {
  cb : string;
  cb_layer : string;
  calls : int;
  cb_s : float;  (** total seconds inside the callback. *)
}
(** A high-frequency callback, aggregated on its parent span as a call
    count and a total time instead of one span per call. *)

type span = {
  id : int;
  parent : int option;
  name : string;  (** the public function called, e.g. ["Load.run"]. *)
  layer : string;  (** the module layer it belongs to, e.g. ["core.load"]. *)
  start_ns : int64;  (** {!Probe.now_ns} at entry. *)
  end_ns : int64;
  attrs : (string * Countq_util.Json.t) list;
      (** result counts noted during the call, then the GC deltas
          ([gc.minor_words], [gc.major_words], [gc.major_collections]). *)
  tallies : tally list;
}

val enable : unit -> unit
(** Start recording (and forget earlier spans). *)

val span : layer:string -> string -> (unit -> 'a) -> 'a
(** [span ~layer name f] runs [f] inside a span whose parent is the
    innermost open one. *)

val note : (string * Countq_util.Json.t) list -> unit
(** Attach attributes to the innermost open span. *)

val tally : layer:string -> string -> (unit -> 'a) -> 'a
(** Run a callback and add its time to the innermost open span's tally
    of that name. *)

val spans : unit -> span list
(** Closed spans, in closing order. *)

val duration : span -> float

val tallied : span list -> name:string -> int * float
(** Total calls and seconds of the named tally across spans. *)

type layer_time = { layer : string; count : int; total_s : float; self_s : float }

val self_times : span list -> layer_time list
(** Per layer, in first-seen order: spans (or tallied calls), total
    time, and self time — each span's duration minus what its child
    spans and tallied callbacks cover. *)

val to_json : workload:string -> rep:int -> span -> Countq_util.Json.t
(** One [countq-bench-trace/1] span record. *)
