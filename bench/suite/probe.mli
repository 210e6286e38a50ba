(** Measurement primitives: one clock, GC deltas, peak memory. *)

val now_ns : unit -> int64
(** Bechamel's monotonic clock ([CLOCK_MONOTONIC], nanoseconds) — never
    [Unix.gettimeofday], which steps when the wall clock is adjusted. *)

val seconds_between : int64 -> int64 -> float

val timed : (unit -> 'a) -> 'a * float
(** The result and the elapsed seconds. *)

type gc = { minor_words : float; major_words : float; major_collections : int }

val gc_now : unit -> gc
(** From [Gc.quick_stat], which does not walk the heap, except the
    minor words: [Gc.minor_words], exact between minor collections. *)

val gc_since : gc -> gc
(** The change since an earlier {!gc_now}. *)

val top_heap_mb : unit -> float
(** The major heap's high-water mark. *)

val peak_rss_mb : unit -> float option
(** This process's peak resident set ([VmHWM] in [/proc/self/status]);
    [None] where that file is missing, so the metric reads as missing
    rather than as 0. *)
