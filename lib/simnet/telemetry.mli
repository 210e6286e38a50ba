(** Windowed time-series telemetry and exemplar-span reservoirs —
    bounded-memory observability for long-horizon runs.

    {!Metrics} answers {e where} the traffic went (per node, per
    edge); a [Telemetry.t] answers {e when}: it folds every engine
    event into a ring of fixed-width round windows (throughput,
    completions, injections, in-flight, backlog and drops per
    window), so memory is [O(windows)] no matter how long the run
    is — the horizon-scaling companion to the PR 3 recorders, and the
    data behind [countq timeline]'s sparklines.

    Like [Metrics], the recorder's {!tap} is passive (see
    {!Engine.tap}): a run with it attached is bit-identical to the same
    run without, and the engines' idle-gap fast-forward stays on —
    jumped-over windows simply stay zero. Recording is one integer
    division plus a field increment per event; the Bechamel probes
    [kernel:arrow-one-shot-256+tap] and [kernel:engine-idle-rounds+tap]
    in [bench/main.ml] measure what a passive tap costs.

    The ring keeps the {e latest} [windows] windows; older ones fall
    off ({!evicted} counts them). Rounds must arrive non-decreasing —
    both engines guarantee this.

    {!Reservoir} is the other half of the bounded-memory story: keep
    [K] exemplar spans (first seen, slowest, uniform random) instead
    of all of them, so [countq observe] / [load] keep their span
    tables at any horizon. *)

type t

val create : ?windows:int -> window_size:int -> unit -> t
(** Fresh recorder: a ring of [windows] (default 64) windows, each
    covering [window_size] consecutive rounds (window [i] spans rounds
    [[i * window_size, (i+1) * window_size)]).
    @raise Invalid_argument if [window_size < 1] or [windows < 1]. *)

val window_size : t -> int

val tap : t -> 'r Engine.tap
(** The passive tap that records into [t]: transmissions (as sends),
    deliveries, completions, injections, drops (fault drops, severed
    links and crash or churn drops), the per-window peak link backlog
    and the per-window peak of the in-flight count at round ends. *)

(** {1 Snapshots} *)

type window = {
  w_index : int;  (** window number ([w_start = w_index * window_size]). *)
  w_start : int;  (** first round covered. *)
  w_len : int;  (** rounds covered (= [window_size]). *)
  sends : int;
  deliveries : int;
  completions : int;
  injections : int;
  drops : int;
  max_backlog : int;  (** peak single-link backlog seen in the window. *)
  max_in_flight : int;  (** peak round-end in-flight in the window. *)
}

val windows : t -> window list
(** Live windows in ascending order — the contiguous range from the
    oldest still in the ring to the newest touched, including
    all-zero windows the run fast-forwarded over. [[]] before any
    event. *)

val evicted : t -> int
(** Windows that have fallen off the ring. *)

val to_jsonl : t -> string
(** One [{"type":"window", …}] object per live window, ascending —
    fields as in {!window}. Each line parses with
    {!Countq_util.Json.of_string}. *)

val sparkline : float array -> string
(** One block glyph per value ([▁▂▃▄▅▆▇█]), scaled to the array's
    maximum; all-zero input renders as all-[▁]. For the [countq
    timeline] rendering. *)

(** {1 Exemplar spans} *)

module Reservoir : sig
  type 'a res
  (** A bounded-memory sample of a span stream. The element type is
      abstract (usually {!Span.t}; the streaming [Load] path uses bare
      op descriptors) — the caller passes each element's delay at
      {!note} time, so this module stays independent of the span
      representation. *)

  val create :
    ?first:int -> ?slowest:int -> ?sample:int -> seed:int64 -> unit -> 'a res
  (** Keep up to [first] (default 4) earliest-noted elements, [slowest]
      (default 8) completed elements of largest delay, and a [sample]
      (default 8) uniform reservoir (Vitter's algorithm R) over all
      noted elements. [seed] drives the reservoir's deterministic RNG. *)

  val note : 'a res -> delay:int option -> 'a -> unit
  (** Record one element (streaming; O(1) memory). [delay = None]
      marks it stranded (injected, never completed): it is counted,
      still eligible for the first/sample policies, but never for
      [slowest]. *)

  val seen : 'a res -> int
  (** Elements noted so far. *)

  val completed : 'a res -> int

  val stranded : 'a res -> int
  (** Elements noted without a completion (delay [None]). *)

  val exemplars : 'a res -> (string * 'a) list
  (** The retained elements, tagged ["first"] (in arrival order),
      ["slowest"] (largest delay first), ["sample"] (reservoir, no
      meaningful order). An element retained by several policies
      appears once per policy. *)
end
