(** Growable [int] vectors.

    The synchronous engine's active-set worklists are [Vec.t]s: the set
    of nodes with a non-empty outbox (resp. pending incoming messages)
    lives in a vector that is sorted in place before each phase and
    compacted with {!set}/{!truncate} as nodes go quiescent. Everything
    here is amortised O(1) and allocation-free on the steady state, so
    per-round cost tracks the number of {e active} nodes, not [n]. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty vector; [capacity] (default 16) pre-sizes the backing array. *)

val length : t -> int
val is_empty : t -> bool

val get : t -> int -> int
(** @raise Invalid_argument out of bounds. *)

val set : t -> int -> int -> unit
(** Overwrite a live slot — the compaction idiom writes survivors back
    over the prefix, then {!truncate}s.
    @raise Invalid_argument out of bounds. *)

val push : t -> int -> unit
(** Append, growing the backing array geometrically when full. *)

val truncate : t -> int -> unit
(** Shrink the live length (the backing array is kept).
    @raise Invalid_argument if the new length exceeds the current one. *)

val clear : t -> unit
(** [truncate t 0]. *)

val sort : t -> unit
(** In-place ascending sort of the live prefix, adaptive to the
    worklist shape: an already-sorted prefix is skipped in O(len); the
    [s]-element suffix after it is insertion-sorted while that costs at
    most a constant number of moves per element, and heapsorted when
    it would cost more, so a suffix whose elements sit at most [d]
    places from where they belong costs O(s · min(d, log s)) and any
    suffix O(s log s); then the two runs are merged from the back.
    The merge buffer is kept in the vector, so once it has grown to
    the largest suffix seen, sorting allocates nothing. *)

val to_list : t -> int list

val iter : (int -> unit) -> t -> unit
