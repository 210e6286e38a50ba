(** A classic binary min-heap on ordered keys, used by the
    discrete-event (asynchronous) simulator's event queue.

    Ties are broken by insertion order (FIFO among equal keys), which
    the asynchronous engine relies on to keep per-link FIFO delivery
    deterministic. *)

type ('k, 'v) t
(** A mutable min-heap with keys of type ['k] (compared with
    [Stdlib.compare]) and payloads of type ['v]. *)

val create : unit -> ('k, 'v) t

val size : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

val push : ('k, 'v) t -> 'k -> 'v -> unit

val peek : ('k, 'v) t -> ('k * 'v) option
(** Smallest key (earliest inserted among equals), without removing. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return what {!peek} returns. *)

val pop_exn : ('k, 'v) t -> 'k * 'v
(** @raise Not_found on an empty heap. *)

val iter_upto : ('k, 'v) t -> 'k -> ('k -> 'v -> unit) -> unit
(** [iter_upto h bound f] applies [f], in no set order, to every entry
    whose key is at most [bound]. *)
