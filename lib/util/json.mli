(** A minimal JSON tree, printer and parser.

    The repository deliberately carries no third-party JSON dependency;
    this module is the small shared core the observability layer needs
    to {e round-trip} structured exports — spans, metrics and trace
    events written as JSONL must parse back bit-for-bit so the golden
    tests and the [Trace.of_jsonl] importer can rely on them. It covers
    exactly the JSON subset those emitters produce: objects, arrays,
    strings, integers, floats, booleans and null, with full string
    escaping. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** field order is preserved. *)

val to_string : t -> string
(** Compact (single-line) rendering — one JSONL record per value.
    Integers print without a decimal point, so an [Int] round-trips as
    an [Int]; non-finite floats print as [null] (JSON has no NaN). *)

val of_string : string -> (t, string) result
(** Parse one JSON value (leading/trailing whitespace allowed). Numbers
    without [.], [e] or [E] parse as [Int]; anything unparseable
    returns [Error] with a position-tagged message. [\uXXXX] escapes
    decode to UTF-8 for the whole Unicode range — surrogate pairs
    combine into one code point; an unpaired surrogate is an error. *)

(** {1 Accessors} — tiny helpers for the importers. *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] (or an integral [Float]) as [n]. *)

val to_str : t -> string option
val to_list : t -> t list option
