(** Content-addressed on-disk result cache for sweep points.

    Storage is one append-only JSONL file per namespace (one namespace
    per experiment) under a cache directory — [bench/out/cache/] by
    default at the call sites. Each line is
    [{"schema": "countq-cache/1", "key": <hex>, "spec": <point name>,
    "value": <result>}]; the [key] is a fingerprint of everything that
    determines the result (sweep schema version, experiment, seed,
    engine-config tag, point name — {!Sweep} assembles it), so a code
    or config change that alters semantics changes the key and old
    entries simply stop matching. Corrupted lines (unparseable, or
    missing fields) are skipped at load and recomputed; a syntactically
    valid but mis-shaped value is rejected by the caller's [valid]
    check and recomputed too. [countq experiments] additionally
    spot-checks one random cached point per experiment against a fresh
    recompute every run, so the cache can never silently serve wrong
    tables. *)

val fingerprint : string -> string
(** 64-bit FNV-1a of the string, as 16 hex digits — the content
    address. *)

val seed_of : string -> int64
(** The same hash as a raw [int64] — used to derive independent
    per-point RNG seeds from point names. *)

type t
(** A handle on one cache directory, with hit/miss accounting.
    Namespaces load lazily on first access. Lookups and stores are for
    the coordinating thread only (the sweep runner looks up before
    dispatching to the pool and stores after joining it). *)

val create : dir:string -> t
(** [create ~dir] opens (without touching the filesystem yet) the
    cache rooted at [dir]. The directory is created on first store. *)

val dir : t -> string

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (a no-op when
    [dir] exists).
    @raise Sys_error if a component cannot be created. *)

val find :
  t -> ?valid:(Countq_util.Json.t -> bool) -> ns:string -> key:string ->
  unit -> Countq_util.Json.t option
(** Look up a key. A stored value failing [valid] (default: accept) is
    dropped and reported as a miss, so shape-corrupted entries fall
    back to recomputation. Updates the hit/miss counters. *)

val store :
  t -> ns:string -> key:string -> spec:string -> Countq_util.Json.t -> unit
(** Append one entry ([spec] is the human-readable point name, stored
    for debuggability only) and add it to the in-memory table. *)

val hits : t -> int
val misses : t -> int
(** Cumulative accounting across every namespace since [create]. *)

(** {1 Directory-level maintenance} (the [countq cache] subcommand) *)

type summary = {
  namespaces : (string * int) list;  (** per-namespace entry counts. *)
  entries : int;
  bytes : int;
}

val summarize : dir:string -> summary
val clear : dir:string -> int
(** Delete every cache file under [dir]; returns how many were
    removed. *)
