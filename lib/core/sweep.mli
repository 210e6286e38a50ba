(** Domain-parallel sweep runner with a content-addressed result cache.

    An experiment's grid becomes a list of named {e points} — pure
    functions from a derived RNG to a JSON value — and [run] evaluates
    them across the shared domain pool, consulting (and feeding) the
    on-disk {!Cache} keyed by content.

    {b Determinism.} Each point's RNG is seeded from
    [sweep seed XOR hash(experiment ^ point name)], never from
    evaluation order, so [run] at [jobs = k] is bit-identical to
    [jobs = 1] and a cache hit is bit-identical to a recompute. The
    contract this rests on: a point's name must encode {e every} input
    of its computation (sizes, rates, horizons, densities), and its
    body must depend on nothing but the name-derived inputs and the
    provided RNG.

    {b Cache keys.} [hash(sweep schema version, experiment, seed,
    config tag, point name)]. Changing engine semantics means bumping
    the schema version (or the [config_tag] at the call site), which
    orphans old entries rather than serving them stale; [countq cache
    clear] reclaims the space. *)

type point
(** A named, pure grid point. *)

type stats = { points : int; hits : int; misses : int }

val no_stats : stats
val add_stats : stats -> stats -> stats

type ctx
(** How a sweep executes: the shared pool, the optional cache, and the
    spot-check switch. One [ctx] is threaded through every experiment
    of a run so they share one domain budget and one cache handle. *)

exception Cache_mismatch of { experiment : string; point : string }
(** Raised by the spot-check guard when a cached value disagrees with
    a fresh recompute of the same point. *)

val ctx :
  ?jobs:int ->
  ?pool:Countq_util.Parallel.pool ->
  ?cache:Cache.t ->
  ?spot_check:bool ->
  ?spot_seed:int64 ->
  ?shards:int ->
  unit ->
  ctx
(** [jobs] (default 1) sizes a fresh pool unless [pool] shares an
    existing one. [spot_check] (default false) recomputes one cached
    point per [run] — picked by [spot_seed], which [countq experiments]
    varies per invocation — and raises {!Cache_mismatch} on
    disagreement. [shards] (default 1) asks the experiments that drive
    engine runs big enough to matter (E29, E30) to execute each run
    domain-sharded via {!Countq_simnet.Shard}; results are
    bit-identical, so this is purely a wall-clock lever. Sharded
    points carry the shard count in their names — they cache
    separately from sequential ones.
    @raise Invalid_argument if [shards < 1]. *)

val serial : unit -> ctx
(** One lane, no cache — the default everywhere a [ctx] is optional. *)

val of_option : ctx option -> ctx
val pool : ctx -> Countq_util.Parallel.pool
val jobs : ctx -> int
val cache : ctx -> Cache.t option

val shards : ctx -> int
(** The requested per-run shard count (1 = sequential engines). *)

val point : name:string -> (rng:Countq_util.Rng.t -> Countq_util.Json.t) -> point
(** A generic point; the JSON value is what gets cached. *)

val rows_point :
  name:string -> (rng:Countq_util.Rng.t -> string list list) -> point
(** A point that evaluates to table rows (the common case). *)

val encode_rows : string list list -> Countq_util.Json.t
val decode_rows : Countq_util.Json.t -> string list list option

val run :
  ?seed:int64 ->
  ?config_tag:string ->
  ?valid:(Countq_util.Json.t -> bool) ->
  ctx ->
  experiment:string ->
  point list ->
  Countq_util.Json.t list * stats
(** Evaluate the grid: look every point up in the cache (a cached value
    failing [valid] counts as a miss), evaluate the misses on the pool
    (claiming one point at a time), append them to the cache, and
    return the values in grid order. [config_tag] (default
    ["engine:default"]) names the engine configuration in the cache
    key. @raise Invalid_argument on duplicate point names. *)

val run_rows :
  ?seed:int64 ->
  ?config_tag:string ->
  ctx ->
  experiment:string ->
  point list ->
  string list list * stats
(** [run] for {!rows_point} grids: results are concatenated in grid
    order, and cached values that do not decode as rows fall back to
    recomputation. *)
