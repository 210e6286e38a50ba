(* Domain-parallel sweep runner with content-addressed caching. See
   sweep.mli. *)

module Json = Countq_util.Json
module Parallel = Countq_util.Parallel
module Rng = Countq_util.Rng

let schema = "countq-sweep/1"

type point = { name : string; eval : rng:Rng.t -> Json.t }

type stats = { points : int; hits : int; misses : int }

let no_stats = { points = 0; hits = 0; misses = 0 }

let add_stats a b =
  {
    points = a.points + b.points;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
  }

type ctx = {
  pool : Parallel.pool;
  cache : Cache.t option;
  spot_check : bool;
  spot_seed : int64;
  shards : int;
}

exception Cache_mismatch of { experiment : string; point : string }

let () =
  Printexc.register_printer (function
    | Cache_mismatch { experiment; point } ->
        Some
          (Printf.sprintf
             "Sweep.Cache_mismatch: cached result for %s point %S disagrees \
              with a fresh recompute"
             experiment point)
    | _ -> None)

let ctx ?(jobs = 1) ?pool ?cache ?(spot_check = false) ?(spot_seed = 0L)
    ?(shards = 1) () =
  if shards < 1 then invalid_arg "Sweep.ctx: shards must be >= 1";
  let pool =
    match pool with Some p -> p | None -> Parallel.pool ~jobs
  in
  { pool; cache; spot_check; spot_seed; shards }

let serial () = ctx ()
let of_option = function Some c -> c | None -> serial ()
let pool c = c.pool
let jobs c = Parallel.pool_jobs c.pool
let cache c = c.cache
let shards c = c.shards

let point ~name eval = { name; eval }

let encode_rows rows =
  Json.Arr
    (List.map
       (fun r -> Json.Arr (List.map (fun cell -> Json.Str cell) r))
       rows)

let decode_rows = function
  | Json.Arr rows -> (
      try
        Some
          (List.map
             (function
               | Json.Arr cells ->
                   List.map
                     (function Json.Str s -> s | _ -> raise Exit)
                     cells
               | _ -> raise Exit)
             rows)
      with Exit -> None)
  | _ -> None

let rows_point ~name f = { name; eval = (fun ~rng -> encode_rows (f ~rng)) }

(* The seeding discipline: every point's RNG is derived from the sweep
   seed and the point's NAME, never from evaluation order — so a point
   computes the same value whether it runs first on one domain or last
   on eight, and whether its neighbours were cache hits. The name must
   therefore encode every input of the computation. *)
let point_rng ~experiment ~seed p =
  Rng.create
    (Int64.logxor seed (Cache.seed_of (experiment ^ "\x00" ^ p.name)))

let key_of ~experiment ~seed ~config_tag p =
  Cache.fingerprint
    (String.concat "\x00"
       [ schema; experiment; Int64.to_string seed; config_tag; p.name ])

let run ?(seed = 0xc0417L) ?(config_tag = "engine:default") ?valid ctx
    ~experiment points =
  (* Duplicate names would alias in the cache and break the seeding
     discipline — refuse them up front. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.name then
        invalid_arg
          (Printf.sprintf "Sweep.run %s: duplicate point name %S" experiment
             p.name)
      else Hashtbl.replace seen p.name ())
    points;
  let key = key_of ~experiment ~seed ~config_tag in
  let lookup p =
    match ctx.cache with
    | None -> None
    | Some c -> Cache.find c ?valid ~ns:experiment ~key:(key p) ()
  in
  let cached = List.map (fun p -> (p, lookup p)) points in
  let miss_points =
    List.filter_map
      (fun (p, v) -> match v with None -> Some p | Some _ -> None)
      cached
  in
  (* Points are coarse units of work: claim them one at a time so a
     slow point never drags its chunk-mates along. *)
  let evaluated =
    Parallel.pool_map ctx.pool ~chunk:1
      (fun p -> (p.name, p.eval ~rng:(point_rng ~experiment ~seed p)))
      miss_points
  in
  (match ctx.cache with
  | None -> ()
  | Some c ->
      List.iter2
        (fun p (_, v) ->
          Cache.store c ~ns:experiment ~key:(key p) ~spec:p.name v)
        miss_points evaluated);
  let fresh = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace fresh name v) evaluated;
  let results =
    List.map
      (fun (p, v) ->
        match v with Some v -> v | None -> Hashtbl.find fresh p.name)
      cached
  in
  let hit_list =
    List.filter_map
      (fun (p, v) -> match v with Some v -> Some (p, v) | None -> None)
      cached
  in
  (* The regression guard: recompute one cached point (picked by the
     spot seed, which `countq experiments` varies per run) and fail loudly
     if the store disagrees — the cache must never silently serve a
     wrong table. *)
  if ctx.spot_check && hit_list <> [] then begin
    let pick =
      Rng.create
        (Int64.logxor ctx.spot_seed (Cache.seed_of ("spot\x00" ^ experiment)))
    in
    let p, stored = List.nth hit_list (Rng.below pick (List.length hit_list)) in
    let recomputed = p.eval ~rng:(point_rng ~experiment ~seed p) in
    if recomputed <> stored then
      raise (Cache_mismatch { experiment; point = p.name })
  end;
  ( results,
    {
      points = List.length points;
      hits = List.length hit_list;
      misses = List.length miss_points;
    } )

let run_rows ?seed ?config_tag ctx ~experiment points =
  let valid j = decode_rows j <> None in
  let values, stats = run ?seed ?config_tag ~valid ctx ~experiment points in
  ( List.concat_map
      (fun v ->
        match decode_rows v with Some rows -> rows | None -> assert false)
      values,
    stats )
