(* Reps to metrics, result files, and comparison. See report.mli. *)

module Json = Countq_util.Json

type rep = {
  workload : string;
  rep : int;
  traced : bool;
  setup_s : float;
  wall_s : float;
  ops : int;
  attempted : int;
  failed : int;
  peak_rss_mb : float option;
  sim : (string * float) list;
  fingerprint : string;
  layers : (string * float) list;
  self_times : Trace.layer_time list;
  spans : Json.t list;
  errors : string list;
}

let num f = Json.Float f
let obj_of_floats kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

let layer_time_json (t : Trace.layer_time) =
  Json.Obj
    [
      ("layer", Json.Str t.layer);
      ("count", Json.Int t.count);
      ("total_s", num t.total_s);
      ("self_s", num t.self_s);
    ]

let rep_to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("rep", Json.Int r.rep);
      ("traced", Json.Bool r.traced);
      ("setup_s", num r.setup_s);
      ("wall_s", num r.wall_s);
      ("ops", Json.Int r.ops);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("peak_rss_mb", match r.peak_rss_mb with Some m -> num m | None -> Json.Null);
      ("sim", obj_of_floats r.sim);
      ("fingerprint", Json.Str r.fingerprint);
      ("layers", obj_of_floats r.layers);
      ("self_times", Json.Arr (List.map layer_time_json r.self_times));
      ("spans", Json.Arr r.spans);
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
    ]

let to_float = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let floats_of = function
  | Some (Json.Obj kvs) ->
      Some
        (List.map
           (fun (k, v) -> (k, Option.value (to_float v) ~default:Float.nan))
           kvs)
  | _ -> None

let rep_of_json j =
  let f k = Json.member k j in
  let int k = Option.bind (f k) Json.to_int in
  let fl k = Option.bind (f k) to_float in
  let str k = Option.bind (f k) Json.to_str in
  let layer_time t =
    let g k = Json.member k t in
    match
      ( Option.bind (g "layer") Json.to_str,
        Option.bind (g "count") Json.to_int,
        Option.bind (g "total_s") to_float,
        Option.bind (g "self_s") to_float )
    with
    | Some layer, Some count, Some total_s, Some self_s ->
        Some { Trace.layer; count; total_s; self_s }
    | _ -> None
  in
  match
    ( str "workload",
      int "rep",
      f "traced",
      (fl "setup_s", fl "wall_s", int "ops", int "attempted", int "failed"),
      (floats_of (f "sim"), str "fingerprint", floats_of (f "layers")),
      Option.bind (f "errors") Json.to_list )
  with
  | ( Some workload,
      Some rep,
      Some (Json.Bool traced),
      (Some setup_s, Some wall_s, Some ops, Some attempted, Some failed),
      (Some sim, Some fingerprint, Some layers),
      Some errors ) ->
      Ok
        {
          workload;
          rep;
          traced;
          setup_s;
          wall_s;
          ops;
          attempted;
          failed;
          peak_rss_mb = fl "peak_rss_mb";
          sim;
          fingerprint;
          layers;
          self_times =
            (match Option.bind (f "self_times") Json.to_list with
            | Some ts -> List.filter_map layer_time ts
            | None -> []);
          spans = Option.value (Option.bind (f "spans") Json.to_list) ~default:[];
          errors = List.filter_map Json.to_str errors;
        }
  | _ -> Error "malformed rep record"

(* ------------------------------------------------------------------ *)

type workload_result = {
  name : string;
  reps : rep list;
  traced_rep : rep option;
  errors : string list;
}

let e2e_value (m : Registry.metric) r =
  match m.name with
  | "setup_s" -> r.setup_s
  | "wall_s" -> r.wall_s
  | "ops_per_s" -> float_of_int r.ops /. r.wall_s
  | "peak_rss_mb" -> Option.value r.peak_rss_mb ~default:Float.nan
  | other -> invalid_arg ("Report.e2e_value: undeclared metric " ^ other)

let samples res =
  List.map
    (fun (m : Registry.metric) -> (m, List.map (e2e_value m) res.reps))
    Registry.end_to_end

let e2e_medians res =
  List.filter_map
    (fun ((m : Registry.metric), xs) ->
      Option.map (fun v -> (m, v)) (Sample.median xs))
    (samples res)

let check res =
  let all = res.reps @ Option.to_list res.traced_rep in
  let wl = Registry.find_workload res.name in
  let problems = ref (List.rev res.errors) in
  let flag fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if res.reps = [] then flag "no untraced rep completed";
  List.iter
    (fun r ->
      List.iter (flag "rep %d: %s" r.rep) r.errors;
      if r.ops < 1 then flag "rep %d completed no operation" r.rep;
      (match wl with
      | Some w when List.map fst r.sim <> w.simulated ->
          flag "rep %d reports simulated metrics {%s}, declared {%s}" r.rep
            (String.concat "," (List.map fst r.sim))
            (String.concat "," w.simulated)
      | Some _ -> ()
      | None -> flag "undeclared workload %s" res.name);
      List.iter
        (fun (name, _) ->
          if Registry.find name Registry.per_layer = None then
            flag "rep %d emits undeclared per-layer metric %s" r.rep name)
        r.layers)
    all;
  (match all with
  | first :: rest ->
      List.iter
        (fun r ->
          if r.sim <> first.sim || r.fingerprint <> first.fingerprint then
            flag "rep %d's simulated outputs differ from rep %d's" r.rep
              first.rep)
        rest
  | [] -> ());
  List.rev !problems

let overhead_pct res =
  match (res.traced_rep, Sample.median (List.map (fun r -> r.wall_s) res.reps)) with
  | Some t, Some base when base > 0. -> Some (100. *. ((t.wall_s /. base) -. 1.))
  | _ -> None

let layer_values res =
  match res.traced_rep with
  | None -> []
  | Some t ->
      List.map
        (fun (m : Registry.metric) ->
          let v =
            if m.name = "trace.overhead_pct" then
              Option.value (overhead_pct res) ~default:Float.nan
            else Option.value (List.assoc_opt m.name t.layers) ~default:0.
          in
          (m, v))
        Registry.per_layer

let totals results =
  List.fold_left
    (fun (a, f) res ->
      List.fold_left
        (fun (a, f) r -> (a + r.attempted, f + r.failed))
        (a, f)
        (res.reps @ Option.to_list res.traced_rep))
    (0, 0) results

let metric_json (m : Registry.metric) v =
  Json.Obj [ ("value", num v); ("unit", Json.Str m.unit) ]

let result_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun (key, m, v) ->
               if Float.is_finite v then Some (key, metric_json m v) else None)
             metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* Result files: what --compare reads.                                 *)

let schema = "countq-bench-suite/1"

let results_json ~seed ~cores results =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", Json.Int seed);
      ("cores", Json.Int cores);
      ( "workloads",
        Json.Arr
          (List.map
             (fun res ->
               let attempted, failed = totals [ res ] in
               Json.Obj
                 [
                   ("name", Json.Str res.name);
                   ("correct", Json.Bool (check res = []));
                   ("attempted", Json.Int attempted);
                   ("failed", Json.Int failed);
                   ( "samples",
                     Json.Obj
                       (List.map
                          (fun ((m : Registry.metric), xs) ->
                            (m.name, Json.Arr (List.map num xs)))
                          (samples res)) );
                   ( "sim",
                     obj_of_floats
                       (match res.reps with r :: _ -> r.sim | [] -> []) );
                   ( "layers",
                     Json.Obj
                       (List.map
                          (fun ((m : Registry.metric), v) -> (m.name, num v))
                          (layer_values res)) );
                 ])
             results) );
    ]

type saved = {
  s_name : string;
  s_samples : (string * float list) list;
  s_sim : (string * float) list;
}

let read_results path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok j when Json.member "schema" j <> Some (Json.Str schema) ->
          Error (path ^ ": not a " ^ schema ^ " file")
      | Ok j ->
          let workload w =
            match
              ( Option.bind (Json.member "name" w) Json.to_str,
                Json.member "samples" w,
                floats_of (Json.member "sim" w) )
            with
            | Some s_name, Some (Json.Obj samples), Some s_sim ->
                let floats v =
                  List.map
                    (fun x -> Option.value (to_float x) ~default:Float.nan)
                    (Option.value (Json.to_list v) ~default:[])
                in
                Some
                  {
                    s_name;
                    s_samples = List.map (fun (k, v) -> (k, floats v)) samples;
                    s_sim;
                  }
            | _ -> None
          in
          Ok
            (List.filter_map workload
               (Option.value
                  (Option.bind (Json.member "workloads" j) Json.to_list)
                  ~default:[])))

type row = {
  r_workload : string;
  r_metric : string;
  base : float option;
  cand : float option;
  verdict : string;
  fails : bool;
}

let compare_results a b =
  List.concat_map
    (fun wa ->
      match List.find_opt (fun wb -> wb.s_name = wa.s_name) b with
      | None ->
          [
            {
              r_workload = wa.s_name;
              r_metric = "-";
              base = None;
              cand = None;
              verdict = "missing from the candidate";
              fails = true;
            };
          ]
      | Some wb ->
          let get k kvs = Option.value (List.assoc_opt k kvs) ~default:[] in
          let e2e =
            List.map
              (fun (m : Registry.metric) ->
                let base = get m.name wa.s_samples and cand = get m.name wb.s_samples in
                let v =
                  Sample.verdict ~better:m.better ~bound:m.bound ~floor:m.floor
                    ~base ~cand
                in
                {
                  r_workload = wa.s_name;
                  r_metric = m.name;
                  base = Sample.median base;
                  cand = Sample.median cand;
                  verdict = Sample.verdict_label v;
                  fails = (match v with Worse | Unusable _ -> true | _ -> false);
                })
              Registry.end_to_end
          in
          let sim =
            List.filter_map
              (fun (k, va) ->
                let vb = List.assoc_opt k wb.s_sim in
                if vb = Some va then None
                else
                  Some
                    {
                      r_workload = wa.s_name;
                      r_metric = k;
                      base = Some va;
                      cand = vb;
                      verdict =
                        (match vb with
                        | Some vb when k = "failed_pct" && vb > va -> "failures rose"
                        | Some _ -> "simulated output changed"
                        | None -> "simulated metric missing");
                      fails = true;
                    })
              wa.s_sim
          in
          e2e @ sim)
    a
