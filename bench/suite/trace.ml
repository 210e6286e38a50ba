(* In-memory spans around public calls. See trace.mli. *)

module Json = Countq_util.Json

type tally = { cb : string; cb_layer : string; calls : int; cb_s : float }

type span = {
  id : int;
  parent : int option;
  name : string;
  layer : string;
  start_ns : int64;
  end_ns : int64;
  attrs : (string * Json.t) list;
  tallies : tally list;
}

(* An open span. *)
type frame = {
  f_id : int;
  f_parent : int option;
  f_start : int64;
  f_gc : Probe.gc;
  mutable f_attrs : (string * Json.t) list;
  mutable f_tallies : tally list;
}

let on = ref false
let closed = ref []
let stack = ref []
let next_id = ref 0

let enable () =
  on := true;
  closed := [];
  stack := [];
  next_id := 0

let spans () = List.rev !closed

let span ~layer name f =
  if not !on then f ()
  else begin
    incr next_id;
    let fr =
      {
        f_id = !next_id;
        f_parent = (match !stack with p :: _ -> Some p.f_id | [] -> None);
        f_start = Probe.now_ns ();
        f_gc = Probe.gc_now ();
        f_attrs = [];
        f_tallies = [];
      }
    in
    stack := fr :: !stack;
    let close () =
      let end_ns = Probe.now_ns () in
      let g = Probe.gc_since fr.f_gc in
      stack := List.tl !stack;
      closed :=
        {
          id = fr.f_id;
          parent = fr.f_parent;
          name;
          layer;
          start_ns = fr.f_start;
          end_ns;
          attrs =
            List.rev fr.f_attrs
            @ [
                ("gc.minor_words", Json.Float g.minor_words);
                ("gc.major_words", Json.Float g.major_words);
                ("gc.major_collections", Json.Int g.major_collections);
              ];
          tallies = List.rev fr.f_tallies;
        }
        :: !closed
    in
    Fun.protect ~finally:close f
  end

let note attrs =
  match !stack with
  | fr :: _ when !on -> fr.f_attrs <- List.rev_append attrs fr.f_attrs
  | _ -> ()

let tally ~layer name f =
  match !stack with
  | fr :: _ when !on ->
      let r, dt = Probe.timed f in
      let t =
        match List.find_opt (fun t -> t.cb = name) fr.f_tallies with
        | Some t -> { t with calls = t.calls + 1; cb_s = t.cb_s +. dt }
        | None -> { cb = name; cb_layer = layer; calls = 1; cb_s = dt }
      in
      fr.f_tallies <- t :: List.filter (fun t -> t.cb <> name) fr.f_tallies;
      r
  | _ -> f ()

let duration s = Probe.seconds_between s.start_ns s.end_ns

let tallied spans ~name =
  List.fold_left
    (fun (calls, secs) s ->
      List.fold_left
        (fun (calls, secs) t ->
          if t.cb = name then (calls + t.calls, secs +. t.cb_s) else (calls, secs))
        (calls, secs) s.tallies)
    (0, 0.) spans

type layer_time = { layer : string; count : int; total_s : float; self_s : float }

let self_times spans =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace child_s p
            (duration s +. Option.value (Hashtbl.find_opt child_s p) ~default:0.))
        s.parent)
    spans;
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  let add layer ~count ~total ~self =
    match Hashtbl.find_opt acc layer with
    | None ->
        order := layer :: !order;
        Hashtbl.replace acc layer { layer; count; total_s = total; self_s = self }
    | Some t ->
        Hashtbl.replace acc layer
          {
            t with
            count = t.count + count;
            total_s = t.total_s +. total;
            self_s = t.self_s +. self;
          }
  in
  List.iter
    (fun s ->
      (* A tallied callback is a child of its span, in its own layer. *)
      let cb_s =
        List.fold_left
          (fun acc t ->
            add t.cb_layer ~count:t.calls ~total:t.cb_s ~self:t.cb_s;
            acc +. t.cb_s)
          0. s.tallies
      in
      let d = duration s in
      let kids = Option.value (Hashtbl.find_opt child_s s.id) ~default:0. in
      add s.layer ~count:1 ~total:d ~self:(d -. kids -. cb_s))
    spans;
  List.rev_map (Hashtbl.find acc) !order

let to_json ~workload ~rep s =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("workload", Json.Str workload);
      ("rep", Json.Int rep);
      ("id", Json.Int s.id);
      ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
      ("name", Json.Str s.name);
      ("layer", Json.Str s.layer);
      ("start_ns", Json.Int (Int64.to_int s.start_ns));
      ("end_ns", Json.Int (Int64.to_int s.end_ns));
      ("attrs", Json.Obj s.attrs);
      ( "tallies",
        Json.Arr
          (List.map
             (fun t ->
               Json.Obj
                 [
                   ("name", Json.Str t.cb);
                   ("layer", Json.Str t.cb_layer);
                   ("calls", Json.Int t.calls);
                   ("seconds", Json.Float t.cb_s);
                 ])
             s.tallies) );
    ]
