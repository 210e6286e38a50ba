(* Measurement primitives. See probe.mli. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))

type gc = { minor_words : float; major_words : float; major_collections : int }

(* Gc.quick_stat's minor count only moves at minor collections in
   OCaml 5; Gc.minor_words reads the allocation pointer too. *)
let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    major_words = s.major_words;
    major_collections = s.major_collections;
  }

let gc_since g0 =
  let g1 = gc_now () in
  {
    minor_words = g1.minor_words -. g0.minor_words;
    major_words = g1.major_words -. g0.major_words;
    major_collections = g1.major_collections - g0.major_collections;
  }

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.
let top_heap_mb () = mb_of_words (Gc.quick_stat ()).top_heap_words

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float_of_int kb /. 1024.)
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
