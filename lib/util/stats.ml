(* Descriptive statistics. See stats.mli. *)

type summary = {
  count : int;
  total : int;
  mean : float;
  median : float;
  p95 : float;
  min : int;
  max : int;
  stddev : float;
}

let percentile sorted q =
  if q < 0. || q > 1. then invalid_arg "Stats.percentile: q outside [0, 1]";
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then Some sorted.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      Some ((sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac))
    end
  end

let percentile_exn sorted q =
  match percentile sorted q with
  | Some v -> v
  | None -> invalid_arg "Stats.percentile: empty input"

let summarize samples =
  if samples = [] then None
  else begin
    let a = Array.of_list (List.map float_of_int samples) in
    Array.sort Float.compare a;
    let count = Array.length a in
    let total = List.fold_left ( + ) 0 samples in
    let mean = float_of_int total /. float_of_int count in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. a
      /. float_of_int count
    in
    Some
      {
        count;
        total;
        mean;
        median = percentile_exn a 0.5;
        p95 = percentile_exn a 0.95;
        min = int_of_float a.(0);
        max = int_of_float a.(count - 1);
        stddev = sqrt var;
      }
  end

let percentile_ints samples q =
  if samples = [] then begin
    (* Still validate q so the empty case is not a silent pass for a
       caller-side unit bug (q in percent instead of a fraction). *)
    if q < 0. || q > 1. then
      invalid_arg "Stats.percentile: q outside [0, 1]";
    None
  end
  else begin
    (* Sort the ints, then map: [float_of_int] is monotone, so the
       floats come out sorted without boxing them for the sort. *)
    let a = Array.of_list samples in
    Array.sort Int.compare a;
    percentile (Array.map float_of_int a) q
  end

type bucket = { lo : int; hi : int; bcount : int }

let histogram_nonempty ~bins samples =
  let lo = List.fold_left min max_int samples in
  let hi = List.fold_left max min_int samples in
  (* The span [hi - lo + 1] exceeds the native int range when the
     samples straddle a wide interval (e.g. one near [min_int], one
     near [max_int]), so the bucket arithmetic runs in Int64 with
     unsigned division: every bucket BOUND is a sample-range value and
     fits a native int, only the span and the per-bucket offsets need
     the wider (modular) arithmetic. *)
  let span = Int64.add (Int64.sub (Int64.of_int hi) (Int64.of_int lo)) 1L in
  let bins =
    if Int64.unsigned_compare (Int64.of_int bins) span > 0 then
      Int64.to_int span
    else bins
  in
  (* Equal-width buckets; the first [span mod bins] buckets absorb the
     remainder so the widths differ by at most one. *)
  let base = Int64.unsigned_div span (Int64.of_int bins)
  and extra = Int64.to_int (Int64.unsigned_rem span (Int64.of_int bins)) in
  let bounds =
    Array.init bins (fun i ->
        let start =
          Int64.add
            (Int64.mul (Int64.of_int i) base)
            (Int64.of_int (min i extra))
        in
        let width = Int64.add base (if i < extra then 1L else 0L) in
        let l = Int64.add (Int64.of_int lo) start in
        let h = Int64.sub (Int64.add l width) 1L in
        (Int64.to_int l, Int64.to_int h))
  in
  let counts = Array.make bins 0 in
  List.iter
    (fun x ->
      (* Buckets are few; a linear scan is simpler than inverting the
         remainder arithmetic. *)
      let rec find i =
        let l, h = bounds.(i) in
        if x >= l && x <= h then i else find (i + 1)
      in
      let i = find 0 in
      counts.(i) <- counts.(i) + 1)
    samples;
  List.init bins (fun i ->
      let lo, hi = bounds.(i) in
      { lo; hi; bcount = counts.(i) })

let histogram ?(bins = 10) samples =
  if bins < 1 then invalid_arg "Stats.histogram: bins must be >= 1";
  if samples = [] then [] else histogram_nonempty ~bins samples

let render_histogram ?(width = 40) buckets =
  let maxc = List.fold_left (fun acc b -> max acc b.bcount) 0 buckets in
  let buf = Buffer.create 256 in
  List.iter
    (fun b ->
      let bar =
        if maxc = 0 then 0 else b.bcount * width / maxc
      in
      let bar = if b.bcount > 0 then max 1 bar else bar in
      Buffer.add_string buf
        (Printf.sprintf "%6d..%-6d %6d %s\n" b.lo b.hi b.bcount
           (String.make bar '#')))
    buckets;
  Buffer.contents buf

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.2f median=%.1f p95=%.1f max=%d" s.count
    s.mean s.median s.p95 s.max
