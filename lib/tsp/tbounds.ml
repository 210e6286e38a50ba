(* Executable Section 4 bounds. See tbounds.mli. *)

let list_bound n = 3 * n

let f k =
  if k < 0 then invalid_arg "Tbounds.f: negative k";
  let rec go k = if k = 0 then 0 else (2 * go (k - 1)) + (2 * k) in
  go k

let f_bound k = 1 lsl (k + 2)

let log2_ceil k =
  if k < 1 then invalid_arg "Tbounds.log2_ceil: k must be >= 1";
  let rec go p e = if p >= k then e else go (p * 2) (e + 1) in
  go 1 0

let perfect_binary_bound ~n =
  if n < 1 then invalid_arg "Tbounds.perfect_binary_bound: n must be >= 1";
  let d =
    (* floor(log2 n) *)
    let rec go p e = if p * 2 <= n then go (p * 2) (e + 1) else e in
    go 1 0
  in
  (2 * d * (d + 1)) + (8 * n)

let rosenkrantz_ratio k =
  if k < 1 then invalid_arg "Tbounds.rosenkrantz_ratio: k must be >= 1";
  (* The RSL factor; never below 1 (NN is exactly optimal at k = 1). *)
  Float.max 1.0 (float_of_int (log2_ceil k + 1) /. 2.0)

let nn_path_ratio k =
  if k < 1 then invalid_arg "Tbounds.nn_path_ratio: k must be >= 1";
  float_of_int (log2_ceil (k + 1) + 1)

let constant_degree_tree_bound ~n ~k =
  if k < 1 then 0 else n * (log2_ceil (k + 1) + 1)
