(* Summaries of repeated measurements and the bound check that turns
   two sets of samples into a verdict. See sample.mli. *)

type better = Lower | Higher

type summary = { n : int; median : float; q1 : float; q3 : float; iqr : float }

let usable xs = xs <> [] && List.for_all Float.is_finite xs

(* Python's statistics.quantiles(data, n=4, method="exclusive"): the
   cut point i sits at position i(n+1)/4 of the sorted data (1-based),
   interpolated linearly between its neighbours, with the neighbour
   index clamped to the data so the outer quartiles extrapolate on
   tiny samples exactly as Python does. Integer arithmetic throughout,
   as in the reference implementation. *)
let quartiles_sorted a =
  let len = Array.length a in
  if len = 1 then (a.(0), a.(0), a.(0))
  else
    let m = len + 1 in
    let cut i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let summarize xs =
  if not (usable xs) then None
  else
    let a = Array.of_list (List.sort Float.compare xs) in
    let q1, median, q3 = quartiles_sorted a in
    Some { n = Array.length a; median; q1; q3; iqr = q3 -. q1 }

let median xs = Option.map (fun s -> s.median) (summarize xs)

type verdict = Better | Same | Worse | Unresolved | Unusable of string

let verdict_label = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unusable why -> "unusable (" ^ why ^ ")"

let verdict ~better ~bound ~floor ~base ~cand =
  match (summarize base, summarize cand) with
  | None, _ -> Unusable "base samples empty or not finite"
  | _, None -> Unusable "candidate samples empty or not finite"
  | Some a, Some b ->
      if a.median <= 0. then Unusable "base median is not positive"
      else if not (Float.is_finite bound && bound >= 0. && floor >= 0.) then
        Unusable "bound is not a finite non-negative share"
      else
        let allowed = Float.max (bound *. a.median) floor in
        let worse_by =
          match better with
          | Lower -> b.median -. a.median
          | Higher -> a.median -. b.median
        in
        let every_cand_better =
          let lo l = List.fold_left Float.min infinity l
          and hi l = List.fold_left Float.max neg_infinity l in
          match better with
          | Lower -> hi cand < lo base
          | Higher -> lo cand > hi base
        in
        (* The spread decides first: a difference inside noise wider
           than the bound is not evidence of "same". *)
        if Float.max a.iqr b.iqr > allowed then
          if every_cand_better then Better else Unresolved
        else if worse_by > allowed then Worse
        else if worse_by < -.allowed then Better
        else Same
