(** Robust summaries of repeated measurements, and the regression
    verdict between two sets of them.

    Quartiles follow Python's [statistics.quantiles(data, n=4)] (its
    default, [method="exclusive"]): cut point [i] sits at position
    [i(n+1)/4] of the sorted data, interpolated linearly and clamped to
    the data's neighbours, so two samples extrapolate past their range
    exactly as Python's do. The median is the second cut point. *)

type better = Lower | Higher

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  iqr : float;  (** [q3 - q1]. *)
}

val summarize : float list -> summary option
(** [None] on an empty list or when any value is NaN or infinite — an
    unusable sample set, never a silent zero. A single value is its own
    three quartiles. *)

val median : float list -> float option

type verdict =
  | Better
  | Same
  | Worse
  | Unresolved  (** run-to-run spread wider than the bound. *)
  | Unusable of string  (** no verdict can be drawn; the reason. *)

val verdict_label : verdict -> string

val verdict :
  better:better ->
  bound:float ->
  floor:float ->
  base:float list ->
  cand:float list ->
  verdict
(** Compare the candidate's median against the base's. The allowed
    change is [max (bound * base median) floor]. If either side's IQR
    exceeds it the pair is [Unresolved] — unless every candidate sample
    beats every base sample, which is [Better]. Otherwise a change
    worse than the allowance is [Worse], better than it is [Better],
    and anything up to and including it is [Same]. Non-finite samples
    and a non-positive base median (the ratio's base) are [Unusable]. *)
