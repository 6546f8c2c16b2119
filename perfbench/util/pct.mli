(** Exact percentiles without interpolation. *)

val nearest_rank : float array -> p:float -> float
(** The sample at 1-based rank [ceil(p/100 · n)] of the sorted samples,
    the rank clamped to [\[1, n\]].  [p] is in [(0, 100]].
    [Invalid_argument] on no samples. *)

val median : float array -> float
(** [nearest_rank ~p:50.]. *)
