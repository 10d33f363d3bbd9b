(** Dominance norms over independently PPS-sampled instances with known
    seeds (Section 8.2).

    The max-dominance norm [Σ_h max_i v_i(h)] is the sum aggregate of
    max; with two instances it is estimated per key by [max^(L)]
    ({!Estcore.Max_pps.l}) or the [max^(HT)] baseline. Min-dominance is
    the sum aggregate of min, estimated by the (optimal)
    inverse-probability [min^(HT)]. Each of these three is one sum of
    {!Sum_agg.max_columns} over {!Sum_agg.columns}. *)

val max_dominance_l : Sum_agg.pps_samples -> select:(int -> bool) -> float
(** Max-dominance estimate with per-key [max^(L)]; [Invalid_argument]
    unless there are exactly two samples. *)

val max_dominance_ht : Sum_agg.pps_samples -> select:(int -> bool) -> float

val min_dominance_ht : Sum_agg.pps_samples -> select:(int -> bool) -> float

val max_dominance_coordinated : Sum_agg.pps_samples -> select:(int -> bool) -> float
(** Max-dominance from {e coordinated} (shared-seed) PPS samples, using
    the all-or-nothing-optimal {!Estcore.Coordinated.max_ht} per key. The
    samples must have been drawn with a [Sampling.Seeds.Shared] seed
    assignment; any r. *)

val exact_variance_coordinated :
  taus:float array ->
  instances:Sampling.Instance.t list ->
  select:(int -> bool) ->
  float
(** Exact variance of {!max_dominance_coordinated} (per-key shared-seed
    quadrature; per-key estimates remain independent across keys because
    seeds are independent per key). *)

val exact_variances :
  taus:float array ->
  instances:Sampling.Instance.t list ->
  select:(int -> bool) ->
  float * float
(** [(var_ht, var_l)]: exact variances of the two max-dominance
    estimators — per-key variances summed (independent estimates), the HT
    one in closed form, the L one by fast seed-space quadrature. *)

val normalized_variance : var:float -> truth:float -> float
(** [var / truth²] — the y-axis of Figure 7. *)
