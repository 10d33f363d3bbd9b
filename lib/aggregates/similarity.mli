(** Similarity / distance queries over coordinated samples.

    Every query here decomposes into the two monotone sum aggregates the
    {!Estcore.Monotone} L* engine estimates per key:

    - weighted union size [Σ_h max_i v_i(h)] — L* for [max];
    - weighted intersection size [Σ_h min_i v_i(h)] — L* for [min]
      (with [v_i(h) = 0] for keys absent from instance [i], so a key
      short of any instance truly contributes 0);
    - L1 difference [Σ_h |v_1(h) − v_2(h)| = union − intersection] for
      r = 2 (the Lp difference is not itself monotone — it is served as
      the difference of the two monotone estimates, so a single answer
      may be negative even though its expectation is not);
    - weighted Jaccard [Σ min / Σ max] — a ratio of the two unbiased
      sums (the ratio itself is consistent, not unbiased; both
      components are reported so nothing is hidden).

    Meaningful only under {e shared} seeds ({!Sampling.Seeds.Shared}):
    with independent seeds the joint inclusion law is a product, not a
    diagonal, and the L* forms are biased — the server refuses the
    query instead of serving it quietly. *)

type sums = {
  union_hat : float;  (** [Σ_h] L*-max — the weighted union estimate *)
  inter_hat : float;
      (** [Σ_h] L*-min — the weighted intersection estimate *)
}

val sums_columns :
  taus:float array -> Column.t array -> select:(int -> bool) -> sums
(** Both sums from one {!Column.walk} over PPS samples held as columns
    (the serving path walks the store's resident ones): per union key,
    in ascending order, the {!Estcore.Monotone.Flat} L* max and min,
    each through {!Estcore.Monotone.guard} (sites ["similarity.union"],
    ["similarity.intersection"]) and summed left to right. The L* closed
    forms never read seeds, so the walk computes none and allocates
    nothing per key. Bit-identical to summing the reference
    {!Estcore.Monotone.max_lstar} / {!Estcore.Monotone.min_lstar} per
    key in that order (asserted by the test suite). *)

val sums : Sum_agg.pps_samples -> select:(int -> bool) -> sums
(** {!sums_columns} over {!Sum_agg.columns}. *)

val jaccard : sums -> float
(** [inter_hat / union_hat], 0 when the union estimate is not positive.
    Unclamped: a value outside [\[0,1\]] is possible (both components
    are unbiased, their ratio is not) and more honest than hiding it. *)

val l1 : sums -> float
(** [union_hat − inter_hat]. *)
