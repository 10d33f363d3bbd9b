(** Sum-aggregate estimation from per-instance samples (Section 7).

    A sum aggregate [Σ_{h ∈ select} f(v(h))] is estimated by summing
    per-key estimates; only keys that appear in at least one sample can
    contribute (every estimator assigns 0 to the empty outcome), so the
    estimator runs over the samples, never the raw data. Seeds are
    recomputed from the {!Sampling.Seeds.t} — the "known seeds" model. *)

type pps_samples = {
  seeds : Sampling.Seeds.t;
  taus : float array;
  samples : Sampling.Poisson.pps array;  (** one per instance *)
}

val sample_pps :
  Sampling.Seeds.t -> taus:float array -> Sampling.Instance.t list -> pps_samples
(** Draw independent (or shared-seed, per the seeds mode) PPS samples of
    each instance. *)

val sample_priority :
  Sampling.Seeds.t -> k:int -> Sampling.Instance.t list -> pps_samples
(** Bottom-k sampling with PPS ranks ({e priority sampling}) of each
    instance, exposed through the same interface: the (k+1)-smallest rank
    [τ_rank] of instance [i] acts — by rank conditioning (Section 7.1) —
    as a fixed PPS threshold [τ*_i = 1/τ_rank], since
    [rank < τ_rank ⇔ v ≥ u/τ_rank]. All per-key estimators then apply
    unchanged; this is the "results are the same for priority sampling"
    statement under Figure 7. Instances with at most [k] keys get
    [τ* = 0⁺] semantics via an infinite rank threshold (every key
    sampled, inclusion probability 1), represented by a tiny [τ*]. *)

val of_summaries :
  Sampling.Seeds.t -> Sampling.Summary.t array -> pps_samples
(** Assemble the multi-instance view from per-instance {!Sampling.Summary}
    values (one per instance, in instance order). Every summary must
    expose a PPS threshold (Poisson or bottom-k with PPS ranks); raises
    [Invalid_argument] otherwise (EXP-rank bottom-k and VarOpt do not
    support the known-seeds estimators). *)

val key_outcome : pps_samples -> int -> Sampling.Outcome.Pps.t
(** Estimator-side reconstruction of the single-key outcome of [h]:
    sampled values read from the samples, seeds recomputed at each
    sample's recorded [instance_id] (so samples of arbitrary instances —
    not just 0..r−1 — pair with the right seeds). *)

val columns : pps_samples -> Column.t array
(** Each sample's entries as a {!Column} ({!Column.of_entries}: a
    duplicated key keeps its first binding, like {!key_outcome}). *)

val ids : pps_samples -> int array
(** Each sample's recorded [instance_id], in sample order: the ids
    {!max_columns} recomputes seeds at. *)

val estimate :
  pps_samples ->
  est:(Sampling.Outcome.Pps.t -> float) ->
  select:(int -> bool) ->
  float
(** [Σ_{h ∈ select ∩ sampled} est(outcome h)], from one {!Column.walk}
    over {!columns}: per union key, in ascending order, the outcome of
    {!key_outcome} (values at the walk's hits, seeds recomputed at the
    recorded ids) is passed to [est] and the results are summed left to
    right. Unbiased for the sum aggregate when [est] is unbiased per
    key. *)

type max_sums = {
  max_ht : float;  (** [Σ] {!Estcore.Ht.max_pps} *)
  max_l : float option;  (** [Σ] {!Estcore.Max_pps.l}; [None] unless r = 2 *)
  min_ht : float;  (** [Σ] {!Estcore.Ht.min_pps} *)
}

val max_columns :
  Sampling.Seeds.t ->
  ids:int array ->
  taus:float array ->
  Column.t array ->
  select:(int -> bool) ->
  max_sums
(** The max/min dominance sums of PPS samples held as {!Column}s (one
    per instance; [ids] the instance ids the seeds are recomputed at,
    [taus] the thresholds), all from one {!Column.walk}: per union key
    the seeds are stored into a reused {!Estcore.Evalbuf} and each sum
    takes its {!Estcore.Ht.Flat} / {!Estcore.Max_pps.Flat} evaluator,
    so the walk allocates nothing per key. Each sum is bit-identical to
    {!estimate} with the reference evaluator: same ascending union-key
    order, same seeds, same left-to-right accumulation, twin
    evaluators (asserted by the test suite). *)

val exact_variance :
  taus:float array ->
  instances:Sampling.Instance.t list ->
  moments:(taus:float array -> v:float array -> Estcore.Exact.moments) ->
  select:(int -> bool) ->
  float
(** [Σ_{h ∈ select} Var[est | v(h)]] — the exact variance of {!estimate}
    under independent sampling (per-key estimates are independent, so
    variances add). [moments] supplies per-key moments (e.g.
    {!Estcore.Exact.pps_r2_fast} partially applied to the estimator). *)
