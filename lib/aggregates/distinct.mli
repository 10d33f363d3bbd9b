(** Distinct-count estimation over two independently sampled binary
    instances with known seeds (Section 8.1).

    [D_A = |(N₁ ∪ N₂) ∩ A|] is the sum aggregate of OR. Sampled keys are
    categorized by what the outcome reveals (p_i is instance i's sampling
    probability, u_i(h) its recomputable seed):

    - [F1?]: in S₁, u₂ > p₂ (membership in N₂ unknown)
    - [F?1]: in S₂, u₁ > p₁
    - [F11]: in both samples
    - [F10]: in S₁, u₂ ≤ p₂ (so h ∉ N₂)
    - [F01]: in S₂, u₁ ≤ p₁

    The HT estimate uses only F11 ∪ F10 ∪ F01; the L estimate (per-key
    OR^(L)) uses all five classes and needs a factor ~2 fewer samples for
    the same accuracy (Figure 6). *)

type classes = { f1q : int; fq1 : int; f11 : int; f10 : int; f01 : int }

val classify :
  ?ids:int * int ->
  Sampling.Seeds.t ->
  p1:float ->
  p2:float ->
  s1:int list ->
  s2:int list ->
  select:(int -> bool) ->
  classes
(** Categorize the sampled keys (S₁, S₂ as key lists) that pass
    [select]. [ids] (default [(0, 1)]) are the instance ids the two
    samples were drawn under — seeds are recomputed at those ids, so
    samples of instances other than 0 and 1 (e.g. live server instances)
    classify correctly under [Independent] seeds. {!classify_columns}
    over the lists as {!Column.of_keys}. *)

val classify_columns :
  ?table:Estcore.Or_weighted.Table.t ->
  Sampling.Seeds.t ->
  ids:int * int ->
  p1:float ->
  p2:float ->
  Column.t ->
  Column.t ->
  select:(int -> bool) ->
  classes * float
(** The serving walk of two binary samples held as key columns: one
    {!Column.walk} over their union, in ascending key order, counting
    each selected key in its class and, given a flattened OR^(L)
    [table], adding that key's cell (its (below, sampled) code) to the
    second component (0 without a table). Seeds are stored from
    per-query salts, so the walk allocates nothing per key. *)

val sample_binary :
  Sampling.Seeds.t ->
  p:float ->
  instance:int ->
  Sampling.Instance.t ->
  int list
(** Weighted Poisson sample of a binary instance: keys of the support
    with [u_instance(h) ≤ p]. *)

val sample_binary_bottom_k :
  Sampling.Seeds.t ->
  k:int ->
  instance:int ->
  Sampling.Instance.t ->
  int list * float
(** Bottom-k sample of a binary instance (the k keys of smallest seed)
    together with the effective inclusion probability [p] = the
    (k+1)-smallest seed — Section 8.1's recipe for using the Section 5.1
    estimators with fixed-size samples ([p = 1] when the support has at
    most [k] keys). Feed the result to {!classify} as the sample and its
    [p_i]. *)

val ht_estimate : classes -> p1:float -> p2:float -> float
(** [|F11 ∪ F10 ∪ F01| / (p₁p₂)]. *)

val l_estimate : classes -> p1:float -> p2:float -> float
(** Section 8.1's D̂_A^(L). *)

val u_estimate : classes -> p1:float -> p2:float -> float
(** Per-key OR^(U) summed — the companion estimator (not tabulated in the
    paper's Section 8.1 but immediate from Section 5.1). *)

val var_ht : d:float -> p1:float -> p2:float -> float
(** [d(1/(p₁p₂) − 1)] where [d = D_A]. *)

val var_l : d:float -> jaccard:float -> p1:float -> p2:float -> float
(** [d·J·Var[OR^(L)|(1,1)] + d(1−J)·Var[OR^(L)|(1,0)]]. *)

val var_u : d:float -> jaccard:float -> p1:float -> p2:float -> float

val coordinated_estimate :
  p:float -> samples:int list array -> select:(int -> bool) -> float
(** Distinct count from r {e coordinated} samples with a common sampling
    probability [p] (shared seed per key, e.g. [Sampling.Seeds.Shared]):
    every key of the union is sampled somewhere iff its shared seed is
    [≤ p], so [|(S₁ ∪ … ∪ S_r) ∩ select| / p] is the optimal
    inverse-probability estimate. *)

val coordinated_columns :
  p:float -> Column.t array -> select:(int -> bool) -> float
(** {!coordinated_estimate} over samples held as key columns: the
    selected union keys of one {!Column.walk}, counted, over [p]. *)

val var_coordinated : d:float -> p:float -> float
(** [d(1/p − 1)] — per-key Bernoulli(p); compare with {!var_l} and
    {!var_ht} to quantify the benefit of coordination (§7.2). *)

val cv_of_variance : d:float -> var:float -> float
(** Coefficient of variation [√var / d]. *)

(** Distinct counts across r ≥ 2 instances — an extension enabled by the
    general Theorem 4.1 solver ({!Estcore.Max_oblivious.General}): the
    per-key OR^(L) estimate for any number of independently sampled
    periods, through the Section 5 binary outcome mapping. *)
module Multi : sig
  type t
  (** Precomputed OR^(L) coefficients for a probability vector. *)

  val create : probs:float array -> t

  val estimate :
    ?ids:int array ->
    t ->
    Sampling.Seeds.t ->
    samples:int list array ->
    select:(int -> bool) ->
    float
  (** [estimate t seeds ~samples ~select]: unbiased estimate of the
      number of distinct selected keys across the r instances, from their
      r independent weighted samples (key lists) and the recomputable
      seeds. Keys sampled nowhere contribute 0 (as they must). [ids]
      (default [[|0; …; r−1|]]) are the instance ids the samples were
      drawn under. The first component of {!estimates} over the lists
      as {!Column.of_keys}. *)

  val ht_estimate :
    ?ids:int array ->
    probs:float array ->
    Sampling.Seeds.t ->
    samples:int list array ->
    select:(int -> bool) ->
    float
  (** The HT baseline: a key counts [1/Π p_i] iff its seed is below [p_i]
      in every instance and it is sampled somewhere. *)

  val estimates :
    t ->
    Sampling.Seeds.t ->
    ids:int array ->
    Column.t array ->
    select:(int -> bool) ->
    float * float
  (** [(estimate, ht_estimate)] of r binary samples held as key
      columns (one per probability, [ids] their instance ids), from one
      {!Column.walk}: per union key the seeds are stored from per-query
      salts and the OR^(L) term goes through
      {!Estcore.Max_oblivious.Flat.general_into}, so the walk allocates
      nothing per key. *)

  val exact_variance : t -> memberships:bool array array -> float
  (** Exact variance of {!estimate} for a key universe given as
      membership rows (keys × instances): per-pattern enumeration of the
      seed-class outcomes, summed over patterns. *)
end

(** Figure 6 machinery: the sampling probability / expected sample size
    required to reach a target coefficient of variation, for instances of
    size n with Jaccard coefficient J (so the union has
    [N = 2n/(1+J)] keys). *)
module Required : sig
  val union_size : n:float -> jaccard:float -> float

  val p_ht : n:float -> jaccard:float -> cv:float -> float
  (** Closed form [1/√(1 + cv²·N)] (capped at 1). *)

  val p_l : n:float -> jaccard:float -> cv:float -> float
  (** By bisection on the exact variance formula. *)

  val sample_size : p:float -> n:float -> float
  (** Expected per-instance sample size [s = p·n]. *)
end
