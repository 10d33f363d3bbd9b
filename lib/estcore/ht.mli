(** Horvitz–Thompson (inverse-probability) estimators (Section 2.2).

    The classic estimator for "all-or-nothing" outcomes: 0 when the
    quantity is not recoverable, [f(v)/Pr(recoverable)] when it is. For a
    single entry it is the minimum-variance unbiased nonnegative
    estimator; for multi-entry functions it is the baseline our L/U
    estimators dominate. *)

val single : p:float -> sampled:bool -> value:float -> float
(** Single-entry HT: [value/p] when sampled, else 0. *)

val single_variance : p:float -> value:float -> float
(** Eq. (1): [value² (1/p − 1)]. *)

val multi_oblivious : f:(float array -> float) -> Sampling.Outcome.Oblivious.t -> float
(** Multi-entry HT over weight-oblivious Poisson outcomes (Section 4):
    [f(v)/Π p_i] when all [r] entries are sampled, else 0. This is the
    optimal inverse-probability estimator for quantiles and range, and is
    Pareto optimal for [min] and for [RG] at r = 2. *)

val multi_oblivious_variance : probs:float array -> fv:float -> float
(** Eq. (10): [fv² (1/Π p_i − 1)]. *)

val max_oblivious : Sampling.Outcome.Oblivious.t -> float
(** [multi_oblivious] specialized to the maximum. *)

val min_oblivious : Sampling.Outcome.Oblivious.t -> float
(** Specialized to the minimum (Pareto optimal, Section 4). *)

val range_oblivious : Sampling.Outcome.Oblivious.t -> float
(** Specialized to the range max − min (Pareto optimal for r = 2). *)

val quantile_oblivious : l:int -> Sampling.Outcome.Oblivious.t -> float
(** Specialized to the [l]-th largest entry (1-indexed). *)

val max_pps : Sampling.Outcome.Pps.t -> float
(** The weighted known-seeds [max^(HT)] of Section 5.2: positive exactly
    on outcomes where [max_{i∉S} u_i·τ*_i ≤ max_{i∈S} v_i] (the maximum is
    then known to be the largest sampled value), with inverse probability
    [Π_i min(1, max_S v / τ*_i)]. Works for any r. *)

val max_pps_variance : taus:float array -> v:float array -> float
(** Closed-form variance of {!max_pps}: [max(v)² (1/Π min(1,max/τ_i) − 1)]
    (0 when [max(v) = 0]). *)

(** Allocation-free mirrors of {!max_pps} / {!max_oblivious} /
    {!min_pps}: inputs from an {!Evalbuf} (values in [vals], presence in
    [present], seeds in [phi] for [max_pps_into]), result stored into
    [dst.(di)].
    Bit-identical to the reference evaluators and zero-allocation per
    call — both enforced by the test suite. *)
module Flat : sig
  val max_pps_into :
    taus:float array -> Evalbuf.t -> dst:floatarray -> di:int -> unit

  val max_oblivious_into :
    probs:float array -> Evalbuf.t -> dst:floatarray -> di:int -> unit

  val min_pps_into :
    taus:float array -> Evalbuf.t -> dst:floatarray -> di:int -> unit
end

val min_pps : Sampling.Outcome.Pps.t -> float
(** Weighted min estimator: positive only when all entries are sampled
    (the only outcomes determining the minimum), with probability
    [Π_i min(1, v_i/τ*_i)] — the optimal inverse-probability estimator for
    [min] with weighted sampling and unknown or known seeds. *)
