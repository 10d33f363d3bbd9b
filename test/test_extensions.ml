(* Tests for the extension modules: coordinated sampling estimators,
   bottom-k application plumbing, the Lemma 2.1 bound checker, the
   Lemma 3.2 monotonicity checker, and the completed Section 6 picture. *)

open Estcore
module I = Sampling.Instance
module P = Sampling.Outcome.Pps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Numerics.Special.float_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let vmax = Array.fold_left Float.max 0.

(* ------------------------------------------------------------------ *)
(* Coordinated sampling                                                *)
(* ------------------------------------------------------------------ *)

let test_coord_outcome () =
  let taus = [| 1.; 1. |] in
  let o = Coordinated.of_seed ~taus ~u:0.4 [| 0.5; 0.3 |] in
  (* Shared seed: entry 1 sampled (0.5 >= 0.4), entry 2 not (0.3 < 0.4). *)
  Alcotest.(check (list int)) "sampled" [ 0 ] (P.sampled o);
  check_float "seeds equal" o.P.seeds.(0) o.P.seeds.(1)

let test_coord_nesting () =
  (* With equal taus, samples are nested: larger values sampled whenever
     smaller ones are (consistency of shared-seed sampling). *)
  let taus = [| 1.; 1. |] in
  List.iter
    (fun u ->
      let o = Coordinated.of_seed ~taus ~u [| 0.7; 0.3 |] in
      if o.P.values.(1) <> None then
        Alcotest.(check bool) "larger sampled too" true (o.P.values.(0) <> None))
    [ 0.1; 0.2; 0.35; 0.5; 0.8 ]

let test_coord_expectation_indicator () =
  let taus = [| 1.; 1.3 |] in
  let v = [| 0.5; 0.6 |] in
  (* Pr[entry 2 sampled] = v2/tau2 under the shared seed too. *)
  let e =
    Coordinated.expectation ~taus ~v (fun o ->
        if o.P.values.(1) <> None then 1. else 0.)
  in
  check_float ~eps:1e-9 "marginal inclusion" (0.6 /. 1.3) e;
  (* Pr[both sampled] = min of the two inclusion probs (comonotone). *)
  let e2 =
    Coordinated.expectation ~taus ~v (fun o ->
        if P.sampled o = [ 0; 1 ] then 1. else 0.)
  in
  check_float ~eps:1e-9 "joint inclusion = min" (Float.min 0.5 (0.6 /. 1.3)) e2

let test_coord_max_unbiased () =
  List.iter
    (fun (taus, v) ->
      let m = Coordinated.moments ~taus ~v Coordinated.max_ht in
      check_float ~eps:1e-8 "E = max" (vmax v) m.Exact.mean)
    [
      ([| 1.; 1. |], [| 0.5; 0.3 |]);
      ([| 1.; 1. |], [| 0.3; 0.3 |]);
      ([| 1.; 1.3 |], [| 0.9; 0.2 |]);
      ([| 1.3; 0.7 |], [| 0.4; 0.6 |]);
      ([| 1.; 1. |], [| 0.7; 0. |]);
      ([| 1.; 1.; 1. |], [| 0.5; 0.3; 0.2 |]);
    ]

let test_coord_max_variance_equal_tau () =
  let taus = [| 1.; 1. |] in
  let v = [| 0.5; 0.3 |] in
  let m = Coordinated.moments ~taus ~v Coordinated.max_ht in
  check_float ~eps:1e-8 "closed form"
    (Coordinated.max_variance_equal_tau ~tau:1. ~v)
    m.Exact.var

let test_coord_min_unbiased () =
  List.iter
    (fun (taus, v) ->
      let m = Coordinated.moments ~taus ~v Coordinated.min_ht in
      let mn = Array.fold_left Float.min infinity v in
      check_float ~eps:1e-8 "E = min" mn m.Exact.mean)
    [
      ([| 1.; 1. |], [| 0.5; 0.3 |]);
      ([| 1.; 1.3 |], [| 0.9; 0.2 |]);
      ([| 1.; 1.; 1. |], [| 0.5; 0.3; 0.2 |]);
    ]

let test_coord_vs_independent_tradeoff () =
  (* Coordination wins on dissimilar values (independent samples cannot
     combine their partial information), while independent sampling wins
     on near-identical values (two independent chances to sample the
     key). Both directions, exactly. *)
  let taus = [| 1.; 1. |] in
  let var_c v = (Coordinated.moments ~taus ~v Coordinated.max_ht).Exact.var in
  let var_l v = (Exact.pps_r2_fast ~taus ~v Max_pps.l).Exact.var in
  let dissimilar = [| 0.3; 0. |] in
  Alcotest.(check bool)
    (Printf.sprintf "dissimilar: coord %.4f < indep L %.4f" (var_c dissimilar)
       (var_l dissimilar))
    true
    (var_c dissimilar < var_l dissimilar);
  let identical = [| 0.3; 0.3 |] in
  Alcotest.(check bool)
    (Printf.sprintf "identical: indep L %.4f < coord %.4f" (var_l identical)
       (var_c identical))
    true
    (var_l identical < var_c identical);
  (* Coordination always beats the independent HT baseline. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "coord <= indep HT" true
        (var_c v <= Ht.max_pps_variance ~taus ~v +. 1e-9))
    [ dissimilar; identical; [| 0.5; 0.2 |] ]

let test_coord_sum_covariance () =
  check_float "independent" 0.
    (Coordinated.sum_covariance ~p1:0.3 ~p2:0.5 ~v1:2. ~v2:3. ~shared:false);
  (* shared: (min(p1,p2)/(p1 p2) − 1) v1 v2 *)
  check_float "shared"
    (((0.3 /. 0.15) -. 1.) *. 6.)
    (Coordinated.sum_covariance ~p1:0.3 ~p2:0.5 ~v1:2. ~v2:3. ~shared:true);
  (* Cross-check against direct integration: E[v̂1 v̂2] − v1v2 under a
     shared seed with PPS thresholds τi = vi/pi. *)
  let p1 = 0.3 and p2 = 0.5 and v1 = 2. and v2 = 3. in
  let taus = [| v1 /. p1; v2 /. p2 |] in
  let cov =
    Coordinated.expectation ~taus ~v:[| v1; v2 |] (fun o ->
        let e1 = if o.P.values.(0) <> None then v1 /. p1 else 0. in
        let e2 = if o.P.values.(1) <> None then v2 /. p2 else 0. in
        e1 *. e2)
    -. (v1 *. v2)
  in
  check_float ~eps:1e-8 "integration agrees" cov
    (Coordinated.sum_covariance ~p1 ~p2 ~v1 ~v2 ~shared:true)

let test_coord_dominance_end_to_end () =
  (* Sampled estimate with Shared seeds is unbiased over masters. *)
  let rng = Numerics.Prng.create ~seed:50 () in
  let mk () =
    I.of_assoc
      (List.init 200 (fun i ->
           ( i + 1,
             if Numerics.Prng.float rng < 0.2 then 0.
             else 1. +. (10. *. Numerics.Prng.float rng) )))
  in
  let instances = [ mk (); mk () ] in
  let truth = I.max_dominance instances in
  let taus = [| 15.; 15. |] in
  let acc = Numerics.Stats.Acc.create () in
  for m = 1 to 300 do
    let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Shared in
    let samples = Aggregates.Sum_agg.sample_pps seeds ~taus instances in
    Numerics.Stats.Acc.add acc
      (Aggregates.Dominance.max_dominance_coordinated samples
         ~select:(fun _ -> true))
  done;
  let mean = Numerics.Stats.Acc.mean acc in
  let sd = sqrt (Numerics.Stats.Acc.var acc /. 300.) in
  if abs_float (mean -. truth) > 5. *. sd then
    Alcotest.failf "coordinated maxdom biased: %g vs %g" mean truth;
  (* And the exact variance predicts the empirical one. *)
  let vc =
    Aggregates.Dominance.exact_variance_coordinated ~taus ~instances
      ~select:(fun _ -> true)
  in
  let emp = Numerics.Stats.Acc.var acc in
  Alcotest.(check bool)
    (Printf.sprintf "variance %.1f ~ %.1f" emp vc)
    true
    (emp > vc /. 2. && emp < vc *. 2.)

let test_coord_distinct () =
  let a, b = Workload.Setpairs.pair ~n:2_000 ~jaccard:0.5 in
  let truth = float_of_int (Workload.Setpairs.union_size a b) in
  let p = 0.2 in
  let acc = Numerics.Stats.Acc.create () in
  for m = 1 to 300 do
    let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Shared in
    let s1 = Aggregates.Distinct.sample_binary seeds ~p ~instance:0 a in
    let s2 = Aggregates.Distinct.sample_binary seeds ~p ~instance:1 b in
    Numerics.Stats.Acc.add acc
      (Aggregates.Distinct.coordinated_estimate ~p ~samples:[| s1; s2 |]
         ~select:(fun _ -> true))
  done;
  let mean = Numerics.Stats.Acc.mean acc in
  let sd = sqrt (Numerics.Stats.Acc.var acc /. 300.) in
  if abs_float (mean -. truth) > 5. *. sd then
    Alcotest.failf "coordinated distinct biased: %g vs %g" mean truth;
  (* Exact variance formula. *)
  let pred = Aggregates.Distinct.var_coordinated ~d:truth ~p in
  let emp = Numerics.Stats.Acc.var acc in
  Alcotest.(check bool) "variance matches d(1/p-1)" true
    (emp > pred /. 1.5 && emp < pred *. 1.5)

let test_coord_vs_independent_formulas () =
  (* Distinct counts, per key class: coordination beats independent L on
     "change" keys (1,0) — by ≈ 1/(4p) for small p — while independent L
     beats coordination on "no change" keys (1,1) by a factor ≈ 2 (two
     independent chances to sample). HT is dominated by both. *)
  List.iter
    (fun p ->
      let vc = Aggregates.Distinct.var_coordinated ~d:1. ~p in
      Alcotest.(check bool) "coord beats L on (1,0)" true
        (vc <= Or_oblivious.var_l_10 ~p1:p ~p2:p +. 1e-9);
      Alcotest.(check bool) "L beats coord on (1,1)" true
        (Or_oblivious.var_l_11 ~p1:p ~p2:p <= vc +. 1e-9);
      Alcotest.(check bool) "coord beats HT" true
        (vc <= Or_oblivious.var_ht ~probs:[| p; p |] +. 1e-9))
    [ 0.05; 0.1; 0.3; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Bottom-k plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let test_bottom_k_binary_sample () =
  let inst = I.of_keys (List.init 100 (fun i -> i + 1)) in
  let seeds = Sampling.Seeds.create ~master:3 Sampling.Seeds.Independent in
  let keys, p = Aggregates.Distinct.sample_binary_bottom_k seeds ~k:10 ~instance:0 inst in
  Alcotest.(check int) "k keys" 10 (List.length keys);
  (* p is the (k+1)-smallest seed: every sampled key has seed < p, and
     exactly k keys do. *)
  let below =
    I.fold
      (fun h _ acc ->
        if Sampling.Seeds.seed seeds ~instance:0 ~key:h < p then h :: acc
        else acc)
      inst []
    |> List.sort compare
  in
  Alcotest.(check (list int)) "sample = keys below threshold" below keys

let test_bottom_k_binary_small_support () =
  let inst = I.of_keys [ 1; 2; 3 ] in
  let seeds = Sampling.Seeds.create ~master:3 Sampling.Seeds.Independent in
  let keys, p = Aggregates.Distinct.sample_binary_bottom_k seeds ~k:10 ~instance:0 inst in
  Alcotest.(check int) "all keys" 3 (List.length keys);
  check_float "p = 1" 1. p

let test_bottom_k_distinct_unbiased () =
  let r = Experiments.Bottomk.distinct_bottom_k ~n:2_000 ~k:300 ~masters:150 () in
  (* Empirical mean within 5 empirical standard errors of the truth. *)
  let se = r.Experiments.Bottomk.rel_sd *. r.Experiments.Bottomk.truth /. sqrt 150. in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f vs truth %.1f" r.Experiments.Bottomk.mean
       r.Experiments.Bottomk.truth)
    true
    (abs_float (r.Experiments.Bottomk.mean -. r.Experiments.Bottomk.truth)
    < 5. *. se);
  (* Spread within 35% of the Poisson prediction. *)
  Alcotest.(check bool) "spread matches Poisson" true
    (r.Experiments.Bottomk.rel_sd
     /. r.Experiments.Bottomk.predicted_rel_sd < 1.35
    && r.Experiments.Bottomk.rel_sd /. r.Experiments.Bottomk.predicted_rel_sd
       > 0.65)

let test_sample_priority_shape () =
  let rng = Numerics.Prng.create ~seed:9 () in
  let mk () =
    I.of_assoc
      (List.init 150 (fun i -> (i + 1, 1. +. (10. *. Numerics.Prng.float rng))))
  in
  let instances = [ mk (); mk () ] in
  let seeds = Sampling.Seeds.create ~master:4 Sampling.Seeds.Independent in
  let s = Aggregates.Sum_agg.sample_priority seeds ~k:20 instances in
  Array.iter
    (fun (smp : Sampling.Poisson.pps) ->
      Alcotest.(check int) "k entries" 20 (List.length smp.Sampling.Poisson.entries))
    s.Aggregates.Sum_agg.samples;
  (* Every sampled key satisfies the PPS rule with the reported tau. *)
  Array.iteri
    (fun i (smp : Sampling.Poisson.pps) ->
      List.iter
        (fun (h, v) ->
          let u = Sampling.Seeds.seed seeds ~instance:i ~key:h in
          Alcotest.(check bool) "v >= u tau" true
            (v >= u *. smp.Sampling.Poisson.tau))
        smp.Sampling.Poisson.entries)
    s.Aggregates.Sum_agg.samples

let test_priority_maxdom_unbiased () =
  let l, ht = Experiments.Bottomk.maxdom_priority ~k:150 ~masters:120 () in
  List.iter
    (fun r ->
      let se = r.Experiments.Bottomk.rel_sd *. r.Experiments.Bottomk.truth /. sqrt 120. in
      Alcotest.(check bool)
        (Printf.sprintf "%s: mean %.4e vs %.4e" r.Experiments.Bottomk.label
           r.Experiments.Bottomk.mean r.Experiments.Bottomk.truth)
        true
        (abs_float (r.Experiments.Bottomk.mean -. r.Experiments.Bottomk.truth)
        < 5. *. se))
    [ l; ht ];
  (* L beats HT empirically too. *)
  Alcotest.(check bool) "L tighter than HT" true
    (l.Experiments.Bottomk.rel_sd < ht.Experiments.Bottomk.rel_sd)

(* ------------------------------------------------------------------ *)
(* Multi-instance distinct count (r = 3)                               *)
(* ------------------------------------------------------------------ *)

let multi_instances =
  let rng = Numerics.Prng.create ~seed:4 () in
  Array.init 3 (fun _ ->
      I.of_keys
        (List.filter
           (fun _ -> Numerics.Prng.float rng < 0.7)
           (List.init 1_500 (fun i -> i + 1))))

let test_multi_distinct_unbiased () =
  let truth =
    float_of_int (I.distinct_count (Array.to_list multi_instances))
  in
  let probs = [| 0.15; 0.2; 0.25 |] in
  let t = Aggregates.Distinct.Multi.create ~probs in
  let acc_l = Numerics.Stats.Acc.create () in
  let acc_ht = Numerics.Stats.Acc.create () in
  for m = 1 to 250 do
    let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
    let samples =
      Array.mapi
        (fun i inst ->
          Aggregates.Distinct.sample_binary seeds ~p:probs.(i) ~instance:i inst)
        multi_instances
    in
    Numerics.Stats.Acc.add acc_l
      (Aggregates.Distinct.Multi.estimate t seeds ~samples
         ~select:(fun _ -> true));
    Numerics.Stats.Acc.add acc_ht
      (Aggregates.Distinct.Multi.ht_estimate ~probs seeds ~samples
         ~select:(fun _ -> true))
  done;
  List.iter
    (fun (label, acc) ->
      let mean = Numerics.Stats.Acc.mean acc in
      let sd = sqrt (Numerics.Stats.Acc.var acc /. 250.) in
      if abs_float (mean -. truth) > 5. *. sd then
        Alcotest.failf "%s biased: %g vs %g" label mean truth)
    [ ("L", acc_l); ("HT", acc_ht) ];
  (* The General OR^(L) must be far tighter than HT at these rates. *)
  Alcotest.(check bool) "L ≪ HT spread" true
    (Numerics.Stats.Acc.var acc_l < Numerics.Stats.Acc.var acc_ht /. 4.)

let test_multi_distinct_r2_consistency () =
  (* At r = 2 the Multi estimator must coincide with the Section 8.1
     class-count formula. *)
  let a, b = Workload.Setpairs.pair ~n:500 ~jaccard:0.4 in
  let probs = [| 0.3; 0.45 |] in
  let t = Aggregates.Distinct.Multi.create ~probs in
  let seeds = Sampling.Seeds.create ~master:77 Sampling.Seeds.Independent in
  let s1 = Aggregates.Distinct.sample_binary seeds ~p:probs.(0) ~instance:0 a in
  let s2 = Aggregates.Distinct.sample_binary seeds ~p:probs.(1) ~instance:1 b in
  let c =
    Aggregates.Distinct.classify seeds ~p1:probs.(0) ~p2:probs.(1) ~s1 ~s2
      ~select:(fun _ -> true)
  in
  check_float ~eps:1e-9 "Multi = classify-based L"
    (Aggregates.Distinct.l_estimate c ~p1:probs.(0) ~p2:probs.(1))
    (Aggregates.Distinct.Multi.estimate t seeds ~samples:[| s1; s2 |]
       ~select:(fun _ -> true))

let test_multi_arity_guard () =
  let t = Aggregates.Distinct.Multi.create ~probs:[| 0.3; 0.3; 0.3 |] in
  let seeds = Sampling.Seeds.create ~master:1 Sampling.Seeds.Independent in
  Alcotest.check_raises "arity"
    (Invalid_argument "Distinct.Multi.estimate: arity mismatch") (fun () ->
      ignore
        (Aggregates.Distinct.Multi.estimate t seeds ~samples:[| []; [] |]
           ~select:(fun _ -> true)))

(* ------------------------------------------------------------------ *)
(* Lemma 2.1 bounds                                                    *)
(* ------------------------------------------------------------------ *)

let or2 v = if vmax v > 0.5 then 1. else 0.
let xor2 v = if (v.(0) > 0.5) <> (v.(1) > 0.5) then 1. else 0.

let test_delta_xor_zero () =
  (* XOR with unknown seeds: data (1,0) has Δ = 0 (witness (1,1) is
     consistent with every outcome of (1,0)), proving non-existence. *)
  let problem = Designer.Problems.binary_unknown_seeds ~probs:[| 0.6; 0.6 |] ~f:xor2 () in
  check_float "delta = 0" 0. (Bounds.delta problem ~v:[| 1.; 0. |] ~eps:0.5);
  match Bounds.witness problem ~v:[| 1.; 0. |] ~eps:0.5 with
  | Some (z, mass) ->
      check_float "witness mass 1" 1. mass;
      Alcotest.(check bool) "witness is below f(v)-eps" true (xor2 z <= 0.5)
  | None -> Alcotest.fail "expected witness"

let test_delta_or_positive () =
  (* OR with known seeds: Δ > 0 everywhere (estimator exists). *)
  let problem = Designer.Problems.binary_known_seeds ~probs:[| 0.3; 0.3 |] ~f:or2 () in
  List.iter
    (fun v ->
      if or2 v > 0. then
        Alcotest.(check bool) "delta positive" true
          (Bounds.delta problem ~v ~eps:0.5 > 0.))
    problem.Designer.data

let test_delta_no_witness () =
  (* ε larger than the function's range: Δ = 1. *)
  let problem = Designer.Problems.binary_known_seeds ~probs:[| 0.3; 0.3 |] ~f:or2 () in
  check_float "delta = 1" 1. (Bounds.delta problem ~v:[| 1.; 1. |] ~eps:5.)

let test_refutes_matches_lp () =
  (* refutes_existence ⇒ LP infeasible (Lemma 2.1 is necessary only):
     check the implication across a battery of problems. *)
  let check label problem =
    let refuted = Bounds.refutes_existence problem in
    let exists = Existence.exists problem in
    if refuted && exists then
      Alcotest.failf "%s: delta = 0 but LP found an estimator" label
  in
  check "xor unknown"
    (Designer.Problems.binary_unknown_seeds ~probs:[| 0.6; 0.6 |] ~f:xor2 ());
  check "xor known"
    (Designer.Problems.binary_known_seeds ~probs:[| 0.6; 0.6 |] ~f:xor2 ());
  check "or unknown p<1"
    (Designer.Problems.binary_unknown_seeds ~probs:[| 0.3; 0.3 |] ~f:or2 ());
  check "or known"
    (Designer.Problems.binary_known_seeds ~probs:[| 0.3; 0.3 |] ~f:or2 ());
  (* And the Δ-criterion does fire on XOR/unknown. *)
  Alcotest.(check bool) "xor refuted by delta" true
    (Bounds.refutes_existence
       (Designer.Problems.binary_unknown_seeds ~probs:[| 0.6; 0.6 |] ~f:xor2 ()))

(* ------------------------------------------------------------------ *)
(* Monotonicity checker                                                *)
(* ------------------------------------------------------------------ *)

let test_monotone_or_l () =
  let probs = [| 0.4; 0.6 |] in
  let problem =
    Designer.Problems.oblivious ~probs ~grid:[ 0.; 1. ] ~f:vmax ()
    |> Designer.Problems.sort_data Designer.Problems.order_l
  in
  match Designer.solve_order problem with
  | Error e -> Alcotest.failf "derivation failed: %s" e
  | Ok est ->
      Alcotest.(check bool) "OR^(L) is monotone" true
        (Designer.is_monotone problem est)

let test_monotone_detects_violation () =
  (* A deliberately non-monotone estimator must be flagged: use the HT
     max estimator modified to a large value on a partial outcome. *)
  let probs = [| 0.5; 0.5 |] in
  let problem =
    Designer.Problems.oblivious ~probs ~grid:[ 0.; 1. ] ~f:vmax ()
    |> Designer.Problems.sort_data Designer.Problems.order_l
  in
  match Designer.solve_order problem with
  | Error e -> Alcotest.failf "derivation failed: %s" e
  | Ok est ->
      (* est is monotone; break it through a wrapper problem where the
         full outcome for (1,1) gets a lower value than the partial one.
         Simplest check: partition-based Uas is monotone as well, while a
         hand-made table is not. Construct the broken table directly. *)
      ignore est;
      (* Outcome keys as produced by Problems.oblivious: value vectors.
         The full outcome for (1,1) gets a smaller estimate than the
         less-informative one-entry outcomes — a monotonicity breach. *)
      let broken =
        Designer.of_bindings
          [
            ([| None; None |], 0.);
            ([| Some 1.; None |], 5.);
            ([| None; Some 1. |], 5.);
            ([| Some 1.; Some 1. |], 1.);
            ([| Some 0.; None |], 0.);
            ([| None; Some 0. |], 0.);
            ([| Some 0.; Some 0. |], 0.);
            ([| Some 1.; Some 0. |], 2.);
            ([| Some 0.; Some 1. |], 2.);
          ]
      in
      Alcotest.(check bool) "violation detected" false
        (Designer.is_monotone problem broken)

(* ------------------------------------------------------------------ *)
(* Section 6 completion                                                *)
(* ------------------------------------------------------------------ *)

let test_xor_known_seeds_feasible () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "xor known seeds p=%.2f" p)
        true
        (Existence.xor_known_seeds ~p1:p ~p2:p))
    [ 0.1; 0.3; 0.7 ]

let test_xor_known_seeds_derivable () =
  (* And the designer actually produces an unbiased nonnegative XOR
     estimator with known seeds. *)
  let problem = Designer.Problems.binary_known_seeds ~probs:[| 0.4; 0.4 |] ~f:xor2 () in
  let batches =
    Designer.Problems.batches_by
      (fun v -> Array.fold_left (fun a x -> if x > 0. then a + 1 else a) 0 v)
      problem.Designer.data
  in
  match Designer.solve_partition ~batches ~f:xor2 ~dist:problem.Designer.dist () with
  | Error e -> Alcotest.failf "derivation failed: %s" e
  | Ok est ->
      Alcotest.(check bool) "unbiased" true (Designer.is_unbiased problem est);
      Alcotest.(check bool) "nonnegative" true (Designer.min_estimate est >= -1e-7)

(* ------------------------------------------------------------------ *)
(* E17: derived quantile / range estimators                            *)
(* ------------------------------------------------------------------ *)

let test_median3_dominates () =
  match Experiments.Quantiles.median3 () with
  | Error e -> Alcotest.failf "median derivation failed: %s" e
  | Ok rows ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "derived <= HT on (%g,%g,%g)"
               r.Experiments.Quantiles.data.(0)
               r.Experiments.Quantiles.data.(1)
               r.Experiments.Quantiles.data.(2))
            true
            (r.Experiments.Quantiles.var_derived
            <= r.Experiments.Quantiles.var_ht +. 1e-9))
        rows;
      (* Strict improvement somewhere. *)
      Alcotest.(check bool) "strictly better somewhere" true
        (List.exists
           (fun r ->
             r.Experiments.Quantiles.var_derived
             < r.Experiments.Quantiles.var_ht -. 1e-6)
           rows)

let test_range3_dominates () =
  match Experiments.Quantiles.range3 () with
  | Error e -> Alcotest.failf "range derivation failed: %s" e
  | Ok rows ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "derived <= HT" true
            (r.Experiments.Quantiles.var_derived
            <= r.Experiments.Quantiles.var_ht +. 1e-9))
        rows

let test_quantiles_other_p () =
  (* Derivations stay sound across sampling probabilities. *)
  List.iter
    (fun p ->
      (match Experiments.Quantiles.median3 ~p () with
      | Error e -> Alcotest.failf "median p=%.2f: %s" p e
      | Ok _ -> ());
      match Experiments.Quantiles.range3 ~p () with
      | Error e -> Alcotest.failf "range p=%.2f: %s" p e
      | Ok _ -> ())
    [ 0.2; 0.6 ]

(* ------------------------------------------------------------------ *)
(* Cross-checks and fuzzing                                            *)
(* ------------------------------------------------------------------ *)

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let test_general_vs_coeffs_prefix_sums () =
  (* Uniform p: General's prefix sums equal Theorem 4.2's A_i. *)
  List.iter
    (fun (r, p) ->
      let g = Max_oblivious.General.create ~probs:(Array.make r p) in
      let pre = Max_oblivious.Coeffs.prefix_sums (Max_oblivious.Coeffs.compute ~r ~p) in
      for h = 1 to r do
        let a = Max_oblivious.General.prefix_sum g (List.init h Fun.id) in
        if not (Numerics.Special.float_equal ~eps:1e-9 a pre.(h - 1)) then
          Alcotest.failf "A_%d at r=%d p=%.2f: %g vs %g" h r p a pre.(h - 1)
      done)
    [ (2, 0.3); (3, 0.5); (4, 0.2); (5, 0.7); (6, 0.45) ]

let prop_solve_order_sound =
  qtest ~count:60 "Algorithm 1 results are always unbiased when Ok"
    QCheck.small_int
    (fun seed ->
      let rng = Numerics.Prng.create ~seed () in
      let r = 2 + Numerics.Prng.int rng 2 in
      let probs =
        Array.init r (fun _ -> 0.1 +. (0.8 *. Numerics.Prng.float rng))
      in
      let grid = [ 0.; 1.; 1. +. Numerics.Prng.float rng ] in
      let f v = Array.fold_left Float.max 0. v in
      let problem =
        Designer.Problems.oblivious ~probs ~grid ~f ()
        |> Designer.Problems.sort_data Designer.Problems.order_l
      in
      match Designer.solve_order problem with
      | Error _ -> true
      | Ok est -> Designer.is_unbiased problem est)

let prop_instance_invariants =
  qtest ~count:100 "instance invariants"
    QCheck.(list_of_size Gen.(0 -- 30) (pair small_nat (float_bound_inclusive 10.)))
    (fun pairs ->
      let pairs = List.map (fun (k, v) -> (k, abs_float v)) pairs in
      let i = I.of_assoc pairs in
      let keys = I.keys i in
      List.sort compare keys = keys
      && I.cardinality i = List.length keys
      && List.for_all (fun h -> I.value i h > 0.) keys
      && I.total i >= 0.)

let prop_jaccard_bounds =
  qtest ~count:100 "jaccard within [0,1] and symmetric"
    QCheck.(pair (list_of_size Gen.(0 -- 20) small_nat) (list_of_size Gen.(0 -- 20) small_nat))
    (fun (ka, kb) ->
      let a = I.of_keys ka and b = I.of_keys kb in
      let j = I.jaccard a b in
      j >= 0. && j <= 1.
      && Numerics.Special.float_equal j (I.jaccard b a))

let test_summary_empty_instance () =
  let seeds = Sampling.Seeds.create ~master:1 Sampling.Seeds.Independent in
  List.iter
    (fun scheme ->
      let s = Sampling.Summary.summarize seeds scheme ~instance:0 I.empty in
      Alcotest.(check int) "empty" 0 (Sampling.Summary.size s);
      check_float "zero estimate" 0.
        (Sampling.Summary.subset_sum s ~select:(fun _ -> true)))
    [
      Sampling.Summary.Poisson_pps { tau = 10. };
      Sampling.Summary.Bottom_k { k = 4; family = Sampling.Rank.PPS };
      Sampling.Summary.Var_opt { k = 4 };
    ]

let test_tau_for_expected_size_guards () =
  let inst = I.of_assoc [ (1, 2.); (2, 3.) ] in
  Alcotest.check_raises "k too large"
    (Invalid_argument
       "Poisson.tau_for_expected_size: k = 3 not in (0, 2] (instance has 2 \
        keys)") (fun () ->
      ignore (Sampling.Poisson.tau_for_expected_size inst 3.));
  (* k = cardinality → a positive tau with every p_h = 1 (tau = 0 would
     be rejected by pps_sample). *)
  check_float "k = n" 2. (Sampling.Poisson.tau_for_expected_size inst 2.)

let () =
  Alcotest.run "extensions"
    [
      ( "coordinated",
        [
          Alcotest.test_case "outcome shape" `Quick test_coord_outcome;
          Alcotest.test_case "nesting" `Quick test_coord_nesting;
          Alcotest.test_case "E[indicator]" `Quick test_coord_expectation_indicator;
          Alcotest.test_case "max unbiased" `Quick test_coord_max_unbiased;
          Alcotest.test_case "max variance closed form" `Quick test_coord_max_variance_equal_tau;
          Alcotest.test_case "min unbiased" `Quick test_coord_min_unbiased;
          Alcotest.test_case "coord/indep trade-off" `Quick test_coord_vs_independent_tradeoff;
          Alcotest.test_case "sum covariance" `Quick test_coord_sum_covariance;
          Alcotest.test_case "dominance end-to-end" `Slow test_coord_dominance_end_to_end;
          Alcotest.test_case "distinct end-to-end" `Slow test_coord_distinct;
          Alcotest.test_case "beats independent formulas" `Quick test_coord_vs_independent_formulas;
        ] );
      ( "bottom-k-apps",
        [
          Alcotest.test_case "binary sample + threshold" `Quick test_bottom_k_binary_sample;
          Alcotest.test_case "small support" `Quick test_bottom_k_binary_small_support;
          Alcotest.test_case "distinct unbiased" `Slow test_bottom_k_distinct_unbiased;
          Alcotest.test_case "priority samples shape" `Quick test_sample_priority_shape;
          Alcotest.test_case "priority maxdom unbiased" `Slow test_priority_maxdom_unbiased;
        ] );
      ( "multi-distinct",
        [
          Alcotest.test_case "r=3 unbiased, L ≪ HT" `Slow test_multi_distinct_unbiased;
          Alcotest.test_case "r=2 consistency" `Quick test_multi_distinct_r2_consistency;
          Alcotest.test_case "arity guard" `Quick test_multi_arity_guard;
          Alcotest.test_case "exact variance matches 2-period formula" `Quick
            (fun () ->
              (* r=2: Multi.exact_variance must reproduce the Section 8.1
                 Jaccard variance formula. *)
              let n11 = 40 and n10 = 25 and n01 = 35 in
              let memberships =
                Array.init (n11 + n10 + n01) (fun i ->
                    if i < n11 then [| true; true |]
                    else if i < n11 + n10 then [| true; false |]
                    else [| false; true |])
              in
              let p = 0.3 in
              let t = Aggregates.Distinct.Multi.create ~probs:[| p; p |] in
              let d = float_of_int (n11 + n10 + n01) in
              let j = float_of_int n11 /. d in
              check_float ~eps:1e-9 "matches var_l"
                (Aggregates.Distinct.var_l ~d ~jaccard:j ~p1:p ~p2:p)
                (Aggregates.Distinct.Multi.exact_variance t ~memberships));
        ] );
      ( "multi-period",
        [
          Alcotest.test_case "advantage grows with r" `Quick
            (fun () ->
              let rows = Experiments.Multiperiod.series ~n_keys:2_000 () in
              let advs = List.map (fun r -> r.Experiments.Multiperiod.advantage) rows in
              Alcotest.(check bool) "monotone growth" true
                (List.sort compare advs = advs);
              Alcotest.(check bool) "large at r=5" true
                (List.nth advs 3 > 50.));
          Alcotest.test_case "HT variance ~ p^-r scaling" `Quick
            (fun () ->
              (* For an always-present key, Var[HT] = (1/p^r − 1); check the
                 series' HT column is dominated by that scaling. *)
              let rows = Experiments.Multiperiod.series ~n_keys:2_000 ~present_prob:1.0 () in
              List.iter
                (fun r ->
                  let p = 0.1 in
                  let expect =
                    r.Experiments.Multiperiod.truth
                    *. ((1. /. (p ** float_of_int r.Experiments.Multiperiod.r)) -. 1.)
                  in
                  if
                    not
                      (Numerics.Special.float_equal ~eps:1e-6 expect
                         r.Experiments.Multiperiod.var_ht)
                  then
                    Alcotest.failf "r=%d: %g vs %g" r.Experiments.Multiperiod.r
                      expect r.Experiments.Multiperiod.var_ht)
                rows);
          Alcotest.test_case "empirical sanity" `Slow
            (fun () ->
              let err, pred = Experiments.Multiperiod.empirical_check ~masters:30 ~p:0.1 ~r:3 () in
              Alcotest.(check bool) "errors in line with prediction" true
                (err < 3. *. pred));
        ] );
      ( "lemma-2.1",
        [
          Alcotest.test_case "XOR has delta 0" `Quick test_delta_xor_zero;
          Alcotest.test_case "OR/known has delta > 0" `Quick test_delta_or_positive;
          Alcotest.test_case "no witness → 1" `Quick test_delta_no_witness;
          Alcotest.test_case "refutation ⇒ LP infeasible" `Quick test_refutes_matches_lp;
        ] );
      ( "lemma-3.2",
        [
          Alcotest.test_case "OR^(L) monotone" `Quick test_monotone_or_l;
          Alcotest.test_case "detects violations" `Quick test_monotone_detects_violation;
        ] );
      ( "derived-quantiles",
        [
          Alcotest.test_case "median of 3 dominates HT" `Quick test_median3_dominates;
          Alcotest.test_case "range r=3 dominates HT" `Quick test_range3_dominates;
          Alcotest.test_case "other probabilities" `Quick test_quantiles_other_p;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "nonempty and well-formed" `Quick
            (fun () ->
              Alcotest.(check bool) "many entries" true
                (List.length Catalog.all >= 12);
              List.iter
                (fun e ->
                  Alcotest.(check bool) "fields populated" true
                    (e.Catalog.name <> "" && e.Catalog.source <> ""
                    && e.Catalog.properties <> []))
                Catalog.all;
              let b = Buffer.create 1024 in
              let f = Format.formatter_of_buffer b in
              Catalog.print f;
              Format.pp_print_flush f ();
              Alcotest.(check bool) "prints" true (Buffer.length b > 500));
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "General = Coeffs prefix sums" `Quick
            test_general_vs_coeffs_prefix_sums;
          prop_solve_order_sound;
          prop_instance_invariants;
          prop_jaccard_bounds;
          Alcotest.test_case "summary of empty instance" `Quick
            test_summary_empty_instance;
          Alcotest.test_case "tau_for_expected_size guards" `Quick
            test_tau_for_expected_size_guards;
        ] );
      ( "section-6",
        [
          Alcotest.test_case "XOR known seeds feasible" `Quick test_xor_known_seeds_feasible;
          Alcotest.test_case "XOR known seeds derivable" `Quick test_xor_known_seeds_derivable;
        ] );
    ]
