(* Tests for the paper's estimators: unbiasedness (exact), the printed
   closed forms, dominance, monotonicity, nonnegativity, and the variance
   formulas of Sections 4 and 5. *)

open Estcore
module OO = Sampling.Outcome.Oblivious
module OP = Sampling.Outcome.Pps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Numerics.Special.float_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let vmax = Array.fold_left Float.max 0.

(* Grids used throughout. *)
let prob_grid = [ (0.5, 0.5); (0.3, 0.6); (0.15, 0.8); (0.9, 0.2) ]

let value_grid =
  [
    [| 0.; 0. |];
    [| 1.; 0. |];
    [| 0.; 1. |];
    [| 1.; 1. |];
    [| 5.; 2. |];
    [| 2.; 5. |];
    [| 3.; 3. |];
    [| 0.; 7. |];
  ]

(* ------------------------------------------------------------------ *)
(* Ht                                                                  *)
(* ------------------------------------------------------------------ *)

let test_ht_single () =
  check_float "sampled" 10. (Ht.single ~p:0.5 ~sampled:true ~value:5.);
  check_float "unsampled" 0. (Ht.single ~p:0.5 ~sampled:false ~value:5.);
  check_float "variance (1)" 25. (Ht.single_variance ~p:0.5 ~value:5.)

let test_ht_single_variance_exact () =
  (* Bernoulli(p) of v/p: exact variance equals eq. (1). *)
  let p = 0.3 and v = 4. in
  let exact = (p *. ((v /. p) ** 2.)) -. (v *. v) in
  check_float "eq (1)" exact (Ht.single_variance ~p ~value:v)

let test_ht_multi_oblivious () =
  let probs = [| 0.5; 0.4 |] in
  let o_all = OO.of_mask ~probs [| 3.; 7. |] [| true; true |] in
  let o_one = OO.of_mask ~probs [| 3.; 7. |] [| true; false |] in
  check_float "positive when all sampled" (7. /. 0.2) (Ht.max_oblivious o_all);
  check_float "zero otherwise" 0. (Ht.max_oblivious o_one);
  check_float "min" (3. /. 0.2) (Ht.min_oblivious o_all);
  check_float "range" (4. /. 0.2) (Ht.range_oblivious o_all);
  check_float "2nd largest" (3. /. 0.2) (Ht.quantile_oblivious ~l:2 o_all)

let test_ht_unbiased_exact () =
  List.iter
    (fun (p1, p2) ->
      List.iter
        (fun v ->
          let probs = [| p1; p2 |] in
          let m = Exact.oblivious ~probs ~v Ht.max_oblivious in
          check_float ~eps:1e-9 "E[HT] = max" (vmax v) m.Exact.mean;
          check_float ~eps:1e-9 "Var[HT] closed form"
            (Ht.multi_oblivious_variance ~probs ~fv:(vmax v))
            m.Exact.var)
        value_grid)
    prob_grid

let test_ht_max_pps_cases () =
  let taus = [| 1.; 1. |] in
  (* Both sampled: estimate max / (p1*p2) with p_i = min(1, max/tau_i). *)
  let o = OP.of_seeds ~taus ~seeds:[| 0.1; 0.1 |] [| 0.6; 0.3 |] in
  check_float "determined" (0.6 /. (0.6 *. 0.6)) (Ht.max_pps o);
  (* One sampled, unsampled bound below the sampled max: determined. *)
  let o = OP.of_seeds ~taus ~seeds:[| 0.1; 0.5 |] [| 0.6; 0.3 |] in
  check_float "bound below max" (0.6 /. (0.6 *. 0.6)) (Ht.max_pps o);
  (* One sampled, bound above the max: zero. *)
  let o = OP.of_seeds ~taus ~seeds:[| 0.1; 0.8 |] [| 0.6; 0.3 |] in
  check_float "bound above max" 0. (Ht.max_pps o);
  (* Empty outcome: zero. *)
  let o = OP.of_seeds ~taus ~seeds:[| 0.9; 0.8 |] [| 0.6; 0.3 |] in
  check_float "empty" 0. (Ht.max_pps o)

let test_ht_max_pps_unbiased () =
  List.iter
    (fun (taus, v) ->
      let m = Exact.pps ~taus ~v Ht.max_pps in
      check_float ~eps:1e-8 "E = max" (vmax v) m.Exact.mean;
      check_float ~eps:1e-7 "variance closed form"
        (Ht.max_pps_variance ~taus ~v)
        m.Exact.var)
    [
      ([| 1.; 1. |], [| 0.6; 0.3 |]);
      ([| 1.; 1.3 |], [| 0.9; 0.05 |]);
      ([| 1.3; 0.6 |], [| 0.9; 0.3 |]);
      ([| 1.; 1. |], [| 0.; 0.4 |]);
    ]

let test_ht_min_pps_unbiased () =
  let taus = [| 1.; 1.3 |] in
  let v = [| 0.6; 0.3 |] in
  let m = Exact.pps ~taus ~v Ht.min_pps in
  check_float ~eps:1e-8 "E = min" 0.3 m.Exact.mean

(* ------------------------------------------------------------------ *)
(* Max_oblivious: the L estimator                                      *)
(* ------------------------------------------------------------------ *)

let test_l_r2_unbiased_grid () =
  List.iter
    (fun (p1, p2) ->
      List.iter
        (fun v ->
          let m = Exact.oblivious ~probs:[| p1; p2 |] ~v Max_oblivious.l_r2 in
          check_float ~eps:1e-9
            (Printf.sprintf "E[L] p=(%.2f,%.2f)" p1 p2)
            (vmax v) m.Exact.mean)
        value_grid)
    prob_grid

let test_l_r2_figure1_table () =
  (* Figure 1's table at p = 1/2, data (v1, v2) = (3, 2). *)
  let probs = [| 0.5; 0.5 |] in
  let v = [| 3.; 2. |] in
  let est mask = Max_oblivious.l_r2 (OO.of_mask ~probs v mask) in
  check_float "S={}" 0. (est [| false; false |]);
  check_float "S={1}" (4. *. 3. /. 3.) (est [| true; false |]);
  check_float "S={2}" (4. *. 2. /. 3.) (est [| false; true |]);
  check_float "S={1,2}" (((8. *. 3.) -. (4. *. 2.)) /. 3.) (est [| true; true |])

let test_l_r2_determining_vector () =
  let probs = [| 0.5; 0.5 |] in
  let o = OO.of_mask ~probs [| 3.; 9. |] [| false; true |] in
  Alcotest.(check (array (float 1e-12)))
    "unsampled gets max sampled" [| 9.; 9. |]
    (Max_oblivious.determining_vector_l o);
  let o0 = OO.of_mask ~probs [| 3.; 9. |] [| false; false |] in
  Alcotest.(check (array (float 1e-12)))
    "empty gets zeros" [| 0.; 0. |]
    (Max_oblivious.determining_vector_l o0)

let test_l_dominates_ht () =
  List.iter
    (fun (p1, p2) ->
      let probs = [| p1; p2 |] in
      Alcotest.(check bool)
        (Printf.sprintf "L dominates HT at (%.2f,%.2f)" p1 p2)
        true
        (Exact.dominates
           ~var_a:(fun v -> Max_oblivious.var_l_r2 ~probs ~v)
           ~var_b:(fun v -> Max_oblivious.var_ht_r2 ~probs ~v)
           value_grid))
    prob_grid

let test_l_u_incomparable () =
  (* Pareto: L beats U on dense data, U beats L on sparse data (p=1/2). *)
  let probs = [| 0.5; 0.5 |] in
  let dense = [| 4.; 4. |] and sparse = [| 4.; 0. |] in
  Alcotest.(check bool) "L better on equal values" true
    (Max_oblivious.var_l_r2 ~probs ~v:dense
    < Max_oblivious.var_u_r2 ~probs ~v:dense);
  Alcotest.(check bool) "U better on single value" true
    (Max_oblivious.var_u_r2 ~probs ~v:sparse
    < Max_oblivious.var_l_r2 ~probs ~v:sparse)

let test_l_monotone_r2 () =
  (* More informative outcomes give estimates at least as large. *)
  List.iter
    (fun (p1, p2) ->
      let probs = [| p1; p2 |] in
      List.iter
        (fun v ->
          let est mask = Max_oblivious.l_r2 (OO.of_mask ~probs v mask) in
          let full = est [| true; true |] in
          Alcotest.(check bool) "S1 le full" true (est [| true; false |] <= full +. 1e-9);
          Alcotest.(check bool) "S2 le full" true (est [| false; true |] <= full +. 1e-9))
        (List.filter (fun v -> vmax v > 0.) value_grid))
    prob_grid

let prop_l_r2_nonnegative =
  qtest "max^(L) r=2 is nonnegative"
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 100.) (float_bound_inclusive 100.))
    (fun (p1, p2, v1, v2) ->
      let p1 = 0.05 +. (0.9 *. p1) and p2 = 0.05 +. (0.9 *. p2) in
      let probs = [| p1; p2 |] in
      List.for_all
        (fun mask ->
          Max_oblivious.l_r2 (OO.of_mask ~probs [| v1; v2 |] mask) >= -1e-9)
        [
          [| false; false |]; [| true; false |]; [| false; true |]; [| true; true |];
        ])

let prop_l_r2_unbiased =
  qtest ~count:100 "max^(L) r=2 unbiased on random data"
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 100.) (float_bound_inclusive 100.))
    (fun (p1, p2, v1, v2) ->
      let p1 = 0.05 +. (0.9 *. p1) and p2 = 0.05 +. (0.9 *. p2) in
      let m =
        Exact.oblivious ~probs:[| p1; p2 |] ~v:[| v1; v2 |] Max_oblivious.l_r2
      in
      Numerics.Special.float_equal ~eps:1e-8 (Float.max v1 v2) m.Exact.mean)

let test_coeffs_closed_forms () =
  List.iter
    (fun p ->
      let c2 = Max_oblivious.Coeffs.compute ~r:2 ~p in
      let a = Max_oblivious.Coeffs.alpha c2 in
      let d = p *. p *. (2. -. p) in
      check_float "alpha1 r2" (1. /. d) a.(0);
      check_float "alpha2 r2" (-.(1. -. p) /. d) a.(1);
      let pre = Max_oblivious.Coeffs.prefix_sums c2 in
      check_float "A2 = 1/(p(2-p))" (1. /. (p *. (2. -. p))) pre.(1);
      check_float "A1" (1. /. d) pre.(0))
    [ 0.1; 0.37; 0.5; 0.8 ]

let test_coeffs_r3_closed_form () =
  let p = 0.42 in
  let c = Max_oblivious.Coeffs.compute ~r:3 ~p in
  let a = Max_oblivious.Coeffs.alpha c in
  let d = 3. -. (3. *. p) +. (p *. p) in
  let p3 = p *. p *. p in
  check_float "alpha1 r3"
    ((2. -. (2. *. p) +. (p *. p)) /. (p3 *. (2. -. p) *. d))
    a.(0);
  check_float "alpha2 r3" (-.(1. -. p) /. (p3 *. d)) a.(1);
  check_float "alpha3 r3"
    (-.((1. -. p) ** 2.) /. (p *. p *. (2. -. p) *. d))
    a.(2)

let test_coeffs_sum_is_ar () =
  (* sum of alphas = A_r = 1/(1 - (1-p)^r): the estimate on all-equal data. *)
  List.iter
    (fun (r, p) ->
      let c = Max_oblivious.Coeffs.compute ~r ~p in
      let total = Array.fold_left ( +. ) 0. (Max_oblivious.Coeffs.alpha c) in
      check_float "sum alpha = A_r"
        (1. /. (1. -. ((1. -. p) ** float_of_int r)))
        total)
    [ (2, 0.3); (4, 0.5); (6, 0.1); (8, 0.7) ]

let test_coeffs_invalid () =
  Alcotest.check_raises "r = 0"
    (Invalid_argument "Coeffs.compute: r must be >= 1") (fun () ->
      ignore (Max_oblivious.Coeffs.compute ~r:0 ~p:0.5));
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Coeffs.compute: p must be in (0,1]") (fun () ->
      ignore (Max_oblivious.Coeffs.compute ~r:2 ~p:0.))

let test_l_uniform_unbiased_r345 () =
  List.iter
    (fun r ->
      let p = 0.35 in
      let c = Max_oblivious.Coeffs.compute ~r ~p in
      let probs = Array.make r p in
      List.iter
        (fun v ->
          let m = Exact.oblivious ~probs ~v (Max_oblivious.l_uniform c) in
          check_float ~eps:1e-8
            (Printf.sprintf "unbiased r=%d" r)
            (vmax v) m.Exact.mean)
        [
          Array.init r (fun i -> float_of_int (i + 1));
          Array.make r 2.;
          Array.init r (fun i -> if i = r - 1 then 9. else 0.);
          Array.init r (fun i -> float_of_int (i mod 2));
        ])
    [ 3; 4; 5 ]

let test_l_uniform_matches_r2 () =
  let p = 0.4 in
  let c = Max_oblivious.Coeffs.compute ~r:2 ~p in
  let probs = [| p; p |] in
  List.iter
    (fun v ->
      List.iter
        (fun mask ->
          let o = OO.of_mask ~probs v mask in
          check_float "uniform = general r2 formula" (Max_oblivious.l_r2 o)
            (Max_oblivious.l_uniform c o))
        [ [| false; false |]; [| true; false |]; [| false; true |]; [| true; true |] ])
    value_grid

let test_l_uniform_tie_invariance () =
  (* With equal sampled values the sorting permutation is not unique; the
     estimate must not depend on it (Theorem 4.1) — exercised by tied data
     across all outcomes. *)
  let p = 0.3 in
  let r = 4 in
  let c = Max_oblivious.Coeffs.compute ~r ~p in
  let probs = Array.make r p in
  let v = [| 5.; 5.; 2.; 2. |] in
  let m = Exact.oblivious ~probs ~v (Max_oblivious.l_uniform c) in
  check_float ~eps:1e-9 "unbiased with ties" 5. m.Exact.mean

let test_l_dispatch () =
  let o =
    OO.of_mask
      ~probs:[| 0.3; 0.3; 0.4; 0.4 |]
      [| 1.; 2.; 3.; 4. |]
      [| true; true; true; true |]
  in
  Alcotest.check_raises "non-uniform r>3 rejected"
    (Invalid_argument "Max_oblivious.l: r > 3 requires uniform probabilities")
    (fun () -> ignore (Max_oblivious.l o));
  (* r = 3 non-uniform dispatches to l_r3. *)
  let o3 =
    OO.of_mask ~probs:[| 0.3; 0.5; 0.7 |] [| 1.; 2.; 3. |]
      [| true; true; true |]
  in
  check_float "r=3 dispatch" (Max_oblivious.l_r3 o3) (Max_oblivious.l o3)

let test_l_r3_unbiased_general_p () =
  (* The Theorem 4.1 recursion at r = 3 with arbitrary probabilities:
     exact unbiasedness on profiles with distinct values, ties, zeros,
     and all orderings. *)
  List.iter
    (fun probs ->
      List.iter
        (fun v ->
          let m = Exact.oblivious ~probs ~v Max_oblivious.l_r3 in
          check_float ~eps:1e-9
            (Printf.sprintf "E p=(%.1f,%.1f,%.1f)" probs.(0) probs.(1) probs.(2))
            (vmax v) m.Exact.mean)
        [
          [| 5.; 3.; 1. |];
          [| 1.; 3.; 5. |];
          [| 3.; 5.; 1. |];
          [| 4.; 4.; 4. |];
          [| 5.; 5.; 1. |];
          [| 1.; 5.; 5. |];
          [| 0.; 2.; 7. |];
          [| 7.; 0.; 0. |];
          [| 0.; 0.; 0. |];
        ])
    [ [| 0.3; 0.5; 0.7 |]; [| 0.2; 0.2; 0.9 |]; [| 0.6; 0.1; 0.4 |] ]

let test_l_r3_matches_uniform () =
  let p = 0.4 in
  let c = Max_oblivious.Coeffs.compute ~r:3 ~p in
  let probs = Array.make 3 p in
  List.iter
    (fun v ->
      List.iter
        (fun bits ->
          let mask = Array.init 3 (fun i -> bits land (1 lsl i) <> 0) in
          let o = OO.of_mask ~probs v mask in
          check_float "agrees with Thm 4.2 coefficients"
            (Max_oblivious.l_uniform c o)
            (Max_oblivious.l_r3 o))
        (List.init 8 Fun.id))
    [ [| 3.; 2.; 1. |]; [| 1.; 2.; 3. |]; [| 2.; 2.; 2. |]; [| 0.; 5.; 5. |] ]

let test_l_r3_engine_agreement () =
  (* Machine-derived table on a grid equals the closed-form recursion. *)
  let probs = [| 0.3; 0.5; 0.7 |] in
  let problem =
    Estcore.Designer.Problems.oblivious ~probs ~grid:[ 0.; 1.; 2. ]
      ~f:(fun v -> vmax v)
      ()
    |> Estcore.Designer.Problems.sort_data Estcore.Designer.Problems.order_l
  in
  match Estcore.Designer.solve_order problem with
  | Error e -> Alcotest.failf "engine failed: %s" e
  | Ok est ->
      List.iter
        (fun (k, derived) ->
          let o = { Sampling.Outcome.Oblivious.probs; values = k } in
          check_float ~eps:1e-7 "engine = closed form"
            (Max_oblivious.l_r3 o) derived)
        (Estcore.Designer.bindings est)

let test_l_r3_dominates_ht () =
  let probs = [| 0.3; 0.5; 0.7 |] in
  let grid =
    [
      [| 1.; 0.; 0. |];
      [| 0.; 0.; 1. |];
      [| 1.; 1.; 1. |];
      [| 3.; 2.; 1. |];
      [| 1.; 2.; 3. |];
      [| 5.; 5.; 0. |];
    ]
  in
  Alcotest.(check bool) "dominates HT" true
    (Exact.dominates
       ~var_a:(fun v -> (Exact.oblivious ~probs ~v Max_oblivious.l_r3).Exact.var)
       ~var_b:(fun v -> (Exact.oblivious ~probs ~v Ht.max_oblivious).Exact.var)
       grid)

let test_l_uniform_guard () =
  let c = Max_oblivious.Coeffs.compute ~r:2 ~p:0.5 in
  let o = OO.of_mask ~probs:[| 0.5; 0.4 |] [| 1.; 2. |] [| true; true |] in
  Alcotest.check_raises "prob mismatch"
    (Invalid_argument "Max_oblivious.l_uniform: non-uniform probabilities")
    (fun () -> ignore (Max_oblivious.l_uniform c o))

let test_lemma42_r_up_to_8 () =
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "lemma 4.2 at r=%d p=%.2f" r p)
            true
            (Max_oblivious.Coeffs.lemma42_holds
               (Max_oblivious.Coeffs.compute ~r ~p)))
        [ 0.05; 0.2; 0.5; 0.9 ])
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_l_uniform_dominates_ht_r4 () =
  let p = 0.4 in
  let r = 4 in
  let c = Max_oblivious.Coeffs.compute ~r ~p in
  let probs = Array.make r p in
  let grid =
    [
      [| 1.; 0.; 0.; 0. |];
      [| 1.; 1.; 1.; 1. |];
      [| 4.; 3.; 2.; 1. |];
      [| 5.; 5.; 0.; 0. |];
    ]
  in
  Alcotest.(check bool) "dominates HT (r=4)" true
    (Exact.dominates
       ~var_a:(fun v ->
         (Exact.oblivious ~probs ~v (Max_oblivious.l_uniform c)).Exact.var)
       ~var_b:(fun v -> (Exact.oblivious ~probs ~v Ht.max_oblivious).Exact.var)
       grid)

(* ------------------------------------------------------------------ *)
(* Max_oblivious.General: Theorem 4.1 for any r, arbitrary p           *)
(* ------------------------------------------------------------------ *)

let test_general_matches_r2 () =
  let probs = [| 0.3; 0.6 |] in
  let g = Max_oblivious.General.create ~probs in
  List.iter
    (fun v ->
      List.iter
        (fun bits ->
          let mask = Array.init 2 (fun i -> bits land (1 lsl i) <> 0) in
          let o = OO.of_mask ~probs v mask in
          check_float "= eq (12)" (Max_oblivious.l_r2 o)
            (Max_oblivious.General.estimate g o))
        (List.init 4 Fun.id))
    value_grid

let test_general_matches_r3 () =
  let probs = [| 0.3; 0.5; 0.7 |] in
  let g = Max_oblivious.General.create ~probs in
  List.iter
    (fun v ->
      List.iter
        (fun bits ->
          let mask = Array.init 3 (fun i -> bits land (1 lsl i) <> 0) in
          let o = OO.of_mask ~probs v mask in
          check_float "= l_r3" (Max_oblivious.l_r3 o)
            (Max_oblivious.General.estimate g o))
        (List.init 8 Fun.id))
    [ [| 5.; 2.; 1. |]; [| 1.; 2.; 5. |]; [| 3.; 3.; 3. |]; [| 0.; 4.; 4. |] ]

let test_general_matches_uniform () =
  let p = 0.4 in
  let g = Max_oblivious.General.create ~probs:(Array.make 4 p) in
  let c = Max_oblivious.Coeffs.compute ~r:4 ~p in
  let probs = Array.make 4 p in
  let rng = Numerics.Prng.create ~seed:5 () in
  for _ = 1 to 100 do
    let v = Array.init 4 (fun _ -> Float.round (10. *. Numerics.Prng.float rng)) in
    let o = OO.draw rng ~probs v in
    check_float "= Thm 4.2 coefficients" (Max_oblivious.l_uniform c o)
      (Max_oblivious.General.estimate g o)
  done

let test_general_unbiased_r5 () =
  let probs = [| 0.2; 0.35; 0.5; 0.65; 0.8 |] in
  let g = Max_oblivious.General.create ~probs in
  List.iter
    (fun v ->
      let m = Exact.oblivious ~probs ~v (Max_oblivious.General.estimate g) in
      check_float ~eps:1e-9 "unbiased r=5" (vmax v) m.Exact.mean)
    [
      [| 5.; 4.; 3.; 2.; 1. |];
      [| 1.; 2.; 3.; 4.; 5. |];
      [| 2.; 2.; 2.; 2.; 2. |];
      [| 0.; 0.; 7.; 0.; 0. |];
      [| 3.; 3.; 0.; 1.; 3. |];
      [| 0.; 0.; 0.; 0.; 0. |];
    ]

let test_general_dominates_ht_r4 () =
  let probs = [| 0.25; 0.4; 0.55; 0.7 |] in
  let g = Max_oblivious.General.create ~probs in
  Alcotest.(check bool) "dominates HT" true
    (Exact.dominates
       ~var_a:(fun v ->
         (Exact.oblivious ~probs ~v (Max_oblivious.General.estimate g)).Exact.var)
       ~var_b:(fun v -> (Exact.oblivious ~probs ~v Ht.max_oblivious).Exact.var)
       [
         [| 1.; 0.; 0.; 0. |];
         [| 0.; 0.; 0.; 1. |];
         [| 1.; 1.; 1.; 1. |];
         [| 4.; 3.; 2.; 1. |];
         [| 1.; 2.; 3.; 4. |];
       ])

let test_general_prefix_sums () =
  (* Full prefix = eq. (16); r=2 prefixes match the closed forms. *)
  let probs = [| 0.3; 0.6 |] in
  let g = Max_oblivious.General.create ~probs in
  check_float "A_full"
    (1. /. (1. -. (0.7 *. 0.4)))
    (Max_oblivious.General.prefix_sum g [ 0; 1 ]);
  (* A_1 with prefix {i}: estimate on outcome S={i} with value v is
     v·A_1({i}); compare against eq. (12)'s v/(p_i q). *)
  let q = 0.3 +. 0.6 -. 0.18 in
  check_float "A_1({0})" (1. /. (0.3 *. q)) (Max_oblivious.General.prefix_sum g [ 0 ]);
  check_float "A_1({1})" (1. /. (0.6 *. q)) (Max_oblivious.General.prefix_sum g [ 1 ])

let test_general_guards () =
  Alcotest.check_raises "bad prob"
    (Invalid_argument "General.create: probabilities must be in (0,1]")
    (fun () -> ignore (Max_oblivious.General.create ~probs:[| 0.5; 0. |]));
  let g = Max_oblivious.General.create ~probs:[| 0.5; 0.5 |] in
  Alcotest.check_raises "empty prefix"
    (Invalid_argument "General.prefix_sum: empty prefix") (fun () ->
      ignore (Max_oblivious.General.prefix_sum g []));
  let o = OO.of_mask ~probs:[| 0.4; 0.5 |] [| 1.; 1. |] [| true; true |] in
  Alcotest.check_raises "prob mismatch"
    (Invalid_argument "General.estimate: probability mismatch") (fun () ->
      ignore (Max_oblivious.General.estimate g o))

(* ------------------------------------------------------------------ *)
(* Max_oblivious: the U estimators                                     *)
(* ------------------------------------------------------------------ *)

let test_u_unbiased_grid () =
  List.iter
    (fun (p1, p2) ->
      List.iter
        (fun v ->
          let probs = [| p1; p2 |] in
          let mu = Exact.oblivious ~probs ~v Max_oblivious.u_r2 in
          check_float ~eps:1e-9 "E[U] = max" (vmax v) mu.Exact.mean;
          let ma = Exact.oblivious ~probs ~v Max_oblivious.u_asym_r2 in
          check_float ~eps:1e-9 "E[Uas] = max" (vmax v) ma.Exact.mean)
        value_grid)
    prob_grid

let test_u_figure1_values () =
  let probs = [| 0.5; 0.5 |] in
  let est mask v = Max_oblivious.u_r2 (OO.of_mask ~probs v mask) in
  check_float "S={1}: 2v1" 8. (est [| true; false |] [| 4.; 1. |]);
  check_float "S={1,2}: 2max-2min" 6. (est [| true; true |] [| 4.; 1. |]);
  check_float "S={}" 0. (est [| false; false |] [| 4.; 1. |])

let test_u_variance_closed_form () =
  (* Corrected Figure 1 variance (see EXPERIMENTS.md erratum): at p = 1/2,
     Var[U] = max^2 + 2 min^2 - 2 max min. *)
  let probs = [| 0.5; 0.5 |] in
  List.iter
    (fun v ->
      let mx = vmax v
      and mn = Float.min v.(0) v.(1) in
      check_float "corrected Var[U]"
        ((mx *. mx) +. (2. *. mn *. mn) -. (2. *. mx *. mn))
        (Max_oblivious.var_u_r2 ~probs ~v))
    value_grid

let test_l_variance_closed_form () =
  (* Figure 1: Var[L] = (11/9)max^2 + (8/9)min^2 - (16/9) max min. *)
  let probs = [| 0.5; 0.5 |] in
  List.iter
    (fun v ->
      let mx = vmax v
      and mn = Float.min v.(0) v.(1) in
      check_float "Var[L] closed form"
        (((11. /. 9.) *. mx *. mx)
        +. ((8. /. 9.) *. mn *. mn)
        -. ((16. /. 9.) *. mx *. mn))
        (Max_oblivious.var_l_r2 ~probs ~v))
    value_grid

let test_u_dominates_ht () =
  List.iter
    (fun (p1, p2) ->
      let probs = [| p1; p2 |] in
      Alcotest.(check bool) "U dominates HT" true
        (Exact.dominates
           ~var_a:(fun v -> Max_oblivious.var_u_r2 ~probs ~v)
           ~var_b:(fun v -> Max_oblivious.var_ht_r2 ~probs ~v)
           value_grid))
    prob_grid

let test_uas_asymmetry () =
  (* Uas prioritizes (v,0) vectors: at least as good as U there, and no
     better than U on (0,v) (strict when p1 + p2 < 1). *)
  let probs = [| 0.3; 0.4 |] in
  let var_uas v = (Exact.oblivious ~probs ~v Max_oblivious.u_asym_r2).Exact.var in
  Alcotest.(check bool) "Uas <= U on (v,0)" true
    (var_uas [| 5.; 0. |] <= Max_oblivious.var_u_r2 ~probs ~v:[| 5.; 0. |] +. 1e-9);
  Alcotest.(check bool) "Uas >= U on (0,v)" true
    (var_uas [| 0.; 5. |] >= Max_oblivious.var_u_r2 ~probs ~v:[| 0.; 5. |] -. 1e-9);
  Alcotest.(check bool) "strictly better somewhere" true
    (var_uas [| 5.; 0. |] < Max_oblivious.var_u_r2 ~probs ~v:[| 5.; 0. |] -. 1e-9)

let prop_u_nonnegative =
  qtest "max^(U) r=2 is nonnegative"
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 100.) (float_bound_inclusive 100.))
    (fun (p1, p2, v1, v2) ->
      let p1 = 0.05 +. (0.9 *. p1) and p2 = 0.05 +. (0.9 *. p2) in
      let probs = [| p1; p2 |] in
      List.for_all
        (fun mask ->
          Max_oblivious.u_r2 (OO.of_mask ~probs [| v1; v2 |] mask) >= -1e-9
          && Max_oblivious.u_asym_r2 (OO.of_mask ~probs [| v1; v2 |] mask)
             >= -1e-9)
        [
          [| false; false |]; [| true; false |]; [| false; true |]; [| true; true |];
        ])

(* ------------------------------------------------------------------ *)
(* Or_oblivious                                                        *)
(* ------------------------------------------------------------------ *)

let bin_grid = [ [| 0.; 0. |]; [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] ]

let test_or_unbiased () =
  List.iter
    (fun (p1, p2) ->
      List.iter
        (fun v ->
          let probs = [| p1; p2 |] in
          let f = if vmax v > 0. then 1. else 0. in
          List.iter
            (fun est ->
              let m = Exact.oblivious ~probs ~v est in
              check_float ~eps:1e-9 "unbiased OR" f m.Exact.mean)
            [ Or_oblivious.ht; Or_oblivious.l_r2; Or_oblivious.u_r2 ])
        bin_grid)
    prob_grid

let test_or_var_closed_forms () =
  List.iter
    (fun (p1, p2) ->
      let probs = [| p1; p2 |] in
      (* (23) *)
      check_float "eq 23" ((1. /. (p1 *. p2)) -. 1.) (Or_oblivious.var_ht ~probs);
      check_float "eq 23 vs exact"
        (Exact.oblivious ~probs ~v:[| 1.; 1. |] Or_oblivious.ht).Exact.var
        (Or_oblivious.var_ht ~probs);
      (* (24) *)
      let q = p1 +. p2 -. (p1 *. p2) in
      check_float "eq 24" ((1. /. q) -. 1.) (Or_oblivious.var_l_11 ~p1 ~p2);
      check_float "eq 24 vs exact"
        (Exact.oblivious ~probs ~v:[| 1.; 1. |] Or_oblivious.l_r2).Exact.var
        (Or_oblivious.var_l_11 ~p1 ~p2);
      (* Section 4.3 display for (1,0). *)
      let byhand =
        (1. -. p1)
        +. (p1 *. (1. -. p2) *. (((1. /. q) -. 1.) ** 2.))
        +. (p1 *. p2 *. (((1. /. (p1 *. q)) -. 1.) ** 2.))
      in
      check_float "var L (1,0) display" byhand (Or_oblivious.var_l_10 ~p1 ~p2))
    prob_grid

let test_or_domain_guard () =
  let o = OO.of_mask ~probs:[| 0.5; 0.5 |] [| 2.; 0. |] [| true; false |] in
  Alcotest.check_raises "non-binary rejected"
    (Invalid_argument "Or_oblivious: values must be 0/1") (fun () ->
      ignore (Or_oblivious.l_r2 o))

let test_or_uniform_r3 () =
  let p = 0.3 in
  let c = Max_oblivious.Coeffs.compute ~r:3 ~p in
  let probs = Array.make 3 p in
  List.iter
    (fun v ->
      let f = if vmax v > 0. then 1. else 0. in
      let m = Exact.oblivious ~probs ~v (Or_oblivious.l_uniform c) in
      check_float ~eps:1e-9 "OR^(L) r=3 unbiased" f m.Exact.mean)
    [ [| 0.; 0.; 0. |]; [| 1.; 0.; 0. |]; [| 1.; 1.; 0. |]; [| 1.; 1.; 1. |] ]

let test_or_asymptotics () =
  let p = 1e-3 in
  check_float ~eps:2e-3 "HT ~ 1/p^2" 1.
    (Or_oblivious.var_ht ~probs:[| p; p |] *. p *. p);
  check_float ~eps:5e-3 "L(1,0) ~ 1/(4p^2)" 1.
    (Or_oblivious.var_l_10 ~p1:p ~p2:p *. 4. *. p *. p);
  check_float ~eps:5e-3 "L(1,1) ~ 1/(2p)" 1.
    (Or_oblivious.var_l_11 ~p1:p ~p2:p *. 2. *. p);
  check_float ~eps:5e-3 "U(1,1) ~ 1/(2p)" 1.
    (Or_oblivious.var_u_11 ~p1:p ~p2:p *. 2. *. p)

(* ------------------------------------------------------------------ *)
(* Max_pps                                                             *)
(* ------------------------------------------------------------------ *)

let test_pps_determining_vector () =
  let taus = [| 1.; 1.3 |] in
  let v = [| 0.6; 0.25 |] in
  let phi seeds = Max_pps.determining_vector (OP.of_seeds ~taus ~seeds v) in
  Alcotest.(check (array (float 1e-12))) "empty" [| 0.; 0. |] (phi [| 0.9; 0.9 |]);
  Alcotest.(check (array (float 1e-12)))
    "S={1}, capped at v1" [| 0.6; 0.6 |]
    (phi [| 0.3; 0.9 |]);
  Alcotest.(check (array (float 1e-9)))
    "S={1}, seed bound" [| 0.6; 0.39 |]
    (phi [| 0.3; 0.3 |]);
  Alcotest.(check (array (float 1e-12)))
    "S={1,2}" [| 0.6; 0.25 |]
    (phi [| 0.3; 0.1 |])

let test_pps_equal_values_form () =
  (* (25) with v below both thresholds equals tau1 tau2/(tau1+tau2-v). *)
  let tau1 = 1. and tau2 = 1.3 in
  let v = 0.5 in
  check_float "eq 25 small v"
    (tau1 *. tau2 /. (tau1 +. tau2 -. v))
    (Max_pps.equal_values_estimate ~tau1 ~tau2 v);
  (* v above tau1 and tau2: always sampled, estimate = v. *)
  check_float "eq 25 large v" 1.4 (Max_pps.equal_values_estimate ~tau1 ~tau2 1.4)

let test_pps_case26 () =
  (* lo >= tau_lo: est = lo + (hi-lo)/min(1, hi/tau_hi). *)
  check_float "eq 26"
    (1.5 +. 0.5)
    (Max_pps.estimate_det ~tau_hi:1. ~tau_lo:1.3 ~hi:2.0 ~lo:1.5);
  check_float "eq 26 hi below tau"
    (0.8 +. (0.1 /. 0.9))
    (Max_pps.estimate_det ~tau_hi:1. ~tau_lo:0.7 ~hi:0.9 ~lo:0.8)

let test_pps_case3 () =
  check_float "hi >= tau_hi gives est = hi" 1.2
    (Max_pps.estimate_det ~tau_hi:1. ~tau_lo:1.3 ~hi:1.2 ~lo:0.4)

let test_pps_unbiased_cases () =
  List.iter
    (fun (label, taus, v) ->
      let m = Exact.pps ~taus ~v Max_pps.l in
      check_float ~eps:1e-7 label (vmax v) m.Exact.mean)
    (Experiments.Fig3.case_grid ())

let test_pps_case_boundaries_continuous () =
  (* The closed-form cases agree at their boundaries. *)
  let tau_hi = 1.3 and tau_lo = 0.6 in
  (* lo -> tau_lo: case 5 meets case (26). *)
  let from5 = Max_pps.estimate_det ~tau_hi ~tau_lo ~hi:0.9 ~lo:(0.6 -. 1e-10) in
  let from26 = Max_pps.estimate_det ~tau_hi ~tau_lo ~hi:0.9 ~lo:0.6 in
  check_float ~eps:1e-6 "case5/case26 boundary" from26 from5;
  (* hi -> tau_hi: case 5 meets case 3. *)
  let from5 = Max_pps.estimate_det ~tau_hi ~tau_lo ~hi:(1.3 -. 1e-10) ~lo:0.3 in
  let from3 = Max_pps.estimate_det ~tau_hi ~tau_lo ~hi:1.3 ~lo:0.3 in
  check_float ~eps:1e-5 "case5/case3 boundary" from3 from5;
  (* hi -> lo: case 4 meets eq. 25. *)
  let t1 = 1. and t2 = 1.3 in
  let from4 =
    Max_pps.estimate_det ~tau_hi:t1 ~tau_lo:t2 ~hi:0.5 ~lo:(0.5 -. 1e-10)
  in
  check_float ~eps:1e-6 "case4/eq25 boundary"
    (Max_pps.equal_values_estimate ~tau1:t1 ~tau2:t2 0.5)
    from4

let test_pps_l_dominates_ht () =
  List.iter
    (fun (taus, v) ->
      let vl = (Exact.pps_r2_fast ~taus ~v Max_pps.l).Exact.var in
      let vht = Ht.max_pps_variance ~taus ~v in
      Alcotest.(check bool) "L variance at most HT's" true (vl <= vht +. 1e-9))
    [
      ([| 1.; 1. |], [| 0.5; 0.3 |]);
      ([| 1.; 1.3 |], [| 0.9; 0.05 |]);
      ([| 1.3; 0.6 |], [| 0.9; 0.3 |]);
      ([| 1.; 1. |], [| 0.01; 0.005 |]);
    ]

let test_pps_ratio_bound () =
  (* tau1 = tau2 = tau*. The paper claims Var[HT]/Var[L] >= (1+rho)/rho
     everywhere, but that rests on an idealized two-valued estimate at
     min = 0 inconsistent with its own Figure 3 table (see EXPERIMENTS.md).
     We assert the measured properties: ratio >= 1.9 everywhere,
     increasing in min/max, and >= (1+rho)/rho at min = max. *)
  let taus = [| 1.; 1. |] in
  List.iter
    (fun rho ->
      let ratios =
        List.map
          (fun frac ->
            let v = [| rho; rho *. frac |] in
            let vl = (Exact.pps_r2_fast ~taus ~v Max_pps.l).Exact.var in
            let vht = Ht.max_pps_variance ~taus ~v in
            vht /. vl)
          [ 0.; 0.25; 0.5; 0.75; 1. ]
      in
      List.iter
        (fun ratio ->
          Alcotest.(check bool)
            (Printf.sprintf "floor at rho=%.2f" rho)
            true (ratio >= 1.9))
        ratios;
      Alcotest.(check bool) "increasing in min/max" true
        (List.sort compare ratios = ratios);
      Alcotest.(check bool) "paper bound at min=max" true
        (List.nth ratios 4 >= ((1. +. rho) /. rho) -. 1e-6))
    [ 0.9; 0.5; 0.1; 0.01 ]

let test_pps_extreme_variance_forms () =
  (* Var[HT | (rho tau, x)]/tau^2 = rho^2 (1/rho^2 - 1) = 1 - rho^2 for any
     x <= rho tau. The paper additionally claims Var[L | (rho tau, 0)] =
     (rho - rho^2) tau^2; the actual Figure 3 estimator has strictly
     larger variance there (its one-entry estimate varies with the
     revealed seed bound) — we assert the measured relationship. *)
  let taus = [| 1.; 1. |] in
  let rho = 0.3 in
  let v = [| rho; 0. |] in
  check_float ~eps:1e-9 "HT indep of min"
    (1. -. (rho *. rho))
    (Ht.max_pps_variance ~taus ~v);
  let vl = (Exact.pps_r2_fast ~taus ~v Max_pps.l).Exact.var in
  Alcotest.(check bool) "above the idealized two-point variance" true
    (vl > (rho -. (rho *. rho)) +. 0.01);
  Alcotest.(check bool) "still dominates HT" true
    (vl < Ht.max_pps_variance ~taus ~v)

let test_pps_fast_matches_full () =
  List.iter
    (fun (taus, v) ->
      let fast = Exact.pps_r2_fast ~taus ~v Max_pps.l in
      let full = Exact.pps ~taus ~v Max_pps.l in
      check_float ~eps:1e-6 "means agree" full.Exact.mean fast.Exact.mean;
      check_float ~eps:1e-5 "vars agree" full.Exact.var fast.Exact.var)
    [
      ([| 1.; 1.3 |], [| 0.6; 0.25 |]);
      ([| 1.3; 0.6 |], [| 0.9; 0.3 |]);
      ([| 1.; 1. |], [| 0.7; 0. |]);
    ]

let prop_pps_l_nonnegative =
  qtest ~count:300 "max^(L) PPS estimates are nonnegative"
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (v1, v2, u1, u2) ->
      let taus = [| 1.; 1.3 |] in
      let u1 = 0.001 +. (0.998 *. u1) and u2 = 0.001 +. (0.998 *. u2) in
      let o = OP.of_seeds ~taus ~seeds:[| u1; u2 |] [| v1; v2 |] in
      Max_pps.l o >= -1e-9)

let test_pps_erratum_30_negative_control () =
  (* The paper's printed eq. (30) — with ln((s−lo)·τ1/(τ2(s−hi))) instead
     of the corrected ln((s−lo)·τ2/(τ1·lo)) — violates unbiasedness; this
     negative control documents erratum 3 (see EXPERIMENTS.md). *)
  let printed_case5 ~tau_hi:t1 ~tau_lo:t2 ~hi ~lo =
    let tt = t1 *. t2 and s = t1 +. t2 in
    t1 +. t2 -. (tt /. hi)
    +. (tt *. (t1 -. hi) /. (hi *. s)
       *. log ((s -. lo) *. t1 /. (t2 *. (s -. hi))))
    +. (t2 *. (t1 -. hi) *. (t2 -. lo) /. ((s -. lo) *. hi))
  in
  let printed_est (o : OP.t) =
    let phi = Max_pps.determining_vector o in
    let hi, lo, tau_hi, tau_lo =
      if phi.(0) >= phi.(1) then (phi.(0), phi.(1), o.OP.taus.(0), o.OP.taus.(1))
      else (phi.(1), phi.(0), o.OP.taus.(1), o.OP.taus.(0))
    in
    if hi > 0. && lo < hi && lo < tau_lo && tau_lo <= hi && hi <= tau_hi then
      printed_case5 ~tau_hi ~tau_lo ~hi ~lo
    else Max_pps.l o
  in
  let taus = [| 1.3; 0.6 |] in
  let v = [| 0.9; 0.3 |] in
  let m = Exact.pps ~taus ~v printed_est in
  Alcotest.(check bool)
    (Printf.sprintf "printed form is biased (E = %.6f ≠ 0.9)" m.Exact.mean)
    true
    (abs_float (m.Exact.mean -. 0.9) > 1e-3);
  (* while the corrected implementation is unbiased on the same data *)
  let m' = Exact.pps ~taus ~v Max_pps.l in
  check_float ~eps:1e-7 "corrected form unbiased" 0.9 m'.Exact.mean

let prop_pps_l_unbiased_random =
  qtest ~count:80 "max^(L) PPS unbiased on random (taus, v)"
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (t1, t2, v1, v2) ->
      let taus = [| 0.5 +. t1; 0.5 +. (1.5 *. t2) |] in
      let v = [| 1.2 *. v1; 1.2 *. v2 |] in
      let m = Exact.pps_r2_fast ~taus ~v Max_pps.l in
      Numerics.Special.float_equal ~eps:1e-6 (vmax v) m.Exact.mean)

let prop_pps_l_dominates_random =
  (* Dominance over HT holds with equal thresholds (the paper's setting
     for the claim and for Figure 4); for strongly unequal thresholds it
     can fail — see the dedicated test below and EXPERIMENTS.md. *)
  qtest ~count:80 "max^(L) PPS variance ≤ HT's (equal thresholds)"
    QCheck.(
      triple (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 1.))
    (fun (t, v1, v2) ->
      let tau = 0.5 +. (1.5 *. t) in
      let taus = [| tau; tau |] in
      let v = [| 1.2 *. v1; 1.2 *. v2 |] in
      let vl = (Exact.pps_r2_fast ~taus ~v Max_pps.l).Exact.var in
      vl <= Ht.max_pps_variance ~taus ~v +. 1e-7)

let test_pps_l_nondominance_unequal_taus () =
  (* Finding (not stated in the paper): with unequal thresholds the
     Pareto-optimal max^(L) can have HIGHER variance than max^(HT) — the
     L order prioritizes similar-valued data, and pays on dissimilar data
     when the large value sits in the high-threshold instance. Verified
     by exact quadrature and Monte Carlo. *)
  let taus = [| 1.; 3. |] in
  let v = [| 0.; 0.9 |] in
  let vl = (Exact.pps_r2_fast ~taus ~v Max_pps.l).Exact.var in
  let vht = Ht.max_pps_variance ~taus ~v in
  Alcotest.(check bool)
    (Printf.sprintf "L loses here: %.4f > %.4f" vl vht)
    true (vl > vht);
  (* ... while at equal thresholds the same data has L dominating. *)
  let vl' = (Exact.pps_r2_fast ~taus:[| 1.; 1. |] ~v Max_pps.l).Exact.var in
  let vht' = Ht.max_pps_variance ~taus:[| 1.; 1. |] ~v in
  Alcotest.(check bool) "dominates at equal taus" true (vl' <= vht' +. 1e-9)

let prop_coordinated_unbiased_random =
  qtest ~count:80 "coordinated max unbiased on random (taus, v), r ≤ 4"
    QCheck.small_int
    (fun seed ->
      let rng = Numerics.Prng.create ~seed () in
      let r = 2 + Numerics.Prng.int rng 3 in
      let taus = Array.init r (fun _ -> 0.5 +. (1.5 *. Numerics.Prng.float rng)) in
      let v = Array.init r (fun _ -> 1.2 *. Numerics.Prng.float rng) in
      let m = Coordinated.moments ~taus ~v Coordinated.max_ht in
      Numerics.Special.float_equal ~eps:1e-6 (vmax v) m.Exact.mean)

let prop_min_pps_unbiased_random =
  qtest ~count:60 "min^(HT) PPS unbiased on random data"
    QCheck.(
      quad (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (t1, t2, v1, v2) ->
      let taus = [| 0.5 +. t1; 0.5 +. (1.5 *. t2) |] in
      (* strictly positive values so min is attainable *)
      let v = [| 0.05 +. v1; 0.05 +. v2 |] in
      let m = Exact.pps_r2_fast ~taus ~v Ht.min_pps in
      Numerics.Special.float_equal ~eps:1e-6 (Float.min v.(0) v.(1)) m.Exact.mean)

(* ------------------------------------------------------------------ *)
(* Or_weighted                                                         *)
(* ------------------------------------------------------------------ *)

let test_or_weighted_unbiased () =
  List.iter
    (fun (p1, p2) ->
      Alcotest.(check bool) "unbiased" true (Experiments.Table51.unbiased ~p1 ~p2))
    prob_grid

let test_or_weighted_tables () =
  List.iter
    (fun (p1, p2) ->
      Alcotest.(check bool) "tables" true
        (Experiments.Table51.tables_match ~p1 ~p2))
    prob_grid

let test_or_weighted_variance_transfer () =
  (* Section 5: variance identical to the weight-oblivious estimators. *)
  List.iter
    (fun (p1, p2) ->
      check_float "L (1,1)"
        (Or_oblivious.var_l_11 ~p1 ~p2)
        (Or_weighted.var_l ~p1 ~p2 ~v:[| 1; 1 |]);
      check_float "L (1,0)"
        (Or_oblivious.var_l_10 ~p1 ~p2)
        (Or_weighted.var_l ~p1 ~p2 ~v:[| 1; 0 |]);
      check_float "U (1,0)"
        (Or_oblivious.var_u_10 ~p1 ~p2)
        (Or_weighted.var_u ~p1 ~p2 ~v:[| 1; 0 |]);
      check_float "HT"
        (Or_oblivious.var_ht ~probs:[| p1; p2 |])
        (Or_weighted.var_ht ~p1 ~p2 ~v:[| 1; 1 |]))
    prob_grid

(* ------------------------------------------------------------------ *)
(* Exact                                                               *)
(* ------------------------------------------------------------------ *)

let test_exact_constant () =
  let m = Exact.oblivious ~probs:[| 0.5; 0.5 |] ~v:[| 1.; 2. |] (fun _ -> 3.) in
  check_float "mean" 3. m.Exact.mean;
  check_float "var" 0. m.Exact.var

let test_exact_monte_carlo_agrees () =
  let probs = [| 0.5; 0.5 |] in
  let v = [| 3.; 2. |] in
  let exact = Exact.oblivious ~probs ~v Max_oblivious.l_r2 in
  let rng = Numerics.Prng.create ~seed:77 () in
  let mc =
    Exact.monte_carlo ~rng ~n:200_000
      ~draw:(fun rng -> OO.draw rng ~probs v)
      Max_oblivious.l_r2
  in
  check_float ~eps:0.02 "MC mean" exact.Exact.mean mc.Exact.mean;
  check_float ~eps:0.05 "MC var" exact.Exact.var mc.Exact.var

let test_exact_dominates () =
  Alcotest.(check bool) "reflexive" true
    (Exact.dominates ~var_a:(fun _ -> 1.) ~var_b:(fun _ -> 1.) [ [| 0. |] ]);
  Alcotest.(check bool) "strict" false
    (Exact.dominates ~var_a:(fun _ -> 2.) ~var_b:(fun _ -> 1.) [ [| 0. |] ])

(* The sharded Monte-Carlo path must give bit-identical moments whether
   the shards run sequentially or on a pool of any size: substream s is
   a function of (master, s) only, and shard accumulators merge in shard
   order. *)
let test_monte_carlo_pool_deterministic () =
  let probs = [| 0.5; 0.5 |] in
  let v = [| 3.; 2. |] in
  let rng = Numerics.Prng.create ~seed:77 () in
  let mc ?pool () =
    Exact.monte_carlo ?pool ~master:31 ~rng ~n:50_000
      ~draw:(fun rng -> OO.draw rng ~probs v)
      Max_oblivious.l_r2
  in
  let seq = mc () in
  let exact = Exact.oblivious ~probs ~v Max_oblivious.l_r2 in
  check_float ~eps:0.05 "sharded MC is still consistent" exact.Exact.mean
    seq.Exact.mean;
  List.iter
    (fun domains ->
      let pool = Numerics.Pool.create ~domains () in
      let par = Fun.protect
          ~finally:(fun () -> Numerics.Pool.shutdown pool)
          (fun () -> mc ~pool ())
      in
      if par.Exact.mean <> seq.Exact.mean || par.Exact.var <> seq.Exact.var
      then
        Alcotest.failf
          "pool size %d: (%.17g, %.17g) <> sequential (%.17g, %.17g)" domains
          par.Exact.mean par.Exact.var seq.Exact.mean seq.Exact.var)
    [ 1; 2; 4 ]

let test_exact_dominates_pool () =
  let grid = List.init 25 (fun i -> [| float_of_int i /. 24.; 0.3 |]) in
  let var_a v = v.(0) *. v.(0) and var_b v = (v.(0) *. v.(0)) +. 0.1 in
  let pool = Numerics.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Numerics.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "pooled = sequential" true
        (Exact.dominates ~pool ~var_a ~var_b grid
        = Exact.dominates ~var_a ~var_b grid);
      Alcotest.(check bool) "pooled strict" false
        (Exact.dominates ~pool ~var_a:var_b ~var_b:var_a grid))

(* ------------------------------------------------------------------ *)
(* Flat (allocation-free) evaluators                                   *)
(*                                                                     *)
(* The contract is twofold and both halves are load-bearing for the    *)
(* serving path: every flat evaluator must be bit-identical to its     *)
(* reference evaluator (not merely close — the engine swaps one for    *)
(* the other and responses must not change), and a call must allocate  *)
(* zero minor words (measured, via Allocheck).                         *)
(* ------------------------------------------------------------------ *)

let check_bits msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let test_flat_l_uniform_bit_identity () =
  let rng = Numerics.Prng.create ~seed:71 () in
  List.iter
    (fun (r, p) ->
      let coeffs = Max_oblivious.Coeffs.compute ~r ~p in
      let probs = Array.make r p in
      let buf = Evalbuf.create ~r_max:r in
      (* the empty outcome first: the 0-estimate short circuit *)
      let empty = OO.of_mask ~probs (Array.make r 1.) (Array.make r false) in
      Evalbuf.load_oblivious buf empty;
      Max_oblivious.Flat.l_uniform_into coeffs buf ~dst:buf.Evalbuf.out ~di:0;
      check_bits
        (Printf.sprintf "r=%d empty" r)
        (Max_oblivious.l_uniform coeffs empty)
        (Evalbuf.result buf);
      for trial = 1 to 200 do
        let v =
          Array.init r (fun i ->
              if (trial + i) mod 5 = 0 then 0.
              else 10. *. Numerics.Prng.float rng)
        in
        let o = OO.draw rng ~probs v in
        Evalbuf.load_oblivious buf o;
        Max_oblivious.Flat.l_uniform_into coeffs buf ~dst:buf.Evalbuf.out ~di:0;
        check_bits
          (Printf.sprintf "r=%d trial %d" r trial)
          (Max_oblivious.l_uniform coeffs o)
          (Evalbuf.result buf)
      done)
    [ (2, 0.5); (8, 0.3); (32, 0.2) ]

let test_flat_general_bit_identity () =
  (* r = 2: exhaustive masks over the value grid, heterogeneous p. *)
  List.iter
    (fun (p1, p2) ->
      let probs = [| p1; p2 |] in
      let g = Max_oblivious.General.create ~probs in
      let buf = Evalbuf.create ~r_max:2 in
      List.iter
        (fun v ->
          List.iter
            (fun mask ->
              let o = OO.of_mask ~probs v mask in
              Evalbuf.load_oblivious buf o;
              Max_oblivious.Flat.general_into g buf ~dst:buf.Evalbuf.out ~di:0;
              check_bits "general r=2"
                (Max_oblivious.General.estimate g o)
                (Evalbuf.result buf))
            [
              [| false; false |];
              [| true; false |];
              [| false; true |];
              [| true; true |];
            ])
        value_grid)
    prob_grid;
  (* r = 5: random draws (values with ties and zeros). *)
  let rng = Numerics.Prng.create ~seed:72 () in
  let probs = [| 0.2; 0.35; 0.5; 0.65; 0.8 |] in
  let g = Max_oblivious.General.create ~probs in
  let buf = Evalbuf.create ~r_max:5 in
  for trial = 1 to 200 do
    let v =
      Array.init 5 (fun i ->
          if (trial + i) mod 4 = 0 then 0.
          else Float.round (8. *. Numerics.Prng.float rng))
    in
    let o = OO.draw rng ~probs v in
    Evalbuf.load_oblivious buf o;
    Max_oblivious.Flat.general_into g buf ~dst:buf.Evalbuf.out ~di:0;
    check_bits "general r=5"
      (Max_oblivious.General.estimate g o)
      (Evalbuf.result buf)
  done

let test_flat_pps_bit_identity () =
  let rng = Numerics.Prng.create ~seed:73 () in
  List.iter
    (fun taus ->
      let buf = Evalbuf.create ~r_max:2 in
      for trial = 1 to 300 do
        let v =
          [|
            (if trial mod 7 = 0 then 0.
             else 1.2 *. taus.(0) *. Numerics.Prng.float rng);
            (if trial mod 11 = 0 then 0.
             else 1.2 *. taus.(1) *. Numerics.Prng.float rng);
          |]
        in
        let o = OP.draw rng ~taus v in
        Evalbuf.load_pps buf o;
        Max_pps.Flat.l_into ~taus buf ~dst:buf.Evalbuf.out ~di:0;
        check_bits
          (Printf.sprintf "taus (%g,%g) trial %d" taus.(0) taus.(1) trial)
          (Max_pps.l o) (Evalbuf.result buf)
      done)
    [ [| 1.; 1. |]; [| 1.; 3. |]; [| 10.; 4. |] ]

let test_flat_estimate_det_cases () =
  (* Every closed-form branch of Figure 3 plus edge determining vectors:
     zeros, equal values, values at / just under the threshold, tiny and
     huge magnitudes — and a NaN input, which must take the same branch
     (all comparisons false) on both sides. *)
  let dst = Float.Array.make 1 Float.nan in
  let check ~tau_hi ~tau_lo ~hi ~lo =
    Max_pps.Flat.estimate_det_into ~tau_hi ~tau_lo ~hi ~lo dst 0;
    let expected = Max_pps.estimate_det ~tau_hi ~tau_lo ~hi ~lo in
    let actual = Float.Array.get dst 0 in
    if
      not (Float.is_nan expected && Float.is_nan actual)
      && Int64.bits_of_float expected <> Int64.bits_of_float actual
    then
      Alcotest.failf "estimate_det (tau %h %h, v %h %h): expected %h, got %h"
        tau_hi tau_lo hi lo expected actual
  in
  List.iter
    (fun (tau_hi, tau_lo) ->
      List.iter
        (fun (hi, lo) ->
          if hi >= lo || Float.is_nan hi then check ~tau_hi ~tau_lo ~hi ~lo)
        [
          (0., 0.);
          (1e-12, 0.);
          (0.3, 0.3);
          (0.7, 0.2);
          (tau_lo /. 2., tau_lo /. 2.);
          (tau_hi *. 0.999999, 0.);
          (tau_hi *. 0.999999, tau_lo *. 0.999999);
          (tau_hi /. 3., tau_lo /. 7.);
          (1e9 *. Float.min tau_hi tau_lo, 0.1);
          (Float.nan, 0.5);
        ])
    [ (1., 1.); (1., 3.); (3., 1.); (10., 4.) ]

let test_flat_ht_bit_identity () =
  let rng = Numerics.Prng.create ~seed:74 () in
  (* weighted known-seeds variant, r = 2 *)
  let taus = [| 5.; 3. |] in
  let buf = Evalbuf.create ~r_max:2 in
  for trial = 1 to 300 do
    let v =
      [|
        (if trial mod 6 = 0 then 0. else 6. *. Numerics.Prng.float rng);
        (if trial mod 9 = 0 then 0. else 4. *. Numerics.Prng.float rng);
      |]
    in
    let o = OP.draw rng ~taus v in
    Evalbuf.load_pps buf o;
    Ht.Flat.max_pps_into ~taus buf ~dst:buf.Evalbuf.out ~di:0;
    check_bits "ht pps" (Ht.max_pps o) (Evalbuf.result buf)
  done;
  (* weight-oblivious variant, r = 3 *)
  let probs = [| 0.4; 0.6; 0.8 |] in
  let buf = Evalbuf.create ~r_max:3 in
  for trial = 1 to 300 do
    let v =
      Array.init 3 (fun i ->
          if (trial + i) mod 5 = 0 then 0.
          else 7. *. Numerics.Prng.float rng)
    in
    let o = OO.draw rng ~probs v in
    Evalbuf.load_oblivious buf o;
    Ht.Flat.max_oblivious_into ~probs buf ~dst:buf.Evalbuf.out ~di:0;
    check_bits "ht oblivious" (Ht.max_oblivious o) (Evalbuf.result buf)
  done

let test_flat_min_pps () =
  let rng = Numerics.Prng.create ~seed:75 () in
  List.iter
    (fun taus ->
      let r = Array.length taus in
      let buf = Evalbuf.create ~r_max:r in
      for trial = 1 to 400 do
        let v =
          Array.init r (fun i ->
              if (trial + i) mod 7 = 0 then 0.
              else 2. *. taus.(i) *. Numerics.Prng.float rng)
        in
        let o = OP.draw rng ~taus v in
        Evalbuf.load_pps buf o;
        Ht.Flat.min_pps_into ~taus buf ~dst:buf.Evalbuf.out ~di:0;
        check_bits "ht min pps" (Ht.min_pps o) (Evalbuf.result buf)
      done)
    [ [| 5.; 3. |]; [| 4.; 1.; 9. |] ];
  let taus = [| 5.; 3. |] in
  let bufp = Evalbuf.create ~r_max:2 in
  Evalbuf.load_pps bufp (OP.of_seeds ~taus ~seeds:[| 0.3; 0.2 |] [| 2.5; 1. |]);
  Allocheck.assert_no_alloc "Ht.Flat.min_pps_into" (fun () ->
      Ht.Flat.min_pps_into ~taus bufp ~dst:bufp.Evalbuf.out ~di:0)

let test_or_table_bit_identity () =
  let module T = Or_oblivious.Table in
  let states =
    [ (T.state_unsampled, None); (T.state_zero, Some 0.); (T.state_one, Some 1.) ]
  in
  List.iter
    (fun (p1, p2) ->
      let t = T.create ~p1 ~p2 in
      let dst = Float.Array.make 1 0. in
      List.iter
        (fun (s0, v0) ->
          List.iter
            (fun (s1, v1) ->
              let o =
                { Sampling.Outcome.Oblivious.probs = [| p1; p2 |];
                  values = [| v0; v1 |] }
              in
              let code = T.code s0 s1 in
              let reference = Or_oblivious.l_r2 o in
              check_bits "cell" reference (T.cell t code);
              T.eval_into t ~code ~dst ~di:0;
              check_bits "eval_into" reference (Float.Array.get dst 0);
              Float.Array.set dst 0 1.25;
              T.add_into t ~code dst;
              check_bits "add_into" (1.25 +. reference) (Float.Array.get dst 0))
            states)
        states)
    prob_grid

let test_flat_zero_alloc () =
  let rng = Numerics.Prng.create ~seed:77 () in
  (* max^(L), uniform coefficients, r = 8 *)
  let coeffs8 = Max_oblivious.Coeffs.compute ~r:8 ~p:0.3 in
  let probs8 = Array.make 8 0.3 in
  let buf8 = Evalbuf.create ~r_max:8 in
  Evalbuf.load_oblivious buf8
    (OO.draw rng ~probs:probs8 (Array.init 8 (fun i -> float_of_int (i + 1))));
  Allocheck.assert_no_alloc "Max_oblivious.Flat.l_uniform_into" (fun () ->
      Max_oblivious.Flat.l_uniform_into coeffs8 buf8 ~dst:buf8.Evalbuf.out ~di:0);
  (* max^(L), general Theorem 4.1 table, r = 5 heterogeneous p *)
  let probs5 = [| 0.2; 0.35; 0.5; 0.65; 0.8 |] in
  let g5 = Max_oblivious.General.create ~probs:probs5 in
  let buf5 = Evalbuf.create ~r_max:5 in
  Evalbuf.load_oblivious buf5
    (OO.draw rng ~probs:probs5 [| 1.; 0.; 3.; 2.; 5. |]);
  Allocheck.assert_no_alloc "Max_oblivious.Flat.general_into" (fun () ->
      Max_oblivious.Flat.general_into g5 buf5 ~dst:buf5.Evalbuf.out ~di:0);
  (* weighted PPS max^(L) and max^(HT), r = 2 *)
  let taus = [| 5.; 3. |] in
  let bufp = Evalbuf.create ~r_max:2 in
  Evalbuf.load_pps bufp (OP.of_seeds ~taus ~seeds:[| 0.3; 0.8 |] [| 2.5; 1. |]);
  Allocheck.assert_no_alloc "Max_pps.Flat.l_into" (fun () ->
      Max_pps.Flat.l_into ~taus bufp ~dst:bufp.Evalbuf.out ~di:0);
  Allocheck.assert_no_alloc "Max_pps.Flat.estimate_det_into" (fun () ->
      Max_pps.Flat.estimate_det_into ~tau_hi:5. ~tau_lo:3. ~hi:2.5 ~lo:1.
        bufp.Evalbuf.out 0);
  Allocheck.assert_no_alloc "Ht.Flat.max_pps_into" (fun () ->
      Ht.Flat.max_pps_into ~taus bufp ~dst:bufp.Evalbuf.out ~di:0);
  Allocheck.assert_no_alloc "Ht.Flat.max_oblivious_into" (fun () ->
      Ht.Flat.max_oblivious_into ~probs:probs8 buf8 ~dst:buf8.Evalbuf.out ~di:0);
  (* OR^(L) r=2 table reads *)
  let ot = Or_oblivious.Table.create ~p1:0.3 ~p2:0.6 in
  let code = Or_oblivious.Table.(code state_one state_unsampled) in
  let acc = Float.Array.make 1 0. in
  Allocheck.assert_no_alloc "Or_oblivious.Table.eval_into" (fun () ->
      Or_oblivious.Table.eval_into ot ~code ~dst:acc ~di:0);
  Allocheck.assert_no_alloc "Or_oblivious.Table.add_into" (fun () ->
      Or_oblivious.Table.add_into ot ~code acc)

let () =
  Alcotest.run "estcore"
    [
      ( "ht",
        [
          Alcotest.test_case "single" `Quick test_ht_single;
          Alcotest.test_case "single variance" `Quick test_ht_single_variance_exact;
          Alcotest.test_case "multi oblivious" `Quick test_ht_multi_oblivious;
          Alcotest.test_case "unbiased + eq (10)" `Quick test_ht_unbiased_exact;
          Alcotest.test_case "max pps cases" `Quick test_ht_max_pps_cases;
          Alcotest.test_case "max pps unbiased" `Quick test_ht_max_pps_unbiased;
          Alcotest.test_case "min pps unbiased" `Quick test_ht_min_pps_unbiased;
        ] );
      ( "max-L",
        [
          Alcotest.test_case "unbiased on grid" `Quick test_l_r2_unbiased_grid;
          Alcotest.test_case "figure 1 table" `Quick test_l_r2_figure1_table;
          Alcotest.test_case "determining vector" `Quick test_l_r2_determining_vector;
          Alcotest.test_case "dominates HT" `Quick test_l_dominates_ht;
          Alcotest.test_case "L/U incomparable" `Quick test_l_u_incomparable;
          Alcotest.test_case "monotone" `Quick test_l_monotone_r2;
          Alcotest.test_case "Var[L] closed form" `Quick test_l_variance_closed_form;
          prop_l_r2_nonnegative;
          prop_l_r2_unbiased;
        ] );
      ( "coeffs",
        [
          Alcotest.test_case "r=2 closed form" `Quick test_coeffs_closed_forms;
          Alcotest.test_case "r=3 closed form" `Quick test_coeffs_r3_closed_form;
          Alcotest.test_case "sum = A_r" `Quick test_coeffs_sum_is_ar;
          Alcotest.test_case "input guards" `Quick test_coeffs_invalid;
          Alcotest.test_case "unbiased r=3,4,5" `Quick test_l_uniform_unbiased_r345;
          Alcotest.test_case "matches r=2 formula" `Quick test_l_uniform_matches_r2;
          Alcotest.test_case "tie invariance" `Quick test_l_uniform_tie_invariance;
          Alcotest.test_case "dispatch guard" `Quick test_l_dispatch;
          Alcotest.test_case "r=3 general p unbiased" `Quick test_l_r3_unbiased_general_p;
          Alcotest.test_case "r=3 matches uniform" `Quick test_l_r3_matches_uniform;
          Alcotest.test_case "r=3 engine agreement" `Quick test_l_r3_engine_agreement;
          Alcotest.test_case "r=3 dominates HT" `Quick test_l_r3_dominates_ht;
          Alcotest.test_case "uniformity guard" `Quick test_l_uniform_guard;
          Alcotest.test_case "lemma 4.2 to r=8" `Quick test_lemma42_r_up_to_8;
          Alcotest.test_case "dominates HT r=4" `Quick test_l_uniform_dominates_ht_r4;
        ] );
      ( "general",
        [
          Alcotest.test_case "matches r=2" `Quick test_general_matches_r2;
          Alcotest.test_case "matches r=3" `Quick test_general_matches_r3;
          Alcotest.test_case "matches uniform" `Quick test_general_matches_uniform;
          Alcotest.test_case "unbiased r=5 mixed p" `Quick test_general_unbiased_r5;
          Alcotest.test_case "dominates HT r=4" `Quick test_general_dominates_ht_r4;
          Alcotest.test_case "prefix sums" `Quick test_general_prefix_sums;
          Alcotest.test_case "guards" `Quick test_general_guards;
          (qtest ~count:60 "General unbiased for random p (r ≤ 4)"
             QCheck.small_int
             (fun seed ->
               let rng = Numerics.Prng.create ~seed () in
               let r = 2 + Numerics.Prng.int rng 3 in
               let probs =
                 Array.init r (fun _ -> 0.1 +. (0.85 *. Numerics.Prng.float rng))
               in
               let g = Max_oblivious.General.create ~probs in
               let v =
                 Array.init r (fun _ ->
                     Float.round (9. *. Numerics.Prng.float rng))
               in
               let m =
                 Exact.oblivious ~probs ~v (Max_oblivious.General.estimate g)
               in
               Numerics.Special.float_equal ~eps:1e-8 (vmax v) m.Exact.mean));
          (qtest ~count:60
             "General coefficients: α₁ > 0, α_i ≤ 0 for i > 1 (Lemma 4.2 \
              conjecture, heterogeneous p)"
             QCheck.small_int
             (fun seed ->
               let rng = Numerics.Prng.create ~seed () in
               let r = 2 + Numerics.Prng.int rng 4 in
               let probs =
                 Array.init r (fun _ -> 0.1 +. (0.85 *. Numerics.Prng.float rng))
               in
               let g = Max_oblivious.General.create ~probs in
               (* A random permutation's consecutive prefix sums. *)
               let order = Array.init r Fun.id in
               Numerics.Prng.shuffle rng order;
               let ok = ref true in
               let prev = ref 0. in
               let prefix = ref [] in
               Array.iteri
                 (fun pos i ->
                   prefix := i :: !prefix;
                   let a = Max_oblivious.General.prefix_sum g !prefix in
                   let alpha = a -. !prev in
                   if pos = 0 then begin
                     if alpha <= 0. then ok := false
                   end
                   else if alpha > 1e-9 then ok := false;
                   prev := a)
                 order;
               !ok));
        ] );
      ( "max-U",
        [
          Alcotest.test_case "unbiased" `Quick test_u_unbiased_grid;
          Alcotest.test_case "figure 1 values" `Quick test_u_figure1_values;
          Alcotest.test_case "Var[U] (corrected)" `Quick test_u_variance_closed_form;
          Alcotest.test_case "dominates HT" `Quick test_u_dominates_ht;
          Alcotest.test_case "asymmetric variant" `Quick test_uas_asymmetry;
          prop_u_nonnegative;
        ] );
      ( "or",
        [
          Alcotest.test_case "unbiased" `Quick test_or_unbiased;
          Alcotest.test_case "variance closed forms" `Quick test_or_var_closed_forms;
          Alcotest.test_case "domain guard" `Quick test_or_domain_guard;
          Alcotest.test_case "uniform r=3" `Quick test_or_uniform_r3;
          Alcotest.test_case "asymptotics" `Quick test_or_asymptotics;
        ] );
      ( "max-pps",
        [
          Alcotest.test_case "determining vector" `Quick test_pps_determining_vector;
          Alcotest.test_case "eq 25" `Quick test_pps_equal_values_form;
          Alcotest.test_case "eq 26" `Quick test_pps_case26;
          Alcotest.test_case "case hi above tau" `Quick test_pps_case3;
          Alcotest.test_case "unbiased all cases" `Quick test_pps_unbiased_cases;
          Alcotest.test_case "case boundaries" `Quick test_pps_case_boundaries_continuous;
          Alcotest.test_case "dominates HT" `Quick test_pps_l_dominates_ht;
          Alcotest.test_case "ratio bound" `Quick test_pps_ratio_bound;
          Alcotest.test_case "extreme variances" `Quick test_pps_extreme_variance_forms;
          Alcotest.test_case "fast = full quadrature" `Quick test_pps_fast_matches_full;
          Alcotest.test_case "erratum 3 negative control" `Quick
            test_pps_erratum_30_negative_control;
          prop_pps_l_nonnegative;
          prop_pps_l_unbiased_random;
          prop_pps_l_dominates_random;
          Alcotest.test_case "non-dominance at unequal taus" `Quick
            test_pps_l_nondominance_unequal_taus;
          prop_coordinated_unbiased_random;
          prop_min_pps_unbiased_random;
        ] );
      ( "or-weighted",
        [
          Alcotest.test_case "unbiased" `Quick test_or_weighted_unbiased;
          Alcotest.test_case "printed tables" `Quick test_or_weighted_tables;
          Alcotest.test_case "variance transfer" `Quick test_or_weighted_variance_transfer;
        ] );
      ( "flat",
        [
          Alcotest.test_case "max^(L) uniform bit-identity r=2,8,32" `Quick
            test_flat_l_uniform_bit_identity;
          Alcotest.test_case "max^(L) general bit-identity" `Quick
            test_flat_general_bit_identity;
          Alcotest.test_case "max^(L) PPS bit-identity" `Quick
            test_flat_pps_bit_identity;
          Alcotest.test_case "Fig 3 cases bit-identity + edges" `Quick
            test_flat_estimate_det_cases;
          Alcotest.test_case "HT bit-identity" `Quick test_flat_ht_bit_identity;
          Alcotest.test_case "HT min bit-identity + zero allocation" `Quick
            test_flat_min_pps;
          Alcotest.test_case "OR^(L) r=2 table bit-identity" `Quick
            test_or_table_bit_identity;
          Alcotest.test_case "zero allocation per call" `Quick
            test_flat_zero_alloc;
        ] );
      ( "exact",
        [
          Alcotest.test_case "constant estimator" `Quick test_exact_constant;
          Alcotest.test_case "monte carlo agrees" `Slow test_exact_monte_carlo_agrees;
          Alcotest.test_case "monte carlo pool-deterministic" `Quick
            test_monte_carlo_pool_deterministic;
          Alcotest.test_case "dominates with pool" `Quick
            test_exact_dominates_pool;
          Alcotest.test_case "dominates" `Quick test_exact_dominates;
        ] );
    ]
