(* Tests for the sum-aggregate layer: dataset model, per-key estimation
   over real samples, distinct counting (Section 8.1), dominance norms
   (Section 8.2). *)

module I = Sampling.Instance
module DS = Aggregates.Dataset
module SA = Aggregates.Sum_agg
module DC = Aggregates.Distinct

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Numerics.Special.float_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Statistical unbiasedness helper: mean over masters within 5 sigma. *)
let assert_unbiased ~masters ~truth f =
  let acc = Numerics.Stats.Acc.create () in
  for m = 1 to masters do
    Numerics.Stats.Acc.add acc (f m)
  done;
  let mean = Numerics.Stats.Acc.mean acc in
  let sd = sqrt (Numerics.Stats.Acc.var acc /. float_of_int masters) in
  if abs_float (mean -. truth) > (5. *. sd) +. 1e-9 then
    Alcotest.failf "biased: mean %.4f vs truth %.4f (sd %.4f)" mean truth sd;
  Numerics.Stats.Acc.var acc

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)
(* ------------------------------------------------------------------ *)

let test_dataset_basic () =
  let ds =
    DS.create [ I.of_assoc [ (1, 2.); (2, 3.) ]; I.of_assoc [ (2, 1.); (3, 4.) ] ]
  in
  Alcotest.(check int) "instances" 2 (DS.num_instances ds);
  Alcotest.(check (list int)) "keys" [ 1; 2; 3 ] (DS.keys ds);
  Alcotest.(check (array (float 1e-12))) "values" [| 3.; 1. |] (DS.values ds 2);
  check_float "max dominance" 9. (DS.max_dominance ds);
  check_float "min dominance" 1. (DS.min_dominance ds);
  Alcotest.(check int) "distinct" 3 (DS.distinct_count ds);
  check_float "l1" (2. +. 2. +. 4.) (DS.l1_distance ds 0 1);
  check_float "sum agg with select" 3.
    (DS.sum_aggregate ds
       ~f:(fun v -> Float.max v.(0) v.(1))
       ~select:(fun h -> h = 2))

let test_figure5_panelA () =
  Alcotest.(check bool) "printed aggregates" true (Experiments.Fig5.aggregates_match ())

let test_figure5_bottom3 () =
  Alcotest.(check bool) "independent bottom-3" true
    (Experiments.Fig5.independent_bottom3_match ());
  (* Shared-seed bottom-3 from correctly computed ranks (the paper's
     printed instance-2 row has an arithmetic slip; see EXPERIMENTS.md). *)
  let ranks = DS.Figure5.shared_ranks () in
  Alcotest.(check (list int)) "shared inst 1" [ 3; 1; 6 ]
    (DS.Figure5.bottom3 ~ranks ~instance:0);
  Alcotest.(check (list int)) "shared inst 2 (corrected)" [ 3; 1; 6 ]
    (DS.Figure5.bottom3 ~ranks ~instance:1);
  Alcotest.(check (list int)) "shared inst 3" [ 3; 1; 5 ]
    (DS.Figure5.bottom3 ~ranks ~instance:2)

let test_figure5_rank_values () =
  let ranks = DS.Figure5.shared_ranks () in
  let r h i = (List.assoc h ranks).(i) in
  check_float ~eps:1e-4 "r1(1)" 0.0147 (r 1 0);
  Alcotest.(check bool) "r1(2) = inf" true (r 2 0 = infinity);
  check_float ~eps:1e-4 "r3(3)" 0.0047 (r 3 2);
  check_float ~eps:1e-4 "r2(4)" 0.046 (r 4 1);
  (* The corrected value of the paper's slip: *)
  check_float ~eps:1e-4 "r2(3) = 0.07/12" (0.07 /. 12.) (r 3 1)

let test_figure5_consistency () =
  (* Shared-seed ranks are consistent: larger value => smaller rank. *)
  let ranks = DS.Figure5.shared_ranks () in
  let ds = DS.Figure5.dataset in
  List.iter
    (fun (h, rs) ->
      let v = DS.values ds h in
      for i = 0 to 2 do
        for j = 0 to 2 do
          if v.(i) > v.(j) then
            Alcotest.(check bool)
              (Printf.sprintf "key %d: v%d > v%d" h i j)
              true
              (rs.(i) < rs.(j) +. 1e-12)
        done
      done)
    ranks

(* ------------------------------------------------------------------ *)
(* Sum_agg                                                             *)
(* ------------------------------------------------------------------ *)

let two_instances =
  let rng = Numerics.Prng.create ~seed:50 () in
  let mk () =
    I.of_assoc
      (List.init 300 (fun i ->
           (i + 1, if Numerics.Prng.float rng < 0.2 then 0. else 1. +. (10. *. Numerics.Prng.float rng))))
  in
  [ mk (); mk () ]

let test_key_outcome_reconstruction () =
  let seeds = Sampling.Seeds.create ~master:9 Sampling.Seeds.Independent in
  let taus = [| 15.; 20. |] in
  let samples = SA.sample_pps seeds ~taus two_instances in
  (* The estimator-side outcome must agree with the data-side outcome. *)
  List.iter
    (fun h ->
      let from_samples = SA.key_outcome samples h in
      let from_data =
        Sampling.Poisson.key_outcome_pps seeds ~taus ~instances:two_instances h
      in
      Alcotest.(check (list int))
        (Printf.sprintf "sampled set of key %d" h)
        (Sampling.Outcome.Pps.sampled from_data)
        (Sampling.Outcome.Pps.sampled from_samples))
    (I.union_keys two_instances)

let test_sampled_keys_sorted () =
  let seeds = Sampling.Seeds.create ~master:9 Sampling.Seeds.Independent in
  let samples = SA.sample_pps seeds ~taus:[| 15.; 20. |] two_instances in
  let ks = Agg_oracle.sampled_keys samples in
  Alcotest.(check bool) "sorted" true (List.sort compare ks = ks)

let test_sum_agg_unbiased_l () =
  let truth = I.max_dominance two_instances in
  let taus = [| 15.; 20. |] in
  let var =
    assert_unbiased ~masters:300 ~truth (fun m ->
        let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
        let samples = SA.sample_pps seeds ~taus two_instances in
        SA.estimate samples ~est:Estcore.Max_pps.l ~select:(fun _ -> true))
  in
  (* Empirical variance should be within a factor 2 of the exact one. *)
  let exact =
    SA.exact_variance ~taus ~instances:two_instances
      ~moments:(fun ~taus ~v -> Estcore.Exact.pps_r2_fast ~taus ~v Estcore.Max_pps.l)
      ~select:(fun _ -> true)
  in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.1f vs exact %.1f" var exact)
    true
    (var > exact /. 2. && var < exact *. 2.)

let test_sum_agg_unbiased_ht () =
  let truth = I.max_dominance two_instances in
  let taus = [| 15.; 20. |] in
  ignore
    (assert_unbiased ~masters:300 ~truth (fun m ->
         let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
         let samples = SA.sample_pps seeds ~taus two_instances in
         SA.estimate samples ~est:Estcore.Ht.max_pps ~select:(fun _ -> true)))

let test_sum_agg_flat_bit_identity () =
  (* Every sum aggregate is one column walk (the Dominance norms on one
     reused Evalbuf); the guarantee is not "close", it is the bits of
     the list-and-hashtable oracle with the reference estimators — over
     plain PPS samples and priority (bottom-k) samples, independent and
     shared seeds, with and without a selection predicate. *)
  let same msg walked oracle =
    if Int64.bits_of_float walked <> Int64.bits_of_float oracle then
      Alcotest.failf "%s: walk %.17g vs oracle %.17g" msg walked oracle
  in
  let check_samples msg samples =
    List.iter
      (fun (sname, select) ->
        List.iter
          (fun (ename, walked, est) ->
            same
              (Printf.sprintf "%s/%s/%s" msg ename sname)
              (walked samples ~select)
              (Agg_oracle.estimate samples ~est ~select))
          [
            ("max_l", Aggregates.Dominance.max_dominance_l, Estcore.Max_pps.l);
            ("max_ht", Aggregates.Dominance.max_dominance_ht, Estcore.Ht.max_pps);
            ("min_ht", Aggregates.Dominance.min_dominance_ht, Estcore.Ht.min_pps);
            ( "coordinated",
              Aggregates.Dominance.max_dominance_coordinated,
              Estcore.Coordinated.max_ht );
            ( "estimate",
              SA.estimate ~est:Estcore.Max_pps.l,
              Estcore.Max_pps.l );
          ];
        let walked = Aggregates.Similarity.sums samples ~select in
        let oracle = Agg_oracle.similarity_sums samples ~select in
        same
          (Printf.sprintf "%s/union/%s" msg sname)
          walked.Aggregates.Similarity.union_hat
          oracle.Aggregates.Similarity.union_hat;
        same
          (Printf.sprintf "%s/intersection/%s" msg sname)
          walked.Aggregates.Similarity.inter_hat
          oracle.Aggregates.Similarity.inter_hat)
      [ ("all", (fun _ -> true)); ("even keys", fun h -> h mod 2 = 0) ]
  in
  List.iter
    (fun master ->
      List.iter
        (fun (mname, mode) ->
          let seeds = Sampling.Seeds.create ~master mode in
          check_samples (mname ^ " pps")
            (SA.sample_pps seeds ~taus:[| 15.; 20. |] two_instances);
          check_samples (mname ^ " priority")
            (SA.sample_priority seeds ~k:40 two_instances))
        [
          ("independent", Sampling.Seeds.Independent);
          ("shared", Sampling.Seeds.Shared);
        ])
    [ 3; 9; 27 ];
  (* max^(L) is the r = 2 closed form: other arities are refused *)
  let seeds = Sampling.Seeds.create ~master:3 Sampling.Seeds.Independent in
  let three = SA.sample_pps seeds ~taus:[| 15.; 20.; 25. |]
      (two_instances @ [ List.hd two_instances ]) in
  Alcotest.check_raises "max_l at r = 3"
    (Invalid_argument "Dominance.max_dominance_l: max^(L) needs r = 2")
    (fun () ->
      ignore (Aggregates.Dominance.max_dominance_l three ~select:(fun _ -> true)))

let test_exact_variance_additive () =
  let taus = [| 15.; 20. |] in
  let sel h = h mod 2 = 0 in
  let direct =
    List.fold_left
      (fun acc h ->
        if sel h then
          acc
          +. (Estcore.Exact.pps_r2_fast ~taus
                ~v:(I.values_of_key two_instances h)
                Estcore.Max_pps.l)
               .Estcore.Exact.var
        else acc)
      0.
      (I.union_keys two_instances)
  in
  check_float "additivity" direct
    (SA.exact_variance ~taus ~instances:two_instances
       ~moments:(fun ~taus ~v -> Estcore.Exact.pps_r2_fast ~taus ~v Estcore.Max_pps.l)
       ~select:sel)

let test_of_summaries () =
  let seeds = Sampling.Seeds.create ~master:9 Sampling.Seeds.Independent in
  (* Poisson summaries reproduce sample_pps exactly. *)
  let taus = [| 15.; 20. |] in
  let summaries =
    Array.of_list
      (List.mapi
         (fun i inst ->
           Sampling.Summary.summarize seeds
             (Sampling.Summary.Poisson_pps { tau = taus.(i) })
             ~instance:i inst)
         two_instances)
  in
  let via_summaries = SA.of_summaries seeds summaries in
  let direct = SA.sample_pps seeds ~taus two_instances in
  check_float ~eps:0. "same L estimate"
    (SA.estimate direct ~est:Estcore.Max_pps.l ~select:(fun _ -> true))
    (SA.estimate via_summaries ~est:Estcore.Max_pps.l ~select:(fun _ -> true));
  (* Bottom-k (PPS ranks) summaries reproduce sample_priority. *)
  let k = 40 in
  let bk =
    Array.of_list
      (List.mapi
         (fun i inst ->
           Sampling.Summary.summarize seeds
             (Sampling.Summary.Bottom_k { k; family = Sampling.Rank.PPS })
             ~instance:i inst)
         two_instances)
  in
  let via_bk = SA.of_summaries seeds bk in
  let direct_bk = SA.sample_priority seeds ~k two_instances in
  check_float ~eps:0. "same priority estimate"
    (SA.estimate direct_bk ~est:Estcore.Max_pps.l ~select:(fun _ -> true))
    (SA.estimate via_bk ~est:Estcore.Max_pps.l ~select:(fun _ -> true));
  (* VarOpt has no threshold: rejected. *)
  let vo =
    [|
      Sampling.Summary.summarize seeds (Sampling.Summary.Var_opt { k = 10 })
        ~instance:0 (List.hd two_instances);
    |]
  in
  Alcotest.check_raises "varopt rejected"
    (Invalid_argument "Sum_agg.of_summaries: summary exposes no PPS threshold")
    (fun () -> ignore (SA.of_summaries seeds vo))

(* ------------------------------------------------------------------ *)
(* Distinct                                                            *)
(* ------------------------------------------------------------------ *)

let set_pair = Workload.Setpairs.pair ~n:800 ~jaccard:0.5

let test_classify_partition () =
  let a, b = set_pair in
  let seeds = Sampling.Seeds.create ~master:4 Sampling.Seeds.Independent in
  let p = 0.3 in
  let s1 = DC.sample_binary seeds ~p ~instance:0 a in
  let s2 = DC.sample_binary seeds ~p ~instance:1 b in
  let c = DC.classify seeds ~p1:p ~p2:p ~s1 ~s2 ~select:(fun _ -> true) in
  (* The classes partition the sampled union. *)
  let module S = Set.Make (Int) in
  let total = S.cardinal (S.union (S.of_list s1) (S.of_list s2)) in
  Alcotest.(check int) "partition"
    total
    (c.DC.f1q + c.DC.fq1 + c.DC.f11 + c.DC.f10 + c.DC.f01)

let test_sample_binary_rule () =
  let a, _ = set_pair in
  let seeds = Sampling.Seeds.create ~master:4 Sampling.Seeds.Independent in
  let p = 0.3 in
  let s1 = DC.sample_binary seeds ~p ~instance:0 a in
  List.iter
    (fun h ->
      Alcotest.(check bool) "u <= p" true
        (Sampling.Seeds.seed seeds ~instance:0 ~key:h <= p))
    s1;
  (* And no qualifying key is missing. *)
  let expected =
    I.fold
      (fun h _ acc ->
        if Sampling.Seeds.seed seeds ~instance:0 ~key:h <= p then h :: acc else acc)
      a []
    |> List.rev
  in
  Alcotest.(check (list int)) "exact sample" expected s1

let test_distinct_unbiased () =
  let a, b = set_pair in
  let truth = float_of_int (Workload.Setpairs.union_size a b) in
  let p = 0.25 in
  let run est m =
    let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
    let s1 = DC.sample_binary seeds ~p ~instance:0 a in
    let s2 = DC.sample_binary seeds ~p ~instance:1 b in
    let c = DC.classify seeds ~p1:p ~p2:p ~s1 ~s2 ~select:(fun _ -> true) in
    est c ~p1:p ~p2:p
  in
  ignore (assert_unbiased ~masters:400 ~truth (run DC.ht_estimate));
  ignore (assert_unbiased ~masters:400 ~truth (run DC.l_estimate));
  ignore (assert_unbiased ~masters:400 ~truth (run DC.u_estimate))

let test_distinct_variance_formulas () =
  let a, b = set_pair in
  let truth = float_of_int (Workload.Setpairs.union_size a b) in
  let j = I.jaccard a b in
  let p = 0.25 in
  let collect est =
    let acc = Numerics.Stats.Acc.create () in
    for m = 1 to 600 do
      let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
      let s1 = DC.sample_binary seeds ~p ~instance:0 a in
      let s2 = DC.sample_binary seeds ~p ~instance:1 b in
      let c = DC.classify seeds ~p1:p ~p2:p ~s1 ~s2 ~select:(fun _ -> true) in
      Numerics.Stats.Acc.add acc (est c ~p1:p ~p2:p)
    done;
    Numerics.Stats.Acc.var acc
  in
  let eht = DC.var_ht ~d:truth ~p1:p ~p2:p in
  let el = DC.var_l ~d:truth ~jaccard:j ~p1:p ~p2:p in
  let vht = collect DC.ht_estimate in
  let vl = collect DC.l_estimate in
  Alcotest.(check bool)
    (Printf.sprintf "HT var %.0f ~ %.0f" vht eht)
    true
    (vht > eht *. 0.7 && vht < eht *. 1.3);
  Alcotest.(check bool)
    (Printf.sprintf "L var %.0f ~ %.0f" vl el)
    true
    (vl > el *. 0.7 && vl < el *. 1.3);
  Alcotest.(check bool) "L beats HT" true (el < eht)

let test_required_ht_formula () =
  let n = 1e6 and j = 0.5 and cv = 0.1 in
  let p = DC.Required.p_ht ~n ~jaccard:j ~cv in
  let nu = DC.Required.union_size ~n ~jaccard:j in
  (* Achieved cv at that p equals the target. *)
  let var = DC.var_ht ~d:nu ~p1:p ~p2:p in
  check_float ~eps:1e-6 "achieves target" cv (sqrt var /. nu);
  check_float "sample size" (p *. n) (DC.Required.sample_size ~p ~n)

let test_required_l_solves () =
  List.iter
    (fun j ->
      let n = 1e5 and cv = 0.1 in
      let p = DC.Required.p_l ~n ~jaccard:j ~cv in
      let nu = DC.Required.union_size ~n ~jaccard:j in
      let var = DC.var_l ~d:nu ~jaccard:j ~p1:p ~p2:p in
      check_float ~eps:1e-5 (Printf.sprintf "achieves cv at J=%.1f" j) cv
        (sqrt var /. nu))
    [ 0.; 0.5; 0.9; 1. ]

let test_required_l_cheaper () =
  let n = 1e6 and cv = 0.1 in
  List.iter
    (fun j ->
      Alcotest.(check bool) "L needs fewer samples" true
        (DC.Required.p_l ~n ~jaccard:j ~cv < DC.Required.p_ht ~n ~jaccard:j ~cv))
    [ 0.; 0.5; 0.9; 1. ]

(* ------------------------------------------------------------------ *)
(* Dominance                                                           *)
(* ------------------------------------------------------------------ *)

let test_dominance_unbiased () =
  let truth = I.max_dominance two_instances in
  let taus = [| 15.; 20. |] in
  ignore
    (assert_unbiased ~masters:300 ~truth (fun m ->
         let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
         let samples = SA.sample_pps seeds ~taus two_instances in
         Aggregates.Dominance.max_dominance_l samples ~select:(fun _ -> true)))

let test_min_dominance_unbiased () =
  let truth = I.min_dominance two_instances in
  let taus = [| 15.; 20. |] in
  ignore
    (assert_unbiased ~masters:400 ~truth (fun m ->
         let seeds = Sampling.Seeds.create ~master:m Sampling.Seeds.Independent in
         let samples = SA.sample_pps seeds ~taus two_instances in
         Aggregates.Dominance.min_dominance_ht samples ~select:(fun _ -> true)))

let test_dominance_exact_variances () =
  let taus = [| 15.; 20. |] in
  let vht, vl =
    Aggregates.Dominance.exact_variances ~taus ~instances:two_instances
      ~select:(fun _ -> true)
  in
  Alcotest.(check bool) "L dominates HT in aggregate" true (vl < vht);
  Alcotest.(check bool) "positive" true (vl > 0.);
  check_float "normalized variance" (vl /. 4.)
    (Aggregates.Dominance.normalized_variance ~var:vl ~truth:2.)

let () =
  Alcotest.run "aggregates"
    [
      ( "dataset",
        [
          Alcotest.test_case "basics" `Quick test_dataset_basic;
          Alcotest.test_case "figure 5 (A)" `Quick test_figure5_panelA;
          Alcotest.test_case "figure 5 bottom-3" `Quick test_figure5_bottom3;
          Alcotest.test_case "figure 5 rank values" `Quick test_figure5_rank_values;
          Alcotest.test_case "consistent ranks" `Quick test_figure5_consistency;
          Alcotest.test_case "load from files" `Quick
            (fun () ->
              let p1 = Filename.temp_file "i1" ".txt" in
              let p2 = Filename.temp_file "i2" ".txt" in
              Sampling.Io.write_instance ~path:p1 (I.of_assoc [ (1, 2.) ]);
              Sampling.Io.write_instance ~path:p2 (I.of_assoc [ (2, 3.) ]);
              let ds = DS.load ~paths:[ p1; p2 ] in
              Sys.remove p1;
              Sys.remove p2;
              Alcotest.(check int) "two instances" 2 (DS.num_instances ds);
              check_float "value" 3. (I.value (DS.instance ds 1) 2));
        ] );
      ( "sum-agg",
        [
          Alcotest.test_case "outcome reconstruction" `Quick test_key_outcome_reconstruction;
          Alcotest.test_case "sampled keys sorted" `Quick test_sampled_keys_sorted;
          Alcotest.test_case "L unbiased + variance" `Slow test_sum_agg_unbiased_l;
          Alcotest.test_case "HT unbiased" `Slow test_sum_agg_unbiased_ht;
          Alcotest.test_case "flat path bit-identical" `Quick
            test_sum_agg_flat_bit_identity;
          Alcotest.test_case "variance additivity" `Quick test_exact_variance_additive;
          Alcotest.test_case "of_summaries" `Quick test_of_summaries;
        ] );
      ( "distinct",
        [
          Alcotest.test_case "classes partition" `Quick test_classify_partition;
          Alcotest.test_case "sample rule" `Quick test_sample_binary_rule;
          Alcotest.test_case "estimators unbiased" `Slow test_distinct_unbiased;
          Alcotest.test_case "variance formulas" `Slow test_distinct_variance_formulas;
          Alcotest.test_case "required p (HT)" `Quick test_required_ht_formula;
          Alcotest.test_case "required p (L)" `Quick test_required_l_solves;
          Alcotest.test_case "L cheaper than HT" `Quick test_required_l_cheaper;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "max-dominance unbiased" `Slow test_dominance_unbiased;
          Alcotest.test_case "min-dominance unbiased" `Slow test_min_dominance_unbiased;
          Alcotest.test_case "exact variances" `Quick test_dominance_exact_variances;
        ] );
    ]
