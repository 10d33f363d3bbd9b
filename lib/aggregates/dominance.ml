(* The three independent-seed norms are sums of one Sum_agg.max_columns
   walk over the samples' columns. *)
let sums (t : Sum_agg.pps_samples) ~select =
  Sum_agg.max_columns t.seeds ~ids:(Sum_agg.ids t) ~taus:t.taus
    (Sum_agg.columns t) ~select

let max_dominance_l samples ~select =
  match (sums samples ~select).max_l with
  | Some l -> l
  | None -> invalid_arg "Dominance.max_dominance_l: max^(L) needs r = 2"

let max_dominance_ht samples ~select = (sums samples ~select).max_ht
let min_dominance_ht samples ~select = (sums samples ~select).min_ht

let max_dominance_coordinated samples ~select =
  Sum_agg.estimate samples ~est:Estcore.Coordinated.max_ht ~select

let exact_variance_coordinated ~taus ~instances ~select =
  Sum_agg.exact_variance ~taus ~instances ~select ~moments:(fun ~taus ~v ->
      Estcore.Coordinated.moments ~taus ~v Estcore.Coordinated.max_ht)

let exact_variances ~taus ~instances ~select =
  let var_ht =
    Sum_agg.exact_variance ~taus ~instances ~select ~moments:(fun ~taus ~v ->
        {
          Estcore.Exact.mean = Array.fold_left Float.max 0. v;
          var = Estcore.Ht.max_pps_variance ~taus ~v;
        })
  in
  let var_l =
    Sum_agg.exact_variance ~taus ~instances ~select ~moments:(fun ~taus ~v ->
        Estcore.Exact.pps_r2_fast ~cache_key:"max_pps.l" ~taus ~v
          Estcore.Max_pps.l)
  in
  (var_ht, var_l)

let normalized_variance ~var ~truth = var /. (truth *. truth)
