(* The monotone-estimation engine (Estcore.Monotone) and the similarity
   query layer (Aggregates.Similarity) built on it.

   The oracle is brute-force enumeration of the coordinated sample
   space: the outcome — and therefore any estimator of it — is constant
   between consecutive entry points of the data, so exact moments are a
   finite sum of piece-length-weighted midpoint evaluations. Every L*
   closed form is checked unbiased and finite-variance against that
   enumeration, cross-checked against the quadrature engines
   (Monotone.lstar over the step trajectory, Coordinated.expectation
   over the seed line), pinned to the known optimal estimators it must
   specialize to, and its Flat serving twin is pinned bit-identical. *)

module M = Estcore.Monotone
module C = Estcore.Coordinated
module EB = Estcore.Evalbuf
module Sim = Aggregates.Similarity
module Sum_agg = Aggregates.Sum_agg

let fmax = Array.fold_left Float.max 0.
let fmin a = Array.fold_left Float.min infinity a
let fsum = Array.fold_left ( +. ) 0.

(* --- the enumeration oracle --- *)

(* Seed-line pieces: between consecutive entry points the sampled set —
   and any estimator reading only the outcome — is constant, so the
   midpoint value is the piece's value and the moment sums are exact. *)
let pieces ~taus ~v =
  let pts =
    Array.to_list (Array.mapi (fun i vi -> Float.min 1. (vi /. taus.(i))) v)
    |> List.filter (fun a -> a > 0. && a < 1.)
  in
  let pts = List.sort_uniq Float.compare ((0. :: [ 1. ]) @ pts) in
  let rec consecutive = function
    | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
    | _ -> []
  in
  consecutive pts

let enum_moments ~taus ~v est =
  List.fold_left
    (fun (m1, m2) (a, b) ->
      let u = 0.5 *. (a +. b) in
      let x = est (C.of_seed ~taus ~u v) in
      (m1 +. (x *. (b -. a)), m2 +. (x *. x *. (b -. a))))
    (0., 0.) (pieces ~taus ~v)

let close ?(tol = 1e-12) msg expected got =
  let scale = Float.max 1. (Float.abs expected) in
  if Float.abs (expected -. got) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected got

(* Data configurations exercising every closed-form branch: equal and
   unequal thresholds, values above threshold (entry point 1), zero
   entries (never sampled), equal values, proportional value/threshold
   pairs (coincident entry points), r up to 4. *)
let configs =
  [ ("equal-taus", [| 10.; 10. |], [| 3.; 7. |]);
    ("unequal-taus", [| 10.; 5. |], [| 3.; 7. |]);
    ("above-threshold", [| 2.; 5. |], [| 3.; 7. |]);
    ("both-above", [| 2.; 3. |], [| 5.; 7. |]);
    ("zero-entry", [| 10.; 10. |], [| 0.; 4. |]);
    ("equal-values", [| 10.; 8. |], [| 6.; 6. |]);
    ("coincident-entry-points", [| 10.; 20. |], [| 2.; 4. |]);
    ("r3", [| 10.; 8.; 6. |], [| 2.; 5.; 9. |]);
    ("r4-mixed", [| 10.; 3.; 8.; 12. |], [| 2.; 5.; 0.; 9. |]) ]

(* --- unbiasedness and finite variance, per query kind --- *)

(* union → L*-max, intersection → L*-min, l1 → their per-key difference,
   jaccard → the same two sums as numerator and denominator. *)
let test_unbiased_per_kind () =
  List.iter
    (fun (label, taus, v) ->
      let check_kind kind est truth =
        let mean, second = enum_moments ~taus ~v est in
        close (Printf.sprintf "%s/%s unbiased" label kind) truth mean;
        let var = second -. (mean *. mean) in
        if not (Float.is_finite var) then
          Alcotest.failf "%s/%s variance not finite" label kind;
        if var < -1e-9 then
          Alcotest.failf "%s/%s negative variance %g" label kind var
      in
      let minv = if Array.exists (fun x -> x = 0.) v then 0. else fmin v in
      check_kind "union(max)" M.max_lstar (fmax v);
      check_kind "intersection(min)" M.min_lstar minv;
      check_kind "l1(max-min)"
        (fun o -> M.max_lstar o -. M.min_lstar o)
        (fmax v -. minv);
      (* jaccard is the ratio of the two sums; unbiasedness lives in the
         components, so pin both through one outcome evaluation. *)
      check_kind "jaccard-numerator" M.min_lstar minv;
      check_kind "jaccard-denominator" M.max_lstar (fmax v);
      check_kind "sum(ht-anchor)" M.sum_lstar (fsum v))
    configs

(* The enumeration itself cross-checked against the independent
   quadrature moment engine (different machinery, same answer). *)
let test_enumeration_matches_quadrature () =
  List.iter
    (fun (label, taus, v) ->
      List.iter
        (fun (kind, est) ->
          let mean, second = enum_moments ~taus ~v est in
          let q = C.moments ~taus ~v est in
          close ~tol:1e-6
            (Printf.sprintf "%s/%s mean: enumeration vs quadrature" label kind)
            mean q.Estcore.Exact.mean;
          close ~tol:1e-6
            (Printf.sprintf "%s/%s var: enumeration vs quadrature" label kind)
            (second -. (mean *. mean))
            q.Estcore.Exact.var)
        [ ("max", M.max_lstar); ("min", M.min_lstar) ])
    configs

(* --- L* specializes to the known optimal estimators --- *)

let seed_grid = List.init 400 (fun i -> (float_of_int i +. 0.5) /. 400.)

let test_specializes_to_known_estimators () =
  List.iter
    (fun (label, taus, v) ->
      let equal_taus =
        Array.for_all (fun t -> Float.equal t taus.(0)) taus
      in
      List.iter
        (fun u ->
          let o = C.of_seed ~taus ~u v in
          (* L*-min is the inverse-probability estimator for any
             thresholds (all-or-nothing information ⇒ L* = HT). *)
          let lm = M.min_lstar o and ht = C.min_ht o in
          if not (Float.equal lm ht) then
            Alcotest.failf "%s: min_lstar %.17g <> min_ht %.17g at u=%g" label
              lm ht u;
          (* With equal thresholds the max trajectory has one jump and
             L*-max is the classic optimal coordinated max estimator. *)
          if equal_taus then begin
            let lx = M.max_lstar o and hx = C.max_ht o in
            if not (Float.equal lx hx) then
              Alcotest.failf "%s: max_lstar %.17g <> max_ht %.17g at u=%g"
                label lx hx u
          end)
        seed_grid)
    configs

(* --- step trajectories and the quadrature engine --- *)

let test_steps_closed_form_vs_quadrature () =
  List.iter
    (fun (label, taus, v) ->
      List.iter
        (fun u ->
          let o = C.of_seed ~taus ~u v in
          List.iter
            (fun (kind, steps_of, lstar_of) ->
              let s = steps_of o in
              let closed = M.lstar_steps s in
              close
                (Printf.sprintf "%s/%s closed form = direct walk" label kind)
                (lstar_of o) closed;
              (* estimability: the trajectory reaches f(v) as x → 0⁺
                 whenever anything was observed at all *)
              if Array.length s.M.xs > 0 then begin
                let lb = M.lb_of_steps s in
                close
                  (Printf.sprintf "%s/%s lb(0+) = total" label kind)
                  (M.total s) (lb.M.at 1e-12);
                (* the generic quadrature engine agrees with the
                   telescoped closed form *)
                close ~tol:1e-9
                  (Printf.sprintf "%s/%s quadrature lstar = closed form" label
                     kind)
                  closed (M.lstar lb ~u)
              end)
            [ ("max", M.max_steps, M.max_lstar);
              ("min", M.min_steps, M.min_lstar);
              ("sum", M.sum_steps, M.sum_lstar) ])
        [ 0.05; 0.3; 0.7; 0.95 ])
    configs

let test_lstar_rejects_bad_seed () =
  let lb = { M.at = (fun _ -> 1.); breakpoints = [] } in
  List.iter
    (fun u ->
      match M.lstar lb ~u with
      | _ -> Alcotest.failf "lstar accepted seed %g" u
      | exception Invalid_argument _ -> ())
    [ 0.; -0.5; 1.5; Float.nan ]

(* --- the guard --- *)

let test_guard () =
  let d0 = Numerics.Robust.degradation_count () in
  close "guard passes clean values" 5.25 (M.guard ~site:"test.monotone" 5.25);
  close "guard passes zero" 0. (M.guard ~site:"test.monotone" 0.);
  Alcotest.(check int) "clean values do not degrade" d0
    (Numerics.Robust.degradation_count ());
  close "guard clamps negatives" 0. (M.guard ~site:"test.monotone" (-3.));
  close "guard clamps nan" 0. (M.guard ~site:"test.monotone" Float.nan);
  close "guard clamps infinity" 0. (M.guard ~site:"test.monotone" infinity);
  Alcotest.(check int) "each pathology is recorded" (d0 + 3)
    (Numerics.Robust.degradation_count ())

(* --- Flat twins: bit-identity and zero allocation --- *)

let bits = Int64.bits_of_float

let test_flat_bit_identity () =
  let rng = Numerics.Prng.create ~seed:1234 () in
  let dst = Float.Array.make 1 0. in
  let check_outcome label taus o =
    let buf = EB.create ~r_max:(Array.length taus) in
    EB.load_pps buf o;
    M.Flat.max_into ~taus buf ~dst ~di:0;
    let flat_max = Float.Array.get dst 0 in
    if bits flat_max <> bits (M.max_lstar o) then
      Alcotest.failf "%s: Flat.max_into %.17g <> max_lstar %.17g" label
        flat_max (M.max_lstar o);
    M.Flat.min_into ~taus buf ~dst ~di:0;
    let flat_min = Float.Array.get dst 0 in
    if bits flat_min <> bits (M.min_lstar o) then
      Alcotest.failf "%s: Flat.min_into %.17g <> min_lstar %.17g" label
        flat_min (M.min_lstar o)
  in
  (* every config at a deterministic seed sweep (hits each branch and
     the coincident-entry-point tie-breaks) ... *)
  List.iter
    (fun (label, taus, v) ->
      List.iter
        (fun u -> check_outcome label taus (C.of_seed ~taus ~u v))
        seed_grid)
    configs;
  (* ... plus random r up to 5 with clustered values forcing ties *)
  for case = 1 to 500 do
    let r = 2 + Numerics.Prng.int rng 4 in
    let taus =
      Array.init r (fun _ -> float_of_int (2 + Numerics.Prng.int rng 10))
    in
    let v =
      Array.init r (fun _ -> float_of_int (Numerics.Prng.int rng 8))
    in
    check_outcome
      (Printf.sprintf "random case %d" case)
      taus
      (C.draw rng ~taus v)
  done

let test_flat_no_alloc () =
  let taus = [| 10.; 8.; 6. |] in
  let o = C.of_seed ~taus ~u:0.3 [| 3.; 5.; 9. |] in
  let buf = EB.create ~r_max:3 in
  EB.load_pps buf o;
  let dst = Float.Array.make 1 0. in
  Allocheck.assert_no_alloc "Monotone.Flat.max_into" (fun () ->
      M.Flat.max_into ~taus buf ~dst ~di:0);
  Allocheck.assert_no_alloc "Monotone.Flat.min_into" (fun () ->
      M.Flat.min_into ~taus buf ~dst ~di:0)

(* --- the similarity layer --- *)

let shared_seeds () = Sampling.Seeds.create ~master:97 Sampling.Seeds.Shared

let sim_instances () =
  let rng = Numerics.Prng.create ~seed:555 () in
  let inst n offset =
    Sampling.Instance.of_assoc
      (List.init n (fun i ->
           ( offset + (i * 3),
             0.25 *. float_of_int (1 + Numerics.Prng.int rng 40) )))
  in
  (* overlapping key ranges: a real union/intersection structure *)
  [ inst 400 0; inst 400 300 ]

let sim_samples () =
  Sum_agg.sample_pps (shared_seeds ()) ~taus:[| 30.; 40. |] (sim_instances ())

let test_similarity_flat_bit_identity () =
  let ps = sim_samples () in
  let reference = Agg_oracle.similarity_sums ps ~select:(fun _ -> true) in
  let flat = Sim.sums ps ~select:(fun _ -> true) in
  if bits reference.Sim.union_hat <> bits flat.Sim.union_hat then
    Alcotest.failf "union: reference %.17g <> flat %.17g" reference.Sim.union_hat
      flat.Sim.union_hat;
  if bits reference.Sim.inter_hat <> bits flat.Sim.inter_hat then
    Alcotest.failf "intersection: reference %.17g <> flat %.17g"
      reference.Sim.inter_hat flat.Sim.inter_hat;
  Alcotest.(check bool) "union estimate positive" true
    (reference.Sim.union_hat > 0.);
  (* the select filter narrows both paths identically *)
  let sel h = h mod 2 = 0 in
  let r2 = Agg_oracle.similarity_sums ps ~select:sel in
  let f2 = Sim.sums ps ~select:sel in
  if bits r2.Sim.union_hat <> bits f2.Sim.union_hat
     || bits r2.Sim.inter_hat <> bits f2.Sim.inter_hat
  then Alcotest.fail "filtered sums differ between reference and flat"

let test_similarity_derived_queries () =
  let ps = sim_samples () in
  let s = Sim.sums ps ~select:(fun _ -> true) in
  close "l1 = union - intersection" (s.Sim.union_hat -. s.Sim.inter_hat)
    (Sim.l1 s);
  close "jaccard = intersection / union"
    (s.Sim.inter_hat /. s.Sim.union_hat)
    (Sim.jaccard s);
  close "jaccard of an empty union is 0" 0.
    (Sim.jaccard { Sim.union_hat = 0.; inter_hat = 0. });
  (* sanity against the data: weighted jaccard of these instances is
     strictly between 0 and 1, and the estimate should land inside with
     these sample sizes *)
  let j = Sim.jaccard s in
  Alcotest.(check bool) "jaccard estimate within (0,1)" true
    (j > 0. && j < 1.)

(* The whole aggregate is unbiased by per-key linearity; pin the
   aggregate against an independently-computed per-key reference sum
   (the list-and-hashtable oracle with the reference estimators, no
   guard). *)
let test_similarity_matches_per_key_sum () =
  let ps = sim_samples () in
  let s = Sim.sums ps ~select:(fun _ -> true) in
  let union_ref =
    Agg_oracle.estimate ps ~est:M.max_lstar ~select:(fun _ -> true)
  in
  let inter_ref =
    Agg_oracle.estimate ps ~est:M.min_lstar ~select:(fun _ -> true)
  in
  close "union sum = per-key L*-max sum" union_ref s.Sim.union_hat;
  close "intersection sum = per-key L*-min sum" inter_ref s.Sim.inter_hat

let () =
  Alcotest.run "monotone"
    [
      ( "oracle",
        [
          Alcotest.test_case "L* unbiased, finite variance, per kind" `Quick
            test_unbiased_per_kind;
          Alcotest.test_case "enumeration matches quadrature moments" `Quick
            test_enumeration_matches_quadrature;
        ] );
      ( "engine",
        [
          Alcotest.test_case "specializes to known optimal estimators" `Quick
            test_specializes_to_known_estimators;
          Alcotest.test_case "steps closed form vs quadrature" `Quick
            test_steps_closed_form_vs_quadrature;
          Alcotest.test_case "rejects seeds outside (0,1]" `Quick
            test_lstar_rejects_bad_seed;
          Alcotest.test_case "nonnegativity guard degrades to 0" `Quick
            test_guard;
        ] );
      ( "flat",
        [
          Alcotest.test_case "bit-identical to references" `Quick
            test_flat_bit_identity;
          Alcotest.test_case "zero minor words per call" `Quick
            test_flat_no_alloc;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "flat sums bit-identical to reference" `Quick
            test_similarity_flat_bit_identity;
          Alcotest.test_case "jaccard / l1 derivations" `Quick
            test_similarity_derived_queries;
          Alcotest.test_case "aggregate equals per-key sum" `Quick
            test_similarity_matches_per_key_sum;
        ] );
    ]
