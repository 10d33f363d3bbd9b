module P = Sampling.Poisson
module O = Sampling.Outcome.Pps

type pps_samples = {
  seeds : Sampling.Seeds.t;
  taus : float array;
  samples : P.pps array;
}

let sample_pps seeds ~taus instances =
  let samples =
    List.mapi
      (fun i inst -> P.pps_sample seeds ~instance:i ~tau:taus.(i) inst)
      instances
  in
  { seeds; taus; samples = Array.of_list samples }

let sample_priority seeds ~k instances =
  let samples =
    List.mapi
      (fun i inst ->
        let bk =
          Sampling.Bottom_k.sample seeds ~family:Sampling.Rank.PPS ~instance:i
            ~k inst
        in
        (* rank < τ_rank  ⇔  u/v < τ_rank  ⇔  v ≥ u·(1/τ_rank):
           the (k+1)-smallest rank is a PPS threshold τ* = 1/τ_rank. An
           infinite rank threshold (≤ k keys) means every key is sampled
           with probability 1; a tiny positive τ* encodes that while
           keeping the PPS algebra well defined. *)
        let tau =
          if bk.Sampling.Bottom_k.threshold = infinity then 1e-300
          else 1. /. bk.Sampling.Bottom_k.threshold
        in
        {
          P.instance_id = i;
          tau;
          entries =
            List.sort
              (fun (k1, (v1 : float)) (k2, v2) ->
                match Int.compare k1 k2 with
                | 0 -> Float.compare v1 v2
                | c -> c)
              (List.map
                 (fun e -> (e.Sampling.Bottom_k.key, e.Sampling.Bottom_k.value))
                 bk.Sampling.Bottom_k.entries);
        })
      instances
  in
  { seeds; taus = Array.of_list (List.map (fun s -> s.P.tau) samples);
    samples = Array.of_list samples }

let of_summaries seeds summaries =
  let samples =
    Array.mapi
      (fun i s ->
        match Sampling.Summary.threshold s with
        | None ->
            invalid_arg
              "Sum_agg.of_summaries: summary exposes no PPS threshold"
        | Some tau ->
            {
              P.instance_id = i;
              tau;
              entries = Sampling.Summary.entries s;
            })
      summaries
  in
  {
    seeds;
    taus = Array.map (fun s -> s.P.tau) samples;
    samples;
  }

(* The outcome of key [h] given each sample's sampled value of [h]. *)
let outcome t h ~value =
  let r = Array.length t.samples in
  let values = Array.init r value in
  let seeds =
    (* Recompute each seed at the sample's *recorded* instance id, not its
       array position: a caller may assemble samples of instances 3 and 7,
       and under Independent seeds position-based recomputation would pair
       the sampled values with the wrong seeds. *)
    Array.init r (fun i ->
        Sampling.Seeds.seed t.seeds ~instance:t.samples.(i).P.instance_id
          ~key:h)
  in
  { O.taus = t.taus; seeds; values }

let key_outcome t h =
  outcome t h ~value:(fun i -> List.assoc_opt h t.samples.(i).P.entries)

module ISet = Set.Make (Int)
module ITbl = Hashtbl.Make (Int)

let sampled_keys t =
  Array.fold_left
    (fun acc (s : P.pps) ->
      List.fold_left (fun acc (h, _) -> ISet.add h acc) acc s.P.entries)
    ISet.empty t.samples
  |> ISet.elements

(* Each sample indexed once per call, keeping the first binding of a
   duplicated key — [key_outcome]'s answer without its per-key list
   walk, which made a sum over n sampled keys cost O(n²). *)
let estimate t ~est ~select =
  let index (s : P.pps) =
    let tbl = ITbl.create (max 16 (List.length s.P.entries)) in
    List.iter
      (fun (h, v) -> if not (ITbl.mem tbl h) then ITbl.add tbl h v)
      s.P.entries;
    tbl
  in
  let idx = Array.map index t.samples in
  List.fold_left
    (fun acc h ->
      if select h then
        acc +. est (outcome t h ~value:(fun i -> ITbl.find_opt idx.(i) h))
      else acc)
    0. (sampled_keys t)

module EB = Estcore.Evalbuf

(* Allocation-free estimate loop (the serving hot path). The samples are
   flattened once into per-instance (ascending key, unboxed value)
   columns; each union key is then assembled into an {!Estcore.Evalbuf}
   by cursor merge instead of [key_outcome]'s three fresh arrays and
   [List.assoc_opt] walks, and the per-key estimate goes through the
   store-into flat evaluators. Per key the only allocations left are the
   boxed floats [Seeds.seed] returns. Bit-identical to {!estimate} with
   the corresponding reference estimator: same ascending union-key
   order, same seed recomputation at recorded instance ids, same
   left-to-right accumulation, and evaluators that mirror the reference
   closed forms operation for operation (enforced by the test suite).
   The entry columns are stable-sorted by key, so a duplicated key
   resolves to its first binding — exactly [List.assoc_opt]'s answer. *)
let estimate_flat t ~est ~select =
  let r = Array.length t.samples in
  let buf = EB.create ~r_max:(max r 1) in
  let sorted =
    Array.map
      (fun (s : P.pps) ->
        List.stable_sort
          (fun ((a : int), _) (b, _) -> Int.compare a b)
          s.P.entries)
      t.samples
  in
  let keys = Array.map (fun l -> Array.of_list (List.map fst l)) sorted in
  let vals = Array.map (fun l -> Float.Array.of_list (List.map snd l)) sorted in
  let cursors = Array.make (max r 1) 0 in
  let acc = Float.Array.make 1 0. in
  List.iter
    (fun h ->
      if select h then begin
        for i = 0 to r - 1 do
          Float.Array.set buf.EB.phi i
            (Sampling.Seeds.seed t.seeds
               ~instance:t.samples.(i).P.instance_id ~key:h);
          let ks = keys.(i) in
          let n = Array.length ks in
          let c = ref cursors.(i) in
          while !c < n && Array.unsafe_get ks !c < h do
            incr c
          done;
          cursors.(i) <- !c;
          if !c < n && Array.unsafe_get ks !c = h then begin
            Float.Array.set buf.EB.vals i (Float.Array.get vals.(i) !c);
            Bytes.set buf.EB.present i '\001'
          end
          else begin
            Float.Array.set buf.EB.vals i 0.;
            Bytes.set buf.EB.present i '\000'
          end
        done;
        (match est with
        | `Max_l ->
            Estcore.Max_pps.Flat.l_into ~taus:t.taus buf ~dst:buf.EB.out ~di:0
        | `Max_ht ->
            Estcore.Ht.Flat.max_pps_into ~taus:t.taus buf ~dst:buf.EB.out
              ~di:0);
        Float.Array.set acc 0
          (Float.Array.get acc 0 +. Float.Array.get buf.EB.out 0)
      end)
    (sampled_keys t);
  Float.Array.get acc 0

let exact_variance ~taus ~instances ~moments ~select =
  List.fold_left
    (fun acc h ->
      if select h then begin
        let v = Sampling.Instance.values_of_key instances h in
        acc +. (moments ~taus ~v).Estcore.Exact.var
      end
      else acc)
    0.
    (Sampling.Instance.union_keys instances)
