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

let columns t =
  Array.map (fun (s : P.pps) -> Column.of_entries s.P.entries) t.samples

let ids t = Array.map (fun (s : P.pps) -> s.P.instance_id) t.samples

(* One walk over the union of the sample columns, the per-key estimates
   summed left to right in ascending key order. *)
let estimate t ~est ~select =
  let cols = columns t in
  let w = Column.walk cols in
  let value i =
    let j = Column.hit w i in
    if j < 0 then None else Some (Float.Array.get cols.(i).Column.vals j)
  in
  let acc = ref 0. in
  while Column.more w do
    let h = Column.next w in
    if select h then acc := !acc +. est (outcome t h ~value)
  done;
  !acc

module EB = Estcore.Evalbuf

type max_sums = { max_ht : float; max_l : float option; min_ht : float }

(* The serving walk: one ascending pass over the union of the PPS
   columns, the three per-key estimates through the store-into flat
   evaluators, each summed left to right in its own slot. Per key the
   walk allocates nothing: the seeds are stored into the buffer from
   per-query salts, the values come from the columns. *)
let max_columns seeds ~ids ~taus cols ~select =
  let r = Array.length cols in
  let buf = EB.create ~r_max:(max r 1) in
  let salts = Column.salts seeds ~ids in
  let with_l = r = 2 in
  let out = buf.EB.out in
  let acc = Float.Array.make 3 0. in
  let add slot =
    Float.Array.set acc slot (Float.Array.get acc slot +. Float.Array.get out 0)
  in
  let w = Column.walk cols in
  while Column.more w do
    let h = Column.next w in
    if select h then begin
      Column.load w buf;
      Column.seeds_into salts h buf.EB.phi;
      Estcore.Ht.Flat.max_pps_into ~taus buf ~dst:out ~di:0;
      add 0;
      if with_l then begin
        Estcore.Max_pps.Flat.l_into ~taus buf ~dst:out ~di:0;
        add 1
      end;
      Estcore.Ht.Flat.min_pps_into ~taus buf ~dst:out ~di:0;
      add 2
    end
  done;
  {
    max_ht = Float.Array.get acc 0;
    max_l = (if with_l then Some (Float.Array.get acc 1) else None);
    min_ht = Float.Array.get acc 2;
  }

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
