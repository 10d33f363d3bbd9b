(* The list-and-hashtable sum aggregates the column walks replaced, kept
   as test oracles: [sampled_keys] collects the union of the sampled keys
   into a set, [estimate] indexes each sample once in a hashtable and
   sums the per-key estimates over that set, and [similarity_sums] is
   [estimate] with the guarded L* evaluators. They share no enumeration
   code with {!Aggregates.Column.walk}, which the bit-identity suites
   hold to them.

   [column_entries] / [column_keys] / [pps_of_column] are the list views
   of a resident column that the oracles (and the batch samplers) take. *)

module P = Sampling.Poisson
module O = Sampling.Outcome.Pps
module M = Estcore.Monotone
module Column = Aggregates.Column
module Sum_agg = Aggregates.Sum_agg
module ISet = Set.Make (Int)
module ITbl = Hashtbl.Make (Int)

let sampled_keys (t : Sum_agg.pps_samples) =
  Array.fold_left
    (fun acc (s : P.pps) ->
      List.fold_left (fun acc (h, _) -> ISet.add h acc) acc s.P.entries)
    ISet.empty t.samples
  |> ISet.elements

(* Each sample indexed once per call, keeping the first binding of a
   duplicated key ([List.assoc_opt]'s answer); seeds recomputed at each
   sample's recorded instance id. *)
let estimate (t : Sum_agg.pps_samples) ~est ~select =
  let index (s : P.pps) =
    let tbl = ITbl.create (max 16 (List.length s.P.entries)) in
    List.iter
      (fun (h, v) -> if not (ITbl.mem tbl h) then ITbl.add tbl h v)
      s.P.entries;
    tbl
  in
  let idx = Array.map index t.samples in
  let r = Array.length t.samples in
  let outcome h =
    let values = Array.init r (fun i -> ITbl.find_opt idx.(i) h) in
    let seeds =
      Array.init r (fun i ->
          Sampling.Seeds.seed t.seeds ~instance:t.samples.(i).P.instance_id
            ~key:h)
    in
    { O.taus = t.taus; seeds; values }
  in
  List.fold_left
    (fun acc h -> if select h then acc +. est (outcome h) else acc)
    0. (sampled_keys t)

let similarity_sums t ~select =
  let union_hat =
    estimate t
      ~est:(fun o -> M.guard ~site:"similarity.union" (M.max_lstar o))
      ~select
  in
  let inter_hat =
    estimate t
      ~est:(fun o -> M.guard ~site:"similarity.intersection" (M.min_lstar o))
      ~select
  in
  { Aggregates.Similarity.union_hat; inter_hat }

let column_entries (c : Column.t) =
  List.init c.len (fun i -> (c.keys.(i), Float.Array.get c.vals i))

let column_keys (c : Column.t) = List.init c.len (fun i -> c.keys.(i))

let pps_of_column ~instance_id ~tau c =
  { P.instance_id; tau; entries = column_entries c }
