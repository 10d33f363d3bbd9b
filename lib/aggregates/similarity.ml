module M = Estcore.Monotone
module EB = Estcore.Evalbuf

type sums = { union_hat : float; inter_hat : float }

let site_union = "similarity.union"
let site_inter = "similarity.intersection"

(* One walk over the union of the PPS columns computing both sums. The
   monotone closed forms read only values/presence/thresholds, so no
   seed is recomputed. *)
let sums_columns ~taus cols ~select =
  let r = Array.length cols in
  let buf = EB.create ~r_max:(max r 1) in
  let acc = Float.Array.make 2 0. in
  let out = buf.EB.out in
  (* [M.guard]'s answer, calling it (which boxes the value) only for a
     value it would replace. *)
  let add slot ~site =
    let v = Float.Array.get out 0 in
    let v = if Float.is_finite v && v >= 0. then v else M.guard ~site v in
    Float.Array.set acc slot (Float.Array.get acc slot +. v)
  in
  let w = Column.walk cols in
  while Column.more w do
    let h = Column.next w in
    if select h then begin
      Column.load w buf;
      M.Flat.max_into ~taus buf ~dst:out ~di:0;
      add 0 ~site:site_union;
      M.Flat.min_into ~taus buf ~dst:out ~di:0;
      add 1 ~site:site_inter
    end
  done;
  { union_hat = Float.Array.get acc 0; inter_hat = Float.Array.get acc 1 }

let sums t ~select =
  sums_columns ~taus:t.Sum_agg.taus (Sum_agg.columns t) ~select

let jaccard s = if s.union_hat > 0. then s.inter_hat /. s.union_hat else 0.
let l1 s = s.union_hat -. s.inter_hat
