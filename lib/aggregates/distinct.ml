type classes = { f1q : int; fq1 : int; f11 : int; f10 : int; f01 : int }

module EB = Estcore.Evalbuf

(* The serving walk of a pair of binary samples: per union key the two
   seeds are stored into [u] from per-query salts, the key is counted
   in its class and, given a table, its OR^(L) cell is added. *)
let classify_columns ?table seeds ~ids:(id1, id2) ~p1 ~p2 c1 c2 ~select =
  let salts = Column.salts seeds ~ids:[| id1; id2 |] in
  let u = Float.Array.make 2 0. in
  let acc = Float.Array.make 1 0. in
  let f1q = ref 0 and fq1 = ref 0 and f11 = ref 0 and f10 = ref 0 in
  let f01 = ref 0 in
  let w = Column.walk [| c1; c2 |] in
  while Column.more w do
    let h = Column.next w in
    if select h then begin
      let in1 = Column.hit w 0 >= 0 and in2 = Column.hit w 1 >= 0 in
      Column.seeds_into salts h u;
      let below1 = Float.Array.get u 0 <= p1 in
      let below2 = Float.Array.get u 1 <= p2 in
      if in1 && in2 then incr f11
      else if in1 then if below2 then incr f10 else incr f1q
      else if below1 then incr f01
      else incr fq1;
      match table with
      | Some t ->
          Estcore.Or_weighted.Table.add_into t
            ~code:
              (Estcore.Or_weighted.Table.code ~b0:below1 ~b1:below2 ~s0:in1
                 ~s1:in2)
            acc
      | None -> ()
    end
  done;
  ( { f1q = !f1q; fq1 = !fq1; f11 = !f11; f10 = !f10; f01 = !f01 },
    Float.Array.get acc 0 )

let classify ?(ids = (0, 1)) seeds ~p1 ~p2 ~s1 ~s2 ~select =
  fst
    (classify_columns seeds ~ids ~p1 ~p2 (Column.of_keys s1)
       (Column.of_keys s2) ~select)

let sample_binary seeds ~p ~instance inst =
  Sampling.Instance.fold
    (fun h _ acc ->
      if Sampling.Seeds.seed seeds ~instance ~key:h <= p then h :: acc else acc)
    inst []
  |> List.rev

let sample_binary_bottom_k seeds ~k ~instance inst =
  let seeded =
    Sampling.Instance.fold
      (fun h _ acc -> (Sampling.Seeds.seed seeds ~instance ~key:h, h) :: acc)
      inst []
    |> List.sort (fun ((u1 : float), k1) (u2, k2) ->
           match Float.compare u1 u2 with 0 -> Int.compare k1 k2 | c -> c)
  in
  let rec take n = function
    | [] -> ([], 1.)
    | (u, h) :: rest ->
        if n = 0 then ([], u)
        else
          let kept, p = take (n - 1) rest in
          (h :: kept, p)
  in
  let keys, p = take k seeded in
  (List.sort Int.compare keys, p)

let ht_estimate c ~p1 ~p2 =
  float_of_int (c.f11 + c.f10 + c.f01) /. (p1 *. p2)

let l_estimate c ~p1 ~p2 =
  let q = p1 +. p2 -. (p1 *. p2) in
  (float_of_int (c.f1q + c.fq1 + c.f11) /. q)
  +. (float_of_int c.f10 /. (p1 *. q))
  +. (float_of_int c.f01 /. (p2 *. q))

let u_estimate c ~p1 ~p2 =
  let cc = 1. +. Float.max 0. (1. -. p1 -. p2) in
  (* Per-key OR^(U) values by class (through the Section 5 mapping):
     F1? : sampled=(1,0), below=(1,0) → oblivious S={1}, v=1   → 1/(p1·cc)
     F?1 : symmetric                                            → 1/(p2·cc)
     F11 : S={1,2}, v=(1,1) → (1 − (2−p1−p2)/cc)/(p1p2)
     F10 : S={1,2}, v=(1,0) → (1 − (1−p2)/cc)/(p1p2)
     F01 : S={1,2}, v=(0,1) → (1 − (1−p1)/cc)/(p1p2) *)
  (float_of_int c.f1q /. (p1 *. cc))
  +. (float_of_int c.fq1 /. (p2 *. cc))
  +. (float_of_int c.f11 *. ((1. -. ((2. -. p1 -. p2) /. cc)) /. (p1 *. p2)))
  +. (float_of_int c.f10 *. ((1. -. ((1. -. p2) /. cc)) /. (p1 *. p2)))
  +. (float_of_int c.f01 *. ((1. -. ((1. -. p1) /. cc)) /. (p1 *. p2)))

let var_ht ~d ~p1 ~p2 = d *. ((1. /. (p1 *. p2)) -. 1.)

let var_l ~d ~jaccard ~p1 ~p2 =
  let v11 = Estcore.Or_oblivious.var_l_11 ~p1 ~p2 in
  let v10 = Estcore.Or_oblivious.var_l_10 ~p1 ~p2 in
  d *. ((jaccard *. v11) +. ((1. -. jaccard) *. v10))

let coordinated_columns ~p cols ~select =
  let n = ref 0 in
  let w = Column.walk cols in
  while Column.more w do
    if select (Column.next w) then incr n
  done;
  float_of_int !n /. p

let coordinated_estimate ~p ~samples ~select =
  coordinated_columns ~p (Array.map Column.of_keys samples) ~select

let var_coordinated ~d ~p = d *. ((1. /. p) -. 1.)

let var_u ~d ~jaccard ~p1 ~p2 =
  let v11 = Estcore.Or_oblivious.var_u_11 ~p1 ~p2 in
  let v10 = Estcore.Or_oblivious.var_u_10 ~p1 ~p2 in
  d *. ((jaccard *. v11) +. ((1. -. jaccard) *. v10))

let cv_of_variance ~d ~var = sqrt var /. d

module Multi = struct
  type t = { probs : float array; general : Estcore.Max_oblivious.General.t }

  let create ~probs =
    { probs; general = Estcore.Max_oblivious.General.create ~probs }

  (* One walk for both sums. Per key, through the Section 5 mapping,
     entry i is "obliviously sampled" iff u_i ≤ p_i, with value 1 when
     the key is in sample i and 0 otherwise: the OR^(L) term (given the
     solver) reads that outcome, the HT term counts 1/Π p_i when every
     seed is below its p. *)
  let walk ?general ~probs seeds ~ids cols ~select =
    let r = Array.length probs in
    let ids = match ids with Some ids -> ids | None -> Array.init r Fun.id in
    let buf = EB.create ~r_max:(max r 1) in
    let salts = Column.salts seeds ~ids in
    let u = Float.Array.make r 0. in
    let inv = 1. /. Array.fold_left ( *. ) 1. probs in
    let acc = Float.Array.make 2 0. in
    let out = buf.EB.out in
    let w = Column.walk cols in
    while Column.more w do
      let h = Column.next w in
      if select h then begin
        Column.seeds_into salts h u;
        let all_below = ref true in
        for i = 0 to r - 1 do
          let below = Float.Array.get u i <= probs.(i) in
          if not below then all_below := false;
          let sampled = Column.hit w i >= 0 in
          Float.Array.set buf.EB.vals i (if sampled then 1. else 0.);
          Bytes.set buf.EB.present i
            (if sampled || below then '\001' else '\000')
        done;
        (match general with
        | Some g ->
            Estcore.Max_oblivious.Flat.general_into g buf ~dst:out ~di:0;
            Float.Array.set acc 0
              (Float.Array.get acc 0 +. Float.Array.get out 0)
        | None -> ());
        if !all_below then Float.Array.set acc 1 (Float.Array.get acc 1 +. inv)
      end
    done;
    (Float.Array.get acc 0, Float.Array.get acc 1)

  let estimates t seeds ~ids cols ~select =
    walk ~general:t.general ~probs:t.probs seeds ~ids:(Some ids) cols ~select

  let estimate ?ids t seeds ~samples ~select =
    if Array.length samples <> Array.length t.probs then
      invalid_arg "Distinct.Multi.estimate: arity mismatch";
    fst
      (walk ~general:t.general ~probs:t.probs seeds ~ids
         (Array.map Column.of_keys samples) ~select)

  let exact_variance t ~memberships =
    let r = Array.length t.probs in
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun row ->
        if Array.length row <> r then
          invalid_arg "Distinct.Multi.exact_variance: row arity";
        if Array.exists Fun.id row then
          let pat = Array.to_list row in
          Hashtbl.replace tbl pat
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl pat)))
      memberships;
    let est o =
      Estcore.Max_oblivious.General.estimate t.general
        (Sampling.Outcome.Binary.to_oblivious o)
    in
    Hashtbl.fold
      (fun pat count acc ->
        let v = Array.of_list (List.map (fun b -> if b then 1 else 0) pat) in
        acc
        +. (float_of_int count
           *. (Estcore.Exact.binary ~probs:t.probs ~v est).Estcore.Exact.var))
      tbl 0.

  let ht_estimate ?ids ~probs seeds ~samples ~select =
    snd (walk ~probs seeds ~ids (Array.map Column.of_keys samples) ~select)
end

module Required = struct
  let union_size ~n ~jaccard = 2. *. n /. (1. +. jaccard)

  let p_ht ~n ~jaccard ~cv =
    let nu = union_size ~n ~jaccard in
    Float.min 1. (1. /. sqrt (1. +. (cv *. cv *. nu)))

  let p_l ~n ~jaccard ~cv =
    let nu = union_size ~n ~jaccard in
    (* cv²(p) = (J·v11 + (1−J)·v10)/N is decreasing in p; solve for the
       target. *)
    let f p =
      let var = var_l ~d:nu ~jaccard ~p1:p ~p2:p in
      (sqrt var /. nu) -. cv
    in
    if f 1. >= 0. then 1.
    else begin
      (* Bracket from below. *)
      let lo = ref 1e-12 in
      while f !lo < 0. && !lo > 1e-300 do
        lo := !lo /. 10.
      done;
      Numerics.Special.solve_bisect f !lo 1.
    end

  let sample_size ~p ~n = p *. n
end
