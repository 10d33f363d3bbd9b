type classes = { f1q : int; fq1 : int; f11 : int; f10 : int; f01 : int }

module ISet = Set.Make (Int)

let classify ?(ids = (0, 1)) seeds ~p1 ~p2 ~s1 ~s2 ~select =
  let id1, id2 = ids in
  let set1 = ISet.of_list s1 and set2 = ISet.of_list s2 in
  let acc = ref { f1q = 0; fq1 = 0; f11 = 0; f10 = 0; f01 = 0 } in
  ISet.iter
    (fun h ->
      if select h then begin
        let in1 = ISet.mem h set1 and in2 = ISet.mem h set2 in
        let u1 = Sampling.Seeds.seed seeds ~instance:id1 ~key:h in
        let u2 = Sampling.Seeds.seed seeds ~instance:id2 ~key:h in
        let c = !acc in
        acc :=
          (if in1 && in2 then { c with f11 = c.f11 + 1 }
           else if in1 then
             if u2 <= p2 then { c with f10 = c.f10 + 1 }
             else { c with f1q = c.f1q + 1 }
           else if u1 <= p1 then { c with f01 = c.f01 + 1 }
           else { c with fq1 = c.fq1 + 1 })
      end)
    (ISet.union set1 set2);
  !acc

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

let coordinated_estimate ~p ~samples ~select =
  let u =
    Array.fold_left
      (fun u s -> ISet.union u (ISet.of_list s))
      ISet.empty samples
  in
  float_of_int (ISet.cardinal (ISet.filter select u)) /. p

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

  (* Per-key outcome through the Section 5 mapping: entry i is
     "obliviously sampled" iff u_i ≤ p_i, with value 1 when the key is in
     sample i and 0 otherwise. *)
  let key_outcome t seeds ~ids ~sets h =
    let r = Array.length t.probs in
    let values =
      Array.init r (fun i ->
          if ISet.mem h sets.(i) then Some 1.
          else if
            Sampling.Seeds.seed seeds ~instance:ids.(i) ~key:h <= t.probs.(i)
          then Some 0.
          else None)
    in
    { Sampling.Outcome.Oblivious.probs = t.probs; values }

  let union_of samples =
    Array.fold_left
      (fun acc s -> ISet.union acc (ISet.of_list s))
      ISet.empty samples

  let estimate ?ids t seeds ~samples ~select =
    if Array.length samples <> Array.length t.probs then
      invalid_arg "Distinct.Multi.estimate: arity mismatch";
    let ids =
      match ids with
      | Some ids -> ids
      | None -> Array.init (Array.length t.probs) Fun.id
    in
    let sets = Array.map ISet.of_list samples in
    ISet.fold
      (fun h acc ->
        if select h then
          acc
          +. Estcore.Max_oblivious.General.estimate t.general
               (key_outcome t seeds ~ids ~sets h)
        else acc)
      (union_of samples) 0.

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
    let r = Array.length probs in
    let ids =
      match ids with Some ids -> ids | None -> Array.init r Fun.id
    in
    let inv = 1. /. Array.fold_left ( *. ) 1. probs in
    let union = union_of samples in
    ISet.fold
      (fun h acc ->
        if
          select h
          && List.init r (fun i ->
                 Sampling.Seeds.seed seeds ~instance:ids.(i) ~key:h
                 <= probs.(i))
             |> List.for_all Fun.id
        then acc +. inv
        else acc)
      union 0.
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
