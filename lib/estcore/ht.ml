module O = Sampling.Outcome.Oblivious
module P = Sampling.Outcome.Pps

let single ~p ~sampled ~value = if sampled then value /. p else 0.
let single_variance ~p ~value = value *. value *. ((1. /. p) -. 1.)

let all_sampled values = Array.for_all (fun x -> x <> None) values

(* Only called after an [all_sampled] check; a [None] here means the
   outcome record itself is inconsistent. *)
let sampled_value_exn i = function
  | Some x -> x
  | None ->
      failwith
        (Printf.sprintf "Ht: unsampled slot %d after an all-sampled check" i)

let multi_oblivious ~f (o : O.t) =
  if all_sampled o.values then begin
    let v = Array.mapi sampled_value_exn o.values in
    let pall = Array.fold_left ( *. ) 1. o.probs in
    f v /. pall
  end
  else 0.

let multi_oblivious_variance ~probs ~fv =
  let pall = Array.fold_left ( *. ) 1. probs in
  fv *. fv *. ((1. /. pall) -. 1.)

let vmax v = Array.fold_left Float.max neg_infinity v
let vmin v = Array.fold_left Float.min infinity v

let max_oblivious o = multi_oblivious ~f:vmax o
let min_oblivious o = multi_oblivious ~f:vmin o
let range_oblivious o = multi_oblivious ~f:(fun v -> vmax v -. vmin v) o

let quantile_oblivious ~l o =
  multi_oblivious
    ~f:(fun v ->
      let s = Array.copy v in
      Array.sort (fun a b -> Float.compare b a) s;
      if l < 1 || l > Array.length s then invalid_arg "Ht.quantile_oblivious";
      s.(l - 1))
    o

let max_pps (o : P.t) =
  let r = P.r o in
  let max_sampled = ref 0. in
  let max_unsampled_bound = ref 0. in
  for i = 0 to r - 1 do
    match o.values.(i) with
    | Some v -> max_sampled := Float.max !max_sampled v
    | None ->
        max_unsampled_bound := Float.max !max_unsampled_bound (o.seeds.(i) *. o.taus.(i))
  done;
  if !max_sampled > 0. && !max_unsampled_bound <= !max_sampled then begin
    let p = ref 1. in
    for i = 0 to r - 1 do
      p := !p *. Float.min 1. (!max_sampled /. o.taus.(i))
    done;
    !max_sampled /. !p
  end
  else 0.

let max_pps_variance ~taus ~v =
  let m = vmax v in
  if m <= 0. then 0.
  else begin
    let p = Array.fold_left (fun acc tau -> acc *. Float.min 1. (m /. tau)) 1. taus in
    m *. m *. ((1. /. p) -. 1.)
  end

(* Allocation-free variants reading from an [Evalbuf] (values in [vals],
   presence in [present], seeds in [phi]) and storing into a caller
   slot. Operation-for-operation mirrors of the reference evaluators
   above — bit-identity and the zero-allocation bound are enforced by
   the test suite. *)
module Flat = struct
  let max_pps_into ~(taus : float array) (buf : Evalbuf.t) ~(dst : floatarray)
      ~di =
    let r = Array.length taus in
    if r > Float.Array.length buf.Evalbuf.phi then
      invalid_arg "Ht.Flat.max_pps_into: r exceeds buffer capacity";
    let max_sampled = ref 0. in
    let max_unsampled_bound = ref 0. in
    for i = 0 to r - 1 do
      if Bytes.unsafe_get buf.Evalbuf.present i <> '\000' then
        max_sampled :=
          Float.max !max_sampled (Float.Array.unsafe_get buf.Evalbuf.vals i)
      else
        max_unsampled_bound :=
          Float.max !max_unsampled_bound
            (Float.Array.unsafe_get buf.Evalbuf.phi i *. Array.unsafe_get taus i)
    done;
    if !max_sampled > 0. && !max_unsampled_bound <= !max_sampled then begin
      let p = ref 1. in
      for i = 0 to r - 1 do
        p := !p *. Float.min 1. (!max_sampled /. Array.unsafe_get taus i)
      done;
      Float.Array.unsafe_set dst di (!max_sampled /. !p)
    end
    else Float.Array.unsafe_set dst di 0.

  let max_oblivious_into ~(probs : float array) (buf : Evalbuf.t)
      ~(dst : floatarray) ~di =
    let r = Array.length probs in
    if r > Float.Array.length buf.Evalbuf.vals then
      invalid_arg "Ht.Flat.max_oblivious_into: r exceeds buffer capacity";
    let all = ref true in
    for i = 0 to r - 1 do
      if Bytes.unsafe_get buf.Evalbuf.present i = '\000' then all := false
    done;
    if !all then begin
      let vmax = ref neg_infinity in
      for i = 0 to r - 1 do
        vmax := Float.max !vmax (Float.Array.unsafe_get buf.Evalbuf.vals i)
      done;
      let pall = ref 1. in
      for i = 0 to r - 1 do
        pall := !pall *. Array.unsafe_get probs i
      done;
      Float.Array.unsafe_set dst di (!vmax /. !pall)
    end
    else Float.Array.unsafe_set dst di 0.

  let min_pps_into ~(taus : float array) (buf : Evalbuf.t) ~(dst : floatarray)
      ~di =
    let r = Array.length taus in
    if r > Float.Array.length buf.Evalbuf.vals then
      invalid_arg "Ht.Flat.min_pps_into: r exceeds buffer capacity";
    let all = ref true in
    for i = 0 to r - 1 do
      if Bytes.unsafe_get buf.Evalbuf.present i = '\000' then all := false
    done;
    if !all then begin
      let p = ref 1. in
      for i = 0 to r - 1 do
        let v = Float.Array.unsafe_get buf.Evalbuf.vals i in
        p := !p *. Float.min 1. (v /. Array.unsafe_get taus i)
      done;
      let vmin = ref infinity in
      for i = 0 to r - 1 do
        vmin := Float.min !vmin (Float.Array.unsafe_get buf.Evalbuf.vals i)
      done;
      Float.Array.unsafe_set dst di (!vmin /. !p)
    end
    else Float.Array.unsafe_set dst di 0.
end

let min_pps (o : P.t) =
  if Array.for_all (fun x -> x <> None) o.values then begin
    let v = Array.mapi sampled_value_exn o.values in
    let p = ref 1. in
    Array.iteri (fun i vi -> p := !p *. Float.min 1. (vi /. o.taus.(i))) v;
    vmin v /. !p
  end
  else 0.
