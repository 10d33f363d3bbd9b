(* The generator's own tally of what it sent, and the checks of the
   servers' answers against it. Nothing here calls into the program: the
   exact aggregates are recomputed from the sent records, and the
   STATS counters are modelled from the documented restore rules. *)

type inst = {
  name : string;
  tau : float;
  p : float;
  weights : (int, float) Hashtbl.t;  (** accumulated weight per key *)
  part_vol : float array;  (** live volume per cluster partition *)
  part_rec : int array;
  mutable r_vol : float;
      (** single node: volume a restart from the latest checkpoint rebuilds *)
  mutable r_rec : int;
  mutable version : int;  (** stamp of the latest record, unique per run *)
}

let create ?(parts = 1) ~tau ~p name =
  {
    name;
    tau;
    p;
    weights = Hashtbl.create 4096;
    part_vol = Array.make parts 0.;
    part_rec = Array.make parts 0;
    r_vol = 0.;
    r_rec = 0;
    version = 0;
  }

let copy i =
  {
    i with
    weights = Hashtbl.copy i.weights;
    part_vol = Array.copy i.part_vol;
    part_rec = Array.copy i.part_rec;
  }

let stamp = ref 0

(* Same float operations, in the same order, as the store's apply. *)
let add ?(part = 0) i key w =
  incr stamp;
  i.version <- !stamp;
  let old = Option.value ~default:0. (Hashtbl.find_opt i.weights key) in
  Hashtbl.replace i.weights key (old +. w);
  i.part_vol.(part) <- i.part_vol.(part) +. w;
  i.part_rec.(part) <- i.part_rec.(part) + 1;
  i.r_vol <- i.r_vol +. w;
  i.r_rec <- i.r_rec + 1

(* A checkpoint stores accumulated weights; restoring it replays one
   record per key in ascending key order. *)
let checkpoint i =
  let keys = List.sort Int.compare (List.of_seq (Hashtbl.to_seq_keys i.weights)) in
  i.r_rec <- List.length keys;
  i.r_vol <- List.fold_left (fun acc key -> acc +. Hashtbl.find i.weights key) 0. keys

(* After a restart the live counters are the restored ones. *)
let restart i =
  i.part_vol.(0) <- i.r_vol;
  i.part_rec.(0) <- i.r_rec

(* Merged partitions: records sum, volume folds left over partitions. *)
let live_counters i =
  ( Array.fold_left ( + ) 0 i.part_rec,
    Array.fold_left ( +. ) i.part_vol.(0) (Array.sub i.part_vol 1 (Array.length i.part_vol - 1)),
    Hashtbl.length i.weights )

(* --- STATS --- *)

let objects_of_array s =
  (* "[{...},{...}]" -> ["{...}"; "{...}"]: instance objects are flat *)
  let parts = ref [] and depth = ref 0 and start = ref 0 in
  String.iteri
    (fun j c ->
      if c = '{' then begin
        if !depth = 0 then start := j;
        incr depth
      end
      else if c = '}' then begin
        decr depth;
        if !depth = 0 then parts := String.sub s !start (j - !start + 1) :: !parts
      end)
    s;
  List.rev !parts

let stats_instances line =
  let key = "\"instances\":[" in
  let kl = String.length key in
  let rec find j =
    if j + kl > String.length line then None
    else if String.sub line j kl = key then Some (j + kl - 1)
    else find (j + 1)
  in
  match find 0 with
  | None -> []
  | Some j ->
      let close = String.index_from line j ']' in
      objects_of_array (String.sub line j (close - j + 1))

let check_stats insts line =
  let objs = stats_instances line in
  let field o k = Server.Protocol.json_field k o in
  if List.length objs <> List.length insts then
    Error (Printf.sprintf "STATS lists %d instances, sent to %d" (List.length objs) (List.length insts))
  else
    let rec go = function
      | [] -> Ok ()
      | (i, o) :: rest -> (
          let records, volume, card = live_counters i in
          let got_r = Option.bind (field o "records") int_of_string_opt
          and got_v = Option.bind (field o "volume") float_of_string_opt
          and got_c = Option.bind (field o "cardinality") int_of_string_opt in
          match (field o "name", got_r, got_v, got_c) with
          | Some n, Some r, Some v, Some c
            when n = i.name && r = records && Float.equal v volume && c = card ->
              go rest
          | _ ->
              Error
                (Printf.sprintf "%s: STATS %s, tally records=%d volume=%h cardinality=%d"
                   i.name o records volume card))
    in
    go (List.combine insts objs)

(* --- exact aggregates and tolerances --- *)

type exact = {
  smax : float;
  smin : float;
  sl1 : float;
  distinct : float;
  var_max : float;  (** HT variance bound, independent seeds *)
  var_union : float;  (** HT variance of Σmax, shared seeds *)
  var_inter : float;  (** HT variance of Σmin, shared seeds *)
  var_distinct : float;
}

(* Variance of a Horvitz-Thompson term f with inclusion probability pi. *)
let ht_var f pi = if pi >= 1. then 0. else f *. f *. ((1. /. pi) -. 1.)

let exact_uncached a b =
  let tau = a.tau and p = a.p in
  let smax = ref 0. and smin = ref 0. and sl1 = ref 0. and distinct = ref 0. in
  let var_max = ref 0. and var_union = ref 0. and var_inter = ref 0. in
  let key va vb =
    let hi = Float.max va vb and lo = Float.min va vb in
    let m = Float.min 1. (hi /. tau) in
    smax := !smax +. hi;
    smin := !smin +. lo;
    sl1 := !sl1 +. (hi -. lo);
    distinct := !distinct +. 1.;
    var_max := !var_max +. ht_var hi (m *. m);
    var_union := !var_union +. ht_var hi m;
    if lo > 0. then var_inter := !var_inter +. ht_var lo (Float.min 1. (lo /. tau))
  in
  Hashtbl.iter
    (fun k va -> key va (Option.value ~default:0. (Hashtbl.find_opt b.weights k)))
    a.weights;
  Hashtbl.iter (fun k vb -> if not (Hashtbl.mem a.weights k) then key 0. vb) b.weights;
  {
    smax = !smax;
    smin = !smin;
    sl1 = !sl1;
    distinct = !distinct;
    var_max = !var_max;
    var_union = !var_union;
    var_inter = !var_inter;
    var_distinct = !distinct *. ((1. /. p) -. 1.);
  }

(* Recomputed only when a record reached either instance. *)
let cache : (string * string, int * int * exact) Hashtbl.t = Hashtbl.create 8

let exact a b =
  match Hashtbl.find_opt cache (a.name, b.name) with
  | Some (va, vb, e) when va = a.version && vb = b.version -> e
  | _ ->
      let e = exact_uncached a b in
      Hashtbl.replace cache (a.name, b.name) (a.version, b.version, e);
      e

let z = 6.

let within ~what ~truth ~sd est =
  let tol = (z *. sd) +. (1e-9 *. Float.abs truth) +. 1e-6 in
  if Float.abs (est -. truth) <= tol then Ok ()
  else
    Error
      (Printf.sprintf "%s estimate %.6g vs exact %.6g (tolerance %.3g, %.1f sd)"
         what est truth tol ((est -. truth) /. Float.max sd 1e-12))

(* Check a query answer against the exact aggregate it estimates. *)
let check_query kind e line =
  match Server.Protocol.json_float_field "estimate" line with
  | None -> Error ("no estimate in " ^ line)
  | Some est -> (
      let sd_u = sqrt e.var_union and sd_i = sqrt e.var_inter in
      match (kind : Server.Protocol.query_kind) with
      | Max | Dominance -> within ~what:"sum-max" ~truth:e.smax ~sd:(sqrt e.var_max) est
      | Or | Distinct ->
          within ~what:"distinct" ~truth:e.distinct ~sd:(sqrt e.var_distinct) est
      | Union -> within ~what:"union" ~truth:e.smax ~sd:sd_u est
      | Intersection -> within ~what:"intersection" ~truth:e.smin ~sd:sd_i est
      | L1 -> within ~what:"l1" ~truth:e.sl1 ~sd:(sd_u +. sd_i) est
      | Jaccard ->
          (* Both sums inside their bands bound the ratio. *)
          let u_lo = e.smax -. (z *. sd_u) and u_hi = e.smax +. (z *. sd_u) in
          let i_lo = Float.max 0. (e.smin -. (z *. sd_i)) and i_hi = e.smin +. (z *. sd_i) in
          let lo = i_lo /. u_hi and hi = if u_lo > 0. then i_hi /. u_lo else infinity in
          if est >= lo -. 1e-12 && est <= hi +. 1e-12 then Ok ()
          else
            Error
              (Printf.sprintf "jaccard estimate %.6g outside [%.6g, %.6g] (exact %.6g)" est lo
                 hi (e.smin /. e.smax)))
