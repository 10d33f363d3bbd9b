module Seeds = Sampling.Seeds

type config = {
  shards : int;
  master : int;
  mode : Seeds.mode;
  default_tau : float;
  default_k : int;
  default_p : float;
  flush_every : int;
  max_inflight : int;
}

let default_config =
  {
    shards = 1;
    master = 42;
    mode = Seeds.Independent;
    default_tau = 100.;
    default_k = 64;
    default_p = 0.05;
    flush_every = 8192;
    max_inflight = 65536;
  }

let mode_name = function
  | Seeds.Shared -> "shared"
  | Seeds.Independent -> "independent"

let mode_of_name = function
  | "shared" -> Some Seeds.Shared
  | "independent" -> Some Seeds.Independent
  | _ -> None

type instance_config = { tau : float; k : int; p : float }

(* Bottom-k working set: the k+1 smallest current (rank, key) pairs,
   ordered like Bottom_k.sample sorts (rank, then key). *)
module Rank_order = struct
  type t = float * int

  let compare (r1, k1) (r2, k2) =
    match Float.compare r1 r2 with 0 -> Int.compare k1 k2 | c -> c
end

module RankSet = Set.Make (Rank_order)

(* A key's accumulated weight and its stamp: the instance's [records]
   count when the key last changed. All-float, so the record is stored
   flat: one word per key more than a boxed weight. *)
type cell = { mutable w : float; mutable stamp : float }

type instance = {
  id : int;
  i_name : string;
  icfg : instance_config;
  weights : (int, cell) Hashtbl.t;
  mutable i_records : int;
  mutable i_volume : float;
  pps_tbl : (int, float) Hashtbl.t;
  binary_tbl : (int, unit) Hashtbl.t;
  mutable bk_set : RankSet.t;
  bk_rank : (int, float) Hashtbl.t;  (* key -> rank, for keys in bk_set *)
}

type record = { r_inst : instance; r_key : int; r_weight : float }

type shard = {
  mailbox : record list Atomic.t;  (* newest first; reversed on drain *)
  depth : int Atomic.t;
  mutable applied : int;  (* mutated only by the draining task *)
}

type t = {
  cfg : config;
  t_epoch : int;
  t_seeds : Seeds.t;
  t_pool : Numerics.Pool.t Lazy.t;
  t_shards : shard array;
  by_name : (string, instance) Hashtbl.t;
  mutable rev_instances : instance list;
  mutable n_instances : int;
  mutable pending_since_flush : int;  (* producer-side; see ingest *)
}

(* Epochs: a random base drawn once per process plus a process-wide
   counter, so two stores of one process never share an epoch and a
   restarted process draws a new base. *)
let epoch_base =
  Int64.to_int (Random.State.bits64 (Random.State.make_self_init ()))

let epoch_count = Atomic.make 0

let create ?pool cfg =
  if cfg.shards < 1 then
    invalid_arg (Printf.sprintf "Store.create: shards = %d must be >= 1" cfg.shards);
  let t_pool =
    match pool with
    | Some p -> Lazy.from_val p
    | None -> lazy (Numerics.Pool.create ~domains:cfg.shards ())
  in
  {
    cfg;
    t_epoch = (epoch_base + Atomic.fetch_and_add epoch_count 1) land max_int;
    t_seeds = Seeds.create ~master:cfg.master cfg.mode;
    t_pool;
    t_shards =
      Array.init cfg.shards (fun _ ->
          { mailbox = Atomic.make []; depth = Atomic.make 0; applied = 0 });
    by_name = Hashtbl.create 16;
    rev_instances = [];
    n_instances = 0;
    pending_since_flush = 0;
  }

let config t = t.cfg
let epoch t = t.t_epoch
let seeds t = t.t_seeds
let pool t = Lazy.force t.t_pool

(* The one check on instance parameters, shared by every way an
   instance comes into being (CREATE, WAL replay, snapshot restore,
   merge payloads): k + 1 must not overflow (the bottom-k working set
   holds k + 1 pairs), and tau/p must make the inclusion predicates
   meaningful. *)
let validate_config { tau; k; p } =
  if not (Float.is_finite tau && tau > 0.) then
    Error (Printf.sprintf "tau %g must be finite and > 0" tau)
  else if k < 1 || k = max_int then
    Error (Printf.sprintf "k %d out of [1, %d)" k max_int)
  else if not (p > 0. && p <= 1.) then
    Error (Printf.sprintf "p %g out of (0,1]" p)
  else Ok ()

let check_create t ~name icfg =
  if not (Protocol.valid_name name) then
    Error (Printf.sprintf "invalid instance name %S" name)
  else if Hashtbl.mem t.by_name name then
    Error (Printf.sprintf "instance %S already exists" name)
  else validate_config icfg

let find t name = Hashtbl.find_opt t.by_name name
let instances t = List.rev t.rev_instances

(* --- record application (runs on the owning shard's drain task) --- *)

(* Maintain the k+1 smallest (rank, key): ranks are monotone decreasing
   in the accumulated weight, so the running (k+1)-max never grows and a
   key evicted (or rejected) with no further records is correctly out —
   there are already k+1 keys whose pairs are smaller and only shrink. *)
let bk_update inst ~u key v =
  (* [Seeds.rank] of the key's seed [u], which the caller already holds. *)
  let rank = Sampling.Rank.rank Sampling.Rank.PPS ~w:v ~u in
  let cap = inst.icfg.k + 1 in
  match Hashtbl.find_opt inst.bk_rank key with
  | Some old_rank ->
      inst.bk_set <- RankSet.add (rank, key) (RankSet.remove (old_rank, key) inst.bk_set);
      Hashtbl.replace inst.bk_rank key rank
  | None ->
      (* [bk_rank] holds exactly the keys of [bk_set]: an O(1) size. *)
      if Hashtbl.length inst.bk_rank < cap then begin
        inst.bk_set <- RankSet.add (rank, key) inst.bk_set;
        Hashtbl.replace inst.bk_rank key rank
      end
      else
        let ((_, max_key) as max_elt) = RankSet.max_elt inst.bk_set in
        if Rank_order.compare (rank, key) max_elt < 0 then begin
          inst.bk_set <- RankSet.add (rank, key) (RankSet.remove max_elt inst.bk_set);
          Hashtbl.remove inst.bk_rank max_key;
          Hashtbl.replace inst.bk_rank key rank
        end

(* The sample half of [apply]: key [key] has just reached accumulated
   weight [v] ([first] on its first record). Every sample is a function
   of (v, seed) alone, so feeding each key's final weight through here
   once rebuilds them exactly — which is how [install_summary] restores
   an instance from its weights. *)
let sample_key seeds inst ~first key v =
  let u = Seeds.seed seeds ~instance:inst.id ~key in
  (* Same inclusion predicate as Poisson.pps_sample; monotone in v, so
     once in, a key only has its recorded value refreshed. *)
  if v >= u *. inst.icfg.tau then Hashtbl.replace inst.pps_tbl key v;
  (* Binary support sample: decided once, on the key's first record. *)
  if first && u <= inst.icfg.p then Hashtbl.replace inst.binary_tbl key ();
  bk_update inst ~u key v

(* Key [key] now has weight [v], stamped [stamp]. *)
let set_weight seeds inst ~stamp key v =
  match Hashtbl.find inst.weights key with
  | c ->
      c.w <- v;
      c.stamp <- stamp;
      sample_key seeds inst ~first:false key v
  | exception Not_found ->
      Hashtbl.add inst.weights key { w = v; stamp };
      sample_key seeds inst ~first:true key v

let apply seeds inst key w =
  inst.i_records <- inst.i_records + 1;
  inst.i_volume <- inst.i_volume +. w;
  let stamp = Float.of_int inst.i_records in
  match Hashtbl.find inst.weights key with
  | c ->
      let v = c.w +. w in
      c.w <- v;
      c.stamp <- stamp;
      sample_key seeds inst ~first:false key v
  | exception Not_found ->
      Hashtbl.add inst.weights key { w; stamp };
      sample_key seeds inst ~first:true key w

(* --- sharded ingest --- *)

let shard_of t inst = t.t_shards.(inst.id mod t.cfg.shards)

let push shard r =
  let rec go () =
    let old = Atomic.get shard.mailbox in
    if not (Atomic.compare_and_set shard.mailbox old (r :: old)) then go ()
  in
  go ();
  Atomic.incr shard.depth

let drain t shard =
  match Atomic.exchange shard.mailbox [] with
  | [] -> ()
  | backlog ->
      let batch = List.rev backlog in
      let n = List.length batch in
      ignore (Atomic.fetch_and_add shard.depth (-n));
      List.iter (fun r -> apply t.t_seeds r.r_inst r.r_key r.r_weight) batch;
      shard.applied <- shard.applied + n;
      Numerics.Obs.count ~by:n "server.shard.applied"

let flush t =
  t.pending_since_flush <- 0;
  Numerics.Obs.span ~cat:"server" "server.flush" @@ fun () ->
  ignore
    (Numerics.Pool.parallel_map ~grain:1 (pool t) (drain t) t.t_shards)

type ingest_error =
  | Overloaded of { depth : int; limit : int }
  | Rejected of string

let ingest_error_to_string = function
  | Overloaded { depth; limit } ->
      Printf.sprintf "overloaded: %d records pending on shard (limit %d)" depth
        limit
  | Rejected m -> m

(* Validation + admission, with no side effect: the engine runs this
   before logging to the WAL (write-ahead discipline — a record must
   never be logged and then shed, or shed and then logged). Under the
   single-producer contract a passing check cannot turn into a shed by
   the time the matching [ingest] runs: only this thread grows the
   mailbox. *)
let check_ingest_i t ~name ~weight =
  if not (Float.is_finite weight) || weight <= 0. then
    Error (Rejected (Printf.sprintf "weight %g must be finite and > 0" weight))
  else
    match Hashtbl.find_opt t.by_name name with
    | None -> Error (Rejected (Printf.sprintf "unknown instance %S" name))
    | Some inst ->
        let depth = Atomic.get (shard_of t inst).depth in
        if depth >= t.cfg.max_inflight then begin
          Numerics.Obs.count "server.ingest.shed";
          Error (Overloaded { depth; limit = t.cfg.max_inflight })
        end
        else Ok inst

let check_ingest t ~name ~weight =
  Result.map (fun (_ : instance) -> ()) (check_ingest_i t ~name ~weight)

let ingest t ~name ~key ~weight =
  match check_ingest_i t ~name ~weight with
  | Error e -> Error e
  | Ok inst ->
      Numerics.Obs.count "server.ingest";
      push (shard_of t inst) { r_inst = inst; r_key = key; r_weight = weight };
      t.pending_since_flush <- t.pending_since_flush + 1;
      if t.pending_since_flush >= t.cfg.flush_every then flush t;
      Ok ()

(* Batch admission is all-or-nothing: every weight validated up front,
   and the whole batch shed when it would push the shard past
   [max_inflight] (depth + n > limit reduces to the single-record
   depth >= limit check at n = 1) — a batch is never half-applied. *)
let check_ingest_many_i t ~name ~records =
  let n = Array.length records in
  if n = 0 then Error (Rejected "empty batch")
  else begin
    let bad = ref None in
    Array.iter
      (fun (_, w) ->
        if !bad = None && (not (Float.is_finite w) || w <= 0.) then
          bad := Some w)
      records;
    match !bad with
    | Some w ->
        Error
          (Rejected (Printf.sprintf "weight %g must be finite and > 0" w))
    | None -> (
        match Hashtbl.find_opt t.by_name name with
        | None -> Error (Rejected (Printf.sprintf "unknown instance %S" name))
        | Some inst ->
            let depth = Atomic.get (shard_of t inst).depth in
            if depth + n > t.cfg.max_inflight then begin
              Numerics.Obs.count "server.ingest.shed";
              Error (Overloaded { depth; limit = t.cfg.max_inflight })
            end
            else Ok inst)
  end

let check_ingest_many t ~name ~records =
  Result.map (fun (_ : instance) -> ()) (check_ingest_many_i t ~name ~records)

(* One CAS publishes the whole batch: the cells are prepended in reverse
   so the drain's [List.rev] restores arrival order — per-instance
   application order is exactly as if each record had been pushed one at
   a time. All records of a batch target one instance, hence one shard. *)
let push_many shard inst records =
  let n = Array.length records in
  let rec go () =
    let old = Atomic.get shard.mailbox in
    let cells = ref old in
    for i = 0 to n - 1 do
      let key, weight = records.(i) in
      cells := { r_inst = inst; r_key = key; r_weight = weight } :: !cells
    done;
    if not (Atomic.compare_and_set shard.mailbox old !cells) then go ()
  in
  go ();
  ignore (Atomic.fetch_and_add shard.depth n)

let ingest_many t ~name ~records =
  match check_ingest_many_i t ~name ~records with
  | Error e -> Error e
  | Ok inst ->
      let n = Array.length records in
      Numerics.Obs.count ~by:n "server.ingest";
      Numerics.Obs.count "server.ingest.batch";
      push_many (shard_of t inst) inst records;
      t.pending_since_flush <- t.pending_since_flush + n;
      if t.pending_since_flush >= t.cfg.flush_every then flush t;
      Ok ()

let pending t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.depth) 0 t.t_shards

(* --- reads --- *)

let id inst = inst.id
let name inst = inst.i_name
let instance_config inst = inst.icfg
let records inst = inst.i_records
let volume inst = inst.i_volume
let cardinality inst = Hashtbl.length inst.weights

(* Every export below is sorted by [by_key] or [sorted_keys]: hashtable
   iteration order depends on insertion history, so anything emitted to
   a snapshot, a STATS response or a merge payload is sorted first —
   byte-stable regardless of ingestion order (regression-tested by
   diffing snapshots of permuted streams). *)
let by_key entries =
  List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) entries

let sorted_entries tbl =
  by_key (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let sorted_weights inst =
  by_key (Hashtbl.fold (fun k c acc -> (k, c.w) :: acc) inst.weights [])

let sorted_keys tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Int.compare

let to_instance inst = Sampling.Instance.of_assoc (sorted_weights inst)

let pps_sample inst =
  {
    Sampling.Poisson.instance_id = inst.id;
    tau = inst.icfg.tau;
    entries = sorted_entries inst.pps_tbl;
  }

let bottom_k inst =
  let k = inst.icfg.k in
  let all = RankSet.elements inst.bk_set in
  let rec take n = function
    | [] -> ([], infinity)
    | (rank, key) :: rest ->
        if n = 0 then ([], rank)
        else
          let kept, thr = take (n - 1) rest in
          ( {
              Sampling.Bottom_k.key;
              value = (Hashtbl.find inst.weights key).w;
              rank;
            }
            :: kept,
            thr )
  in
  let entries, threshold = take k all in
  {
    Sampling.Bottom_k.instance_id = inst.id;
    k;
    family = Sampling.Rank.PPS;
    entries;
    threshold;
  }

let binary_sample inst = sorted_keys inst.binary_tbl

(* --- mergeable summary export / install (cluster mode) --- *)

type summary = {
  s_name : string;
  s_id : int;
  s_cfg : instance_config;
  s_records : int;
  s_volume : float;
  s_weights : (int * float) list;
}

let export_summary ?since inst =
  let s_weights =
    match since with
    | None -> sorted_weights inst
    | Some records ->
        let after = Float.of_int records in
        by_key
          (Hashtbl.fold
             (fun k c acc -> if c.stamp > after then (k, c.w) :: acc else acc)
             inst.weights [])
  in
  {
    s_name = inst.i_name;
    s_id = inst.id;
    s_cfg = inst.icfg;
    s_records = inst.i_records;
    s_volume = inst.i_volume;
    s_weights;
  }

(* The summary is installed under its *recorded* id: seed derivation
   and the shard assignment key off [s_id], so a store materialized from
   a subset of another store's instances answers queries with the
   original seeds. The samples are rebuilt from the weights by
   [sample_key], the code [apply] runs; every key is stamped with the
   summary's [records]. The instance list stays in id order whatever
   order the summaries come in. *)
let install_summary t s =
  match check_create t ~name:s.s_name s.s_cfg with
  | Error _ as e -> e
  | Ok () when s.s_id < 0 -> Error (Printf.sprintf "invalid instance id %d" s.s_id)
  | Ok () ->
      let inst =
        {
          id = s.s_id;
          i_name = s.s_name;
          icfg = s.s_cfg;
          weights = Hashtbl.create (max 1024 (List.length s.s_weights));
          i_records = s.s_records;
          i_volume = s.s_volume;
          pps_tbl = Hashtbl.create 256;
          binary_tbl = Hashtbl.create 256;
          bk_set = RankSet.empty;
          bk_rank = Hashtbl.create 256;
        }
      in
      let stamp = Float.of_int s.s_records in
      List.iter
        (fun (key, v) -> set_weight t.t_seeds inst ~stamp key v)
        s.s_weights;
      Hashtbl.add t.by_name s.s_name inst;
      let rec insert = function
        | i :: rest when i.id > inst.id -> i :: insert rest
        | l -> inst :: l
      in
      t.rev_instances <- insert t.rev_instances;
      t.n_instances <- max t.n_instances (s.s_id + 1);
      Ok inst

(* A delta advances an instance whose weights only grew: each listed
   key's weight is replaced and its samples re-run through [sample_key]
   (PPS inclusion is monotone in the weight, binary membership was
   decided when the key first appeared, and a falling rank keeps the
   bottom-k working set exact), so the result equals installing the
   full summary. Everything is checked before anything changes. *)
let apply_delta t s =
  match Hashtbl.find_opt t.by_name s.s_name with
  | None -> Error (Printf.sprintf "unknown instance %S" s.s_name)
  | Some inst -> (
      let falls (key, v) =
        match Hashtbl.find inst.weights key with
        | c -> v < c.w
        | exception Not_found -> false
      in
      if inst.id <> s.s_id then
        Error
          (Printf.sprintf "instance %S has id %d, the delta %d" s.s_name
             inst.id s.s_id)
      else if
        not
          (Float.equal inst.icfg.tau s.s_cfg.tau
          && inst.icfg.k = s.s_cfg.k
          && Float.equal inst.icfg.p s.s_cfg.p)
      then
        Error
          (Printf.sprintf "instance %S: the delta has other tau/k/p" s.s_name)
      else if s.s_records < inst.i_records then
        Error
          (Printf.sprintf "instance %S: records fall from %d to %d" s.s_name
             inst.i_records s.s_records)
      else
        match List.find_opt falls s.s_weights with
        | Some (key, v) ->
            Error
              (Printf.sprintf "instance %S: the weight of key %d falls to %h"
                 s.s_name key v)
        | None ->
            inst.i_records <- s.s_records;
            inst.i_volume <- s.s_volume;
            let stamp = Float.of_int s.s_records in
            List.iter
              (fun (key, v) -> set_weight t.t_seeds inst ~stamp key v)
              s.s_weights;
            Ok inst)

(* A new instance is the empty summary at the next id. *)
let create_instance t ~name ?tau ?k ?p () =
  install_summary t
    {
      s_name = name;
      s_id = t.n_instances;
      s_cfg =
        {
          tau = Option.value tau ~default:t.cfg.default_tau;
          k = Option.value k ~default:t.cfg.default_k;
          p = Option.value p ~default:t.cfg.default_p;
        };
      s_records = 0;
      s_volume = 0.;
      s_weights = [];
    }

type shard_stats = { shard : int; queue_depth : int; applied : int }

let shard_stats t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         { shard = i; queue_depth = Atomic.get s.depth; applied = s.applied })
       t.t_shards)
