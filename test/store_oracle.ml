(* The weight map of a store instance as a [Hashtbl], kept as a test
   oracle of the store's rows and key index: each key maps to its
   accumulated weight and its stamp (the instance's record count when the
   key last changed), and every read is derived from the table by
   sorting, with the inclusion predicates of Poisson.pps_sample and the
   binary sample applied to seeds recomputed through {!Sampling.Seeds}.
   It shares no lookup, ordering or sampling code with {!Server.Store};
   the snapshot text is rendered here with [Printf] for the header and
   {!Server.Merge.add_columns} for each section, the one payload codec. *)

module Store = Server.Store

type inst = {
  name : string;
  id : int;
  cfg : Store.instance_config;
  weights : (int, float * int) Hashtbl.t;
  mutable records : int;
  mutable volume : float;
}

type t = {
  config : Store.config;
  seeds : Sampling.Seeds.t;
  mutable insts : inst list;
}

let create config =
  {
    config;
    seeds = Sampling.Seeds.create ~master:config.Store.master config.Store.mode;
    insts = [];
  }

(* An instance at the next id, as [Store.create_instance] makes it. *)
let create_instance t ~name cfg =
  let inst =
    {
      name;
      id = List.length t.insts;
      cfg;
      weights = Hashtbl.create 16;
      records = 0;
      volume = 0.;
    }
  in
  t.insts <- t.insts @ [ inst ];
  inst

let find t name = List.find (fun i -> i.name = name) t.insts

let apply inst ~key ~weight =
  inst.records <- inst.records + 1;
  inst.volume <- inst.volume +. weight;
  let w =
    match Hashtbl.find_opt inst.weights key with Some (w, _) -> w | None -> 0.
  in
  Hashtbl.replace inst.weights key (w +. weight, inst.records)

(* A delta of one partition: the counters become its totals, and each
   listed key gets its weight, stamped with the new record count. *)
let apply_delta inst (s : Store.summary) =
  inst.records <- s.Store.s_records;
  inst.volume <- s.Store.s_volume;
  Array.iteri
    (fun j key ->
      Hashtbl.replace inst.weights key
        (Float.Array.get s.Store.s_weights j, inst.records))
    s.Store.s_keys

(* The (key, weight) pairs stamped above [since] (all of them without
   it), ascending. *)
let weights ?(since = -1) inst =
  Hashtbl.fold
    (fun k (w, stamp) acc -> if stamp > since then (k, w) :: acc else acc)
    inst.weights []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let seed t inst key = Sampling.Seeds.seed t.seeds ~instance:inst.id ~key

(* The PPS sample: each key whose weight reaches [u · tau], with its
   weight, ascending. *)
let pps t inst =
  List.filter
    (fun (k, w) -> w >= seed t inst k *. inst.cfg.Store.tau)
    (weights inst)

(* The binary sample: each key with [u ≤ p], ascending. *)
let binary t inst =
  List.filter_map
    (fun (k, _) -> if seed t inst k <= inst.cfg.Store.p then Some k else None)
    (weights inst)

let cardinality inst = Hashtbl.length inst.weights

(* [Snapshot.to_string] of the store this oracle follows: the header,
   then each instance's weights as one payload under the restore rule
   ([records] the key count, [volume] the weights summed ascending). *)
let snapshot t =
  let c = t.config in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %s %h %d %h %d %d\n" Server.Snapshot.magic
       c.Store.master (Store.mode_name c.Store.mode) c.Store.default_tau
       c.Store.default_k c.Store.default_p c.Store.flush_every
       (List.length t.insts));
  List.iter
    (fun inst ->
      let pairs = weights inst in
      let keys = Array.of_list (List.map fst pairs) in
      let ws = Float.Array.of_list (List.map snd pairs) in
      let n = Array.length keys in
      ignore
        (Server.Merge.add_columns buf
           {
             Store.s_name = inst.name;
             s_id = inst.id;
             s_cfg = inst.cfg;
             s_records = n;
             s_volume = List.fold_left (fun v (_, w) -> v +. w) 0. pairs;
             s_keys = [||];
             s_weights = Float.Array.create 0;
           }
           keys ws n))
    t.insts;
  Buffer.contents buf
