(* The three workloads. Each run repeats one fixed cycle — set-up, timed
   load, restart — until the run's time is up, so every run attempts
   whole cycles of the same operations. Inputs derive from the workload
   seed only; the servers see nothing but the generated records. *)

module P = Server.Protocol
module T = Workload.Traffic

type run = { seed : int; seconds : float; traced : bool }

(* --- inputs --- *)

let traffic ~scale ~seed =
  let n x = int_of_float (Float.round (x *. scale)) in
  { T.default with T.n_shared = n 11_000.; n_only = n 13_500.; total_per_hour = 5.5e5 *. scale; seed }

let hour params h =
  let s = T.Stream.create ~hour:h params in
  Array.init (T.Stream.length s) (fun _ -> T.Stream.next s)

(* Pair [j] of a day: hour 1 feeds a<j>, hour 2 feeds b<j>. *)
let day ~pairs ~scale ~seed =
  List.concat
    (List.init pairs (fun j ->
         let params = traffic ~scale ~seed:(seed + j) in
         [ (Printf.sprintf "a%d" j, hour params 1); (Printf.sprintf "b%d" j, hour params 2) ]))

(* Round-robin over instances, [size] records per batch. *)
let batches ~size streams =
  let longest = List.fold_left (fun m (_, a) -> max m (Array.length a)) 0 streams in
  List.concat
    (List.init ((longest + size - 1) / size) (fun c ->
         List.filter_map
           (fun (name, a) ->
             let lo = c * size in
             if lo >= Array.length a then None
             else Some (name, Array.sub a lo (min size (Array.length a - lo))))
           streams))

let seed_of run j = (run.seed * 7919) + j

(* --- per-run measurements --- *)

type meas = {
  setup : Util.samples;
  recover : Util.samples;
  rss : Util.samples;
  ingest_ms : Util.samples;
  query_ms : Util.samples;
  mutable records : int;  (** acknowledged in timed batches *)
  mutable all_ingest_s : float;  (** every INGESTN round trip, timed or not *)
  mutable all_query_s : float;  (** every QUERY and STATS round trip *)
}

let m =
  let s = Util.samples in
  { setup = s (); recover = s (); rss = s (); ingest_ms = s (); query_ms = s (); records = 0;
    all_ingest_s = 0.; all_query_s = 0. }

(* --- operations, each checked --- *)

type ctx = {
  srv : Srv.t;
  truth : (string, Truth.inst) Hashtbl.t;
  owner : int -> int;  (** cluster partition of a key *)
  reference : Server.Engine.t option;  (** cluster: in-process reference *)
}

let ok_field f want line =
  if P.json_field f line = Some want then Ok () else Error (Printf.sprintf "expected %s=%s in %s" f want line)

let create ctx name =
  let r = ctx.srv.request (Srv.create_line name) in
  Ops.record ~what:("CREATE " ^ name) r (ok_field "name" name);
  Option.iter
    (fun e ->
      ignore (Server.Engine.handle_request e (P.Create { name; tau = Some Srv.tau; k = Some Srv.k; p = Some Srv.p })))
    ctx.reference

let send ?(timed = false) ctx (name, records) =
  let r, dt = Util.timed (fun () -> ctx.srv.ingest ~name records) in
  let n = Array.length records in
  m.all_ingest_s <- m.all_ingest_s +. dt;
  Ops.record ~what:("INGESTN " ^ name) r (ok_field "ingested" (string_of_int n));
  (match r with
  | Ok line when P.json_ok line ->
      let t = Hashtbl.find ctx.truth name in
      Array.iter (fun (key, w) -> Truth.add ~part:(ctx.owner key) t key w) records;
      Option.iter
        (fun e -> ignore (Server.Engine.handle_ingest_many e ~name records))
        ctx.reference
  | _ -> ());
  if timed then begin
    Util.add m.ingest_ms (dt *. 1000.);
    m.records <- m.records + n
  end

(* One QUERY: checked against the exact aggregate of the sent records,
   and on a cluster also against the in-process reference, byte for
   byte. Returns the answer line. *)
let ask ?(timed = false) ?(known_fault = false) ctx kind names =
  let line = Printf.sprintf "QUERY %s %s" (P.query_kind_name kind) (String.concat " " names) in
  let r, dt = Util.timed (fun () -> ctx.srv.request line) in
  m.all_query_s <- m.all_query_s +. dt;
  if timed then Util.add m.query_ms (dt *. 1000.);
  let e =
    match names with
    | [ a; b ] -> Truth.exact (Hashtbl.find ctx.truth a) (Hashtbl.find ctx.truth b)
    | _ -> invalid_arg "pair queries only"
  in
  let check answer =
    match ctx.reference with
    | None -> Truth.check_query kind e answer
    | Some eng -> (
        match Server.Engine.query eng kind names with
        | Ok want when want = answer -> Truth.check_query kind e answer
        | Ok want -> Error (Printf.sprintf "router %s, reference %s" answer want)
        | Error msg -> Error ("reference: " ^ msg))
  in
  Ops.record ~known_fault ~what:line r check;
  match r with Ok l -> l | Error msg -> msg

let stats ctx insts =
  let r, dt = Util.timed (fun () -> ctx.srv.request "STATS") in
  m.all_query_s <- m.all_query_s +. dt;
  Ops.record ~what:"STATS" r (Truth.check_stats insts)

let snapshot ctx path =
  Ops.record ~what:"SNAPSHOT" (ctx.srv.request ("SNAPSHOT " ^ path)) (fun _ -> Ok ())

let same_answer ~what before after =
  Ops.state (before = after) (Printf.sprintf "%s changed across restart: %s / %s" what before after)

let new_truth ?(parts = 1) names =
  let t = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace t n (Truth.create ~parts ~tau:Srv.tau ~p:Srv.p n)) names;
  t

let insts truth names = List.map (Hashtbl.find truth) names
let pair_names j = [ Printf.sprintf "a%d" j; Printf.sprintf "b%d" j ]
let single_ctx srv truth = { srv; truth; owner = (fun _ -> 0); reference = None }
let classic = P.[ Max; Or; Distinct; Dominance ]
let all_kinds = P.[ Max; Or; Distinct; Dominance; Jaccard; L1; Union; Intersection ]

(* ====================================================================
   ingest: one independent-seed daemon with its WAL. Warm start from a
   prior checkpoint plus log, a multi-hour load across three instance
   pairs with a checkpoint (SNAPSHOT) half-way, then a restart over the
   WAL. *)

let ingest_pairs = 3

(* Dominance is left out here: on these sample sizes one dominance query
   costs more than the whole ingest (see README); the query and cluster
   workloads cover it. *)
let ingest_checks = P.[ Max; Or; Distinct ]
let ingest_scale = 1.75
let batch = 1024

let ingest run =
  let names = List.concat (List.init ingest_pairs pair_names) in
  let wal_args dir = [ "--wal"; dir; "--fsync"; "never" ] in
  (* The prior state, written once per run by a daemon: a checkpoint of
     one earlier day, then half a day more in the log. *)
  let truth0 = new_truth names in
  Util.rm_rf "template";
  let prep = single_ctx (Srv.Remote.daemon (wal_args "template")) truth0 in
  List.iter (create prep) names;
  List.iter (send prep)
    (batches ~size:batch (day ~pairs:ingest_pairs ~scale:1.0 ~seed:(seed_of run 100)));
  snapshot prep "prior.snap";
  List.iter Truth.checkpoint (insts truth0 names);
  List.iter (send prep)
    (batches ~size:batch (day ~pairs:ingest_pairs ~scale:0.5 ~seed:(seed_of run 200)));
  prep.srv.stop ();
  let load = batches ~size:batch (day ~pairs:ingest_pairs ~scale:ingest_scale ~seed:(seed_of run 0)) in
  let nb = List.length load in
  fun (_ : int) ->
    let truth = Hashtbl.create 16 in
    Hashtbl.iter (fun n i -> Hashtbl.replace truth n (Truth.copy i)) truth0;
    List.iter Truth.restart (insts truth names);
    Util.copy_dir "template" "wal";
    let t0 = Util.now () in
    let srv =
      if run.traced then Srv.Local.single ~mode:Sampling.Seeds.Independent ~wal_dir:"wal" ()
      else Srv.Remote.daemon (wal_args "wal")
    in
    let ctx = single_ctx srv truth in
    ignore (ask ctx P.Max (pair_names 0));
    Util.add m.setup (Util.now () -. t0);
    List.iteri
      (fun i b ->
        if i = nb / 2 then begin
          snapshot ctx "mid.snap";
          List.iter Truth.checkpoint (insts truth names)
        end;
        send ~timed:true ctx b)
      load;
    stats ctx (insts truth names);
    let queries =
      List.concat_map (fun j -> List.map (fun k -> (k, pair_names j)) ingest_checks) (List.init ingest_pairs Fun.id)
    in
    let before = List.map (fun (k, n) -> ask ~timed:true ctx k n) queries in
    Util.add m.rss (srv.Srv.rss_mb ());
    let t1 = srv.Srv.restart () in
    List.iter Truth.restart (insts truth names);
    let first = ask ctx P.Max (pair_names 0) in
    Util.add m.recover (Util.now () -. t1);
    same_answer ~what:"max a0 b0" (List.hd before) first;
    List.iter2
      (fun (k, n) b -> same_answer ~what:(P.query_kind_name k) b (ask ~timed:true ctx k n))
      queries before;
    stats ctx (insts truth names);
    srv.Srv.stop ();
    Util.rm_rf "wal"

(* ====================================================================
   query: one shared-seed daemon, preloaded with two seeded pairs and a
   fixed pair; a closed loop cycles all eight query kinds, each after a
   small batch of fresh records. The four classic kinds run on the fixed
   pair, whose answers the known fault makes wrong every time. *)

let query_pairs = 2
let query_rounds = 40
let fresh_batch = 512

let query run =
  let seeded = List.concat (List.init query_pairs pair_names) in
  let fault = [ "f1"; "f2" ] in
  let names = fault @ seeded in
  let preload =
    batches ~size:batch
      ((* fixed inputs: half the default two-hour workload *)
       let f = traffic ~scale:0.5 ~seed:T.default.T.seed in
       [ ("f1", hour f 1); ("f2", hour f 2) ]
      @ day ~pairs:query_pairs ~scale:1.0 ~seed:(seed_of run 0))
  in
  (* Fresh records: a third day, sent again from its start when used up
     (repeated keys accumulate, as repeated flows do). *)
  let fresh =
    Array.of_list (batches ~size:fresh_batch (day ~pairs:query_pairs ~scale:1.0 ~seed:(seed_of run 300)))
  in
  let target kind round =
    if List.mem kind classic then fault else pair_names (round mod query_pairs)
  in
  let known kind = List.mem kind classic in
  fun (_ : int) ->
    let truth = new_truth names in
    Util.rm_rf "q.snap";
    let t0 = Util.now () in
    let srv =
      if run.traced then Srv.Local.single ~mode:Sampling.Seeds.Shared ~snapshot:"q.snap" ()
      else Srv.Remote.daemon [ "--shared-seeds"; "--snapshot"; "q.snap" ]
    in
    let ctx = single_ctx srv truth in
    List.iter (create ctx) names;
    List.iter (send ctx) preload;
    List.iter (fun k -> ignore (ask ~known_fault:(known k) ctx k (target k 0))) all_kinds;
    Util.add m.setup (Util.now () -. t0);
    for round = 0 to query_rounds - 1 do
      List.iteri
        (fun i k ->
          send ~timed:true ctx fresh.(((round * 8) + i) mod Array.length fresh);
          ignore (ask ~timed:true ~known_fault:(known k) ctx k (target k round)))
        all_kinds
    done;
    snapshot ctx "q.snap";
    List.iter Truth.checkpoint (insts truth names);
    stats ctx (insts truth names);
    let final = List.map (fun k -> ask ~known_fault:(known k) ctx k (target k 0)) all_kinds in
    Util.add m.rss (srv.Srv.rss_mb ());
    let t1 = srv.Srv.restart () in
    List.iter Truth.restart (insts truth names);
    let first = ask ~known_fault:(known P.Max) ctx P.Max (target P.Max 0) in
    Util.add m.recover (Util.now () -. t1);
    same_answer ~what:"max" (List.hd final) first;
    List.iter2
      (fun k b -> same_answer ~what:(P.query_kind_name k) b (ask ~known_fault:(known k) ctx k (target k 0)))
      (List.tl all_kinds) (List.tl final);
    stats ctx (insts truth names);
    srv.Srv.stop ();
    Util.rm_rf "q.snap"

(* ====================================================================
   cluster: a router over two independent-seed daemons, all separate
   processes. Batches go through the router, with one classic query
   after every [cluster_every] batches; a router restart ends the cycle.
   Every router answer must equal an in-process single store's. *)

let cluster_pairs = 2
let cluster_scale = 1.5
let cluster_batch = 512
let cluster_every = 48
let backends = 2

let cluster run =
  let names = List.concat (List.init cluster_pairs pair_names) in
  let preload = batches ~size:batch (day ~pairs:cluster_pairs ~scale:0.5 ~seed:(seed_of run 100)) in
  let load = batches ~size:cluster_batch (day ~pairs:cluster_pairs ~scale:cluster_scale ~seed:(seed_of run 0)) in
  fun (_ : int) ->
    let truth = new_truth ~parts:backends names in
    let reference =
      Server.Engine.create (Server.Store.create (Srv.store_cfg Sampling.Seeds.Independent))
    in
    let t0 = Util.now () in
    let srv = if run.traced then Srv.Local.cluster backends else Srv.Remote.cluster backends in
    let ctx = { srv; truth; owner = Server.Router.owner ~backends; reference = Some reference } in
    List.iter (create ctx) names;
    List.iter (send ctx) preload;
    List.iter (fun k -> ignore (ask ctx k (pair_names 0))) classic;
    Util.add m.setup (Util.now () -. t0);
    List.iteri
      (fun i b ->
        send ~timed:true ctx b;
        if (i + 1) mod cluster_every = 0 then begin
          let q = (i + 1) / cluster_every in
          ignore (ask ~timed:true ctx (List.nth classic (q mod 4)) (pair_names (q mod cluster_pairs)))
        end)
      load;
    stats ctx (insts truth names);
    Util.add m.rss (srv.Srv.rss_mb ());
    let t1 = srv.Srv.restart () in
    ignore (ask ctx P.Max (pair_names 0));
    Util.add m.recover (Util.now () -. t1);
    srv.Srv.stop ()

let all = [ ("ingest", ingest); ("query", query); ("cluster", cluster) ]
