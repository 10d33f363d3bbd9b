(* The merge algebra behind cluster mode, and the cluster itself.

   In-process: payload round trips, the strict parser's guards, and the
   laws — merge is commutative, associative up to bit-identity, has the
   empty summary as identity, and reproduces a single store's summaries
   bit-for-bit when per-key weight sums are exact (disjoint partitions
   always; overlapping keys with dyadic weights). Ingestion order across
   keys never changes a byte of a snapshot, a PULL payload or STATS.

   End to end: 2- and 4-daemon clusters behind the router answer all
   four query kinds byte-identically to a single daemon that ingested
   everything — including after one daemon is killed and its partition
   recovered from a SYNC-shipped checkpoint on a fresh process. *)

module P = Server.Protocol
module Store = Server.Store
module Merge = Server.Merge
module Engine = Server.Engine
module Router = Server.Router
module Daemon = Server.Daemon
module Client = Server.Client
module Snapshot = Server.Snapshot

let master = 4242
let tau = 50.
let k = 32
let p = 0.2

let cfg ?(shards = 1) ?(mode = Sampling.Seeds.Independent) () =
  { Store.default_config with Store.shards; master; flush_every = 4096; mode }

let seeds ?(mode = Sampling.Seeds.Independent) () =
  Sampling.Seeds.create ~master mode

(* Quarter-unit weights: dyadic rationals whose sums stay exact in
   binary floating point at these magnitudes, so re-associating additions
   (what a merge does to overlapping keys) cannot change a bit. *)
let records ~seed n =
  let rng = Numerics.Prng.create ~seed () in
  Array.init n (fun _ ->
      ( 1 + Numerics.Prng.int rng 512,
        0.25 *. float_of_int (1 + Numerics.Prng.int rng 64) ))

let ingest_all st name recs =
  Array.iter
    (fun (key, weight) ->
      match Store.ingest st ~name ~key ~weight with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e))
    recs

(* One store, instances created in a fixed order, each fed its records. *)
let store_of ?mode parts =
  let st = Store.create (cfg ?mode ()) in
  List.iter
    (fun (name, _) ->
      match Store.create_instance st ~name ~tau ~k ~p () with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "create %s: %s" name m)
    parts;
  List.iter (fun (name, recs) -> ingest_all st name recs) parts;
  Store.flush st;
  st

let export st name =
  match Store.find st name with
  | Some inst -> Codec_oracle.export_summary inst
  | None -> Alcotest.failf "instance %s missing" name

let merge_exn a b =
  match Merge.merge (seeds ()) a b with
  | Ok s -> s
  | Error m -> Alcotest.failf "merge: %s" m

let check_payload msg expected actual =
  Alcotest.(check (list string)) msg (Merge.payload expected)
    (Merge.payload actual)

(* ------------------------------------------------------------------ *)
(* Payload round trip and parser guards                                 *)
(* ------------------------------------------------------------------ *)

let test_payload_roundtrip () =
  let st = store_of [ ("a", records ~seed:11 2000) ] in
  let s = export st "a" in
  let lines = Merge.payload s in
  Alcotest.(check bool) "payload is nonempty" true (List.length lines > 2);
  match Merge.of_lines lines with
  | Error m -> Alcotest.failf "of_lines rejected its own payload: %s" m
  | Ok s' ->
      check_payload "payload round trips bit-for-bit" s s';
      Alcotest.(check int) "records survive" s.Store.s_records
        s'.Store.s_records

(* Weights stay finite while their sum, the volume, can overflow: such a
   summary still round trips through PULL and a snapshot. *)
let test_overflowed_volume_roundtrip () =
  let st = store_of [ ("a", [| (1, 0x1p1023); (2, 0x1p1023) |]) ] in
  let s = export st "a" in
  Alcotest.(check bool) "volume overflowed" true (s.Store.s_volume = infinity);
  (match Merge.of_lines (Merge.payload s) with
  | Ok s' -> check_payload "payload round trips" s s'
  | Error m -> Alcotest.failf "payload refused: %s" m);
  match Snapshot.of_string_r (Snapshot.to_string st) with
  | Ok st' ->
      Alcotest.(check string) "snapshot round trips" (Snapshot.to_string st)
        (Snapshot.to_string st')
  | Error e ->
      Alcotest.failf "snapshot refused: %s"
        (Sampling.Io.parse_error_to_string e)

let test_of_lines_guards () =
  let st = store_of [ ("a", records ~seed:12 400) ] in
  let lines = Merge.payload (export st "a") in
  let reject msg mutate =
    match Merge.of_lines (mutate lines) with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
    | Error e ->
        Alcotest.(check bool)
          (msg ^ " carries a message")
          true
          (String.length e > 0)
  in
  reject "empty payload" (fun _ -> []);
  reject "missing end" (fun ls ->
      List.filter (fun l -> l <> "end") ls);
  reject "trailing garbage" (fun ls -> ls @ [ "w 9 0x1p0" ]);
  reject "descending keys" (fun ls ->
      List.concat_map
        (fun l ->
          if String.length l > 2 && String.sub l 0 2 = "w " then
            [ l; "w 0 0x1p0" ]
          else [ l ])
        ls);
  reject "sampled key without a weight" (fun ls ->
      List.concat_map
        (fun l ->
          if String.length l > 8 && String.sub l 0 8 = "summary " then
            [ l; "s 1000000 0x1p0" ]
          else [ l ])
        ls);
  reject "section out of order" (fun ls ->
      (* move the first weight line to the very end, after the samples *)
      match
        List.partition
          (fun l -> String.length l > 2 && String.sub l 0 2 = "w ")
          ls
      with
      | w :: ws, rest ->
          List.filter (fun l -> l <> "end") (ws @ rest) @ [ w; "end" ]
      | [], _ -> [ "not a payload" ])

(* The per-key line is written without Printf; it must print what
   [Printf.sprintf "w %d %h"] prints, for every finite float (and falls
   back to [%h] for the rest). Seeded random bit patterns cover every
   exponent and sign; the listed edges cover the cases a hand-rolled
   writer gets wrong: subnormals (lead digit 0, exponent -1022), zero,
   the extremes, powers of two (no fraction) and an all-ones fraction. *)
let test_weight_line_matches_printf () =
  let buf = Buffer.create 64 in
  let check key v =
    Buffer.clear buf;
    Merge.add_weight_line buf key v;
    let want = Printf.sprintf "w %d %h" key v in
    if Buffer.contents buf <> want then
      Alcotest.failf "weight line %S, Printf %S (bits %Lx)"
        (Buffer.contents buf) want (Int64.bits_of_float v)
  in
  let rng = Numerics.Prng.create ~seed:131 () in
  let random_key () = Int64.to_int (Numerics.Prng.bits64 rng) in
  for _ = 1 to 100_000 do
    check (random_key ()) (Int64.float_of_bits (Numerics.Prng.bits64 rng))
  done;
  (* Subnormals: random fractions under a zero exponent, both signs. *)
  for _ = 1 to 10_000 do
    let frac = Int64.logand (Numerics.Prng.bits64 rng) 0xF_FFFF_FFFF_FFFFL in
    let v = Int64.float_of_bits frac in
    check (random_key ()) v;
    check (random_key ()) (-.v)
  done;
  for e = -1074 to 1023 do
    check e (Float.ldexp 1. e);
    check (-e) (Float.ldexp (-1.) e)
  done;
  List.iter
    (fun v -> List.iter (fun key -> check key v) [ 0; 1; -1; max_int; min_int ])
    [ Float.min_float; Float.max_float; Float.pred 1.; Float.succ 1.;
      Int64.float_of_bits 1L; Int64.float_of_bits 0xF_FFFF_FFFF_FFFFL;
      Float.pred Float.min_float; 0.; -0.; 1.; 0.1; 1e308; infinity;
      neg_infinity; nan ];
  (* The INGESTN body uses the same writers. *)
  let records =
    Array.init 500 (fun _ ->
        ( random_key (),
          Float.abs (Int64.float_of_bits (Numerics.Prng.bits64 rng)) ))
  in
  let want =
    String.concat ""
      (Printf.sprintf "INGESTN h %d" (Array.length records)
      :: Array.to_list
           (Array.map (fun (k, w) -> Printf.sprintf "\n%d %h" k w) records))
  in
  Alcotest.(check string) "batch payload equals its Printf rendering" want
    (P.batch_payload ~name:"h" records)

(* ------------------------------------------------------------------ *)
(* The algebra                                                          *)
(* ------------------------------------------------------------------ *)

let test_merge_empty_identity () =
  let st = store_of [ ("a", records ~seed:21 1500) ] in
  let empty_st = store_of [ ("a", [||]) ] in
  let s = export st "a" in
  let e = export empty_st "a" in
  check_payload "empty is a right identity" s (merge_exn s e);
  check_payload "empty is a left identity" s (merge_exn e s)

let test_merge_commutative () =
  let s1 = export (store_of [ ("a", records ~seed:31 1200) ]) "a" in
  let s2 = export (store_of [ ("a", records ~seed:32 1300) ]) "a" in
  check_payload "merge commutes (overlapping keys)" (merge_exn s1 s2)
    (merge_exn s2 s1)

let test_merge_associative () =
  let s1 = export (store_of [ ("a", records ~seed:41 900) ]) "a" in
  let s2 = export (store_of [ ("a", records ~seed:42 900) ]) "a" in
  let s3 = export (store_of [ ("a", records ~seed:43 900) ]) "a" in
  check_payload "merge associates bit-for-bit"
    (merge_exn (merge_exn s1 s2) s3)
    (merge_exn s1 (merge_exn s2 s3))

let test_merge_rejects_mismatch () =
  let s1 = export (store_of [ ("a", records ~seed:51 100) ]) "a" in
  let st2 = Store.create (cfg ()) in
  (match Store.create_instance st2 ~name:"a" ~tau:(tau *. 2.) ~k ~p () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "create: %s" m);
  Store.flush st2;
  let s2 = export st2 "a" in
  match Merge.merge (seeds ()) s1 s2 with
  | Ok _ -> Alcotest.fail "merging mismatched tau must fail"
  | Error m ->
      Alcotest.(check bool) "diagnostic names the mismatch" true
        (String.length m > 0)

(* merge (ingest A) (ingest B) = ingest (A ∪ B), overlapping keys, on
   dyadic weights — the strongest exactness claim. *)
let test_merge_equals_union_overlap () =
  let ra = records ~seed:61 1100 and rb = records ~seed:62 1400 in
  let sa = export (store_of [ ("a", ra) ]) "a" in
  let sb = export (store_of [ ("a", rb) ]) "a" in
  let union = export (store_of [ ("a", Array.append ra rb) ]) "a" in
  check_payload "merge of overlapping halves equals the union ingest" union
    (merge_exn sa sb)

(* The router's law: partition the stream by key ownership across 1, 2
   and 4 stores; the merged summaries — and every query answer computed
   from them — are bit-identical to the unpartitioned store. Shared-mode
   stores additionally survive a snapshot → restart round trip with
   byte-identical answers (the snapshot header carries the seed mode). *)
let check_partitions_equal_single_node ?mode kinds =
  let names = [ "a"; "b" ] in
  let recs = [ ("a", records ~seed:71 3000); ("b", records ~seed:72 3000) ] in
  let single = store_of ?mode recs in
  let single_engine = Engine.create single in
  let query_all e =
    List.map
      (fun kind ->
        match Engine.query e kind names with
        | Ok r -> r
        | Error m -> Alcotest.failf "query: %s" m)
      kinds
  in
  let reference = query_all single_engine in
  List.iter
    (fun nparts ->
      let stores =
        Array.init nparts (fun _ ->
            let st = Store.create (cfg ?mode ()) in
            List.iter
              (fun name ->
                match Store.create_instance st ~name ~tau ~k ~p () with
                | Ok _ -> ()
                | Error m -> Alcotest.failf "create: %s" m)
              names;
            st)
      in
      List.iter
        (fun (name, rs) ->
          Array.iter
            (fun ((key, weight) : int * float) ->
              let o = Router.owner ~backends:nparts key in
              match Store.ingest stores.(o) ~name ~key ~weight with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e))
            rs)
        recs;
      Array.iter Store.flush stores;
      let merged_summaries =
        List.map
          (fun name ->
            let parts =
              Array.to_list (Array.map (fun st -> export st name) stores)
            in
            match Merge.merge_all (seeds ?mode ()) parts with
            | Ok s -> s
            | Error m -> Alcotest.failf "merge_all: %s" m)
          names
      in
      List.iter2
        (fun name merged ->
          check_payload
            (Printf.sprintf "%s over %d partitions equals single node" name
               nparts)
            (export single name) merged)
        names merged_summaries;
      match Merge.materialize (cfg ?mode ()) merged_summaries with
      | Error m -> Alcotest.failf "materialize: %s" m
      | Ok st ->
          Alcotest.(check (list string))
            (Printf.sprintf "answers over %d partitions bit-identical" nparts)
            reference
            (query_all (Engine.create st));
          (* ... and again on the store a restart would reload. *)
          let reloaded =
            match Snapshot.of_string_r (Snapshot.to_string st) with
            | Ok st' -> st'
            | Error e ->
                Alcotest.failf "snapshot reload: %s"
                  (Sampling.Io.parse_error_to_string e)
          in
          Alcotest.(check (list string))
            (Printf.sprintf
               "answers after snapshot restart bit-identical (%d partitions)"
               nparts)
            reference
            (query_all (Engine.create reloaded)))
    [ 1; 2; 4 ]

let test_partitions_equal_single_node () =
  check_partitions_equal_single_node [ P.Max; P.Or; P.Distinct; P.Dominance ]

let test_partitions_equal_single_node_similarity () =
  check_partitions_equal_single_node ~mode:Sampling.Seeds.Shared
    [ P.Jaccard; P.L1; P.Union; P.Intersection ]

(* Satellite: ingestion order across keys never changes a byte — same
   records forward and reversed give identical snapshots, PULL payloads
   and STATS. (Per-key arrival order is the only order summaries depend
   on; distinct keys make any interleaving equivalent.) *)
let test_order_independent_exports () =
  let n = 1500 in
  let rng = Numerics.Prng.create ~seed:81 () in
  let recs =
    Array.init n (fun i ->
        ((i * 7) + 1, 0.25 *. float_of_int (1 + Numerics.Prng.int rng 64)))
  in
  let rev = Array.of_list (List.rev (Array.to_list recs)) in
  let st1 = store_of [ ("a", recs) ] in
  let st2 = store_of [ ("a", rev) ] in
  Alcotest.(check string) "snapshots byte-identical across ingest orders"
    (Snapshot.to_string st1) (Snapshot.to_string st2);
  check_payload "PULL payloads byte-identical across ingest orders"
    (export st1 "a") (export st2 "a");
  let stats st =
    let response, _ = Engine.handle_request (Engine.create st) P.Stats in
    response
  in
  Alcotest.(check string) "STATS byte-identical across ingest orders"
    (stats st1) (stats st2)

(* ------------------------------------------------------------------ *)
(* End to end: the cluster                                              *)
(* ------------------------------------------------------------------ *)

let connect_exn where = function
  | Ok c -> c
  | Error m -> Alcotest.failf "connect %s: %s" where m

let ok_exn c line =
  match Client.request_retry c line with
  | Ok resp ->
      if not (P.json_ok resp) then
        Alcotest.failf "request %S answered %s" line resp;
      resp
  | Error m -> Alcotest.failf "request %S: %s" line m

let create_line name = Printf.sprintf "CREATE %s tau=%g k=%d p=%g" name tau k p

(* Mixed ingestion — half single INGEST lines, half one INGESTN batch —
   through whatever endpoint [c] is (a daemon or the router). *)
let feed c name recs =
  let n = Array.length recs in
  let half = n / 2 in
  Array.iter
    (fun (key, weight) ->
      ignore (ok_exn c (Printf.sprintf "INGEST %s %d %h" name key weight)))
    (Array.sub recs 0 half);
  match Client.ingest_many c ~name (Array.sub recs half (n - half)) with
  | Ok resp ->
      if not (P.json_ok resp) then Alcotest.failf "ingest_many answered %s" resp
  | Error m -> Alcotest.failf "ingest_many: %s" m

let default_kinds = [ "max"; "or"; "distinct"; "dominance" ]
let similarity_kinds = [ "jaccard"; "l1"; "union"; "intersection" ]

let queries ?(kinds = default_kinds) c =
  List.map (fun kind -> ok_exn c (Printf.sprintf "QUERY %s a b" kind)) kinds

let e2e_recs () =
  [ ("a", records ~seed:91 1200); ("b", records ~seed:92 1200) ]

(* Reference: one daemon, no router. *)
let single_node_answers ?mode ?kinds recs =
  let daemon = Daemon.start (Engine.create (Store.create (cfg ?mode ()))) in
  let c =
    connect_exn "daemon" (Client.connect_tcp ~port:(Daemon.port daemon) ())
  in
  List.iter (fun (name, _) -> ignore (ok_exn c (create_line name))) recs;
  List.iter (fun (name, rs) -> feed c name rs) recs;
  let answers = queries ?kinds c in
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join daemon;
  answers

let cluster_answers ?mode ?kinds ?probe ~nbackends recs =
  let backends =
    Array.init nbackends (fun _ ->
        Daemon.start (Engine.create (Store.create (cfg ?mode ()))))
  in
  let addrs =
    Array.to_list
      (Array.map
         (fun d ->
           Unix.ADDR_INET
             (Unix.inet_addr_of_string "127.0.0.1", Daemon.port d))
         backends)
  in
  let router =
    match Router.connect ~store_cfg:(cfg ?mode ()) addrs with
    | Ok t -> t
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  let rd = Router.start router in
  let c = connect_exn "router" (Client.connect_tcp ~port:(Daemon.port rd) ()) in
  List.iter (fun (name, _) -> ignore (ok_exn c (create_line name))) recs;
  List.iter (fun (name, rs) -> feed c name rs) recs;
  let answers = queries ?kinds c in
  Option.iter (fun f -> f c) probe;
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join rd;
  Router.close router;
  Array.iter
    (fun d ->
      let bc =
        connect_exn "backend" (Client.connect_tcp ~port:(Daemon.port d) ())
      in
      ignore (ok_exn bc "SHUTDOWN");
      Client.close bc;
      Daemon.join d)
    backends;
  answers

let test_e2e_cluster_bit_identical () =
  let recs = e2e_recs () in
  let reference = single_node_answers recs in
  List.iter
    (fun nbackends ->
      Alcotest.(check (list string))
        (Printf.sprintf "%d-daemon cluster bit-identical to single node"
           nbackends)
        reference
        (cluster_answers ~nbackends recs))
    [ 2; 4 ]

(* The similarity verbs through the router: PULL → merge → materialize →
   local L* answers byte-identical to a single shared-seed daemon. The
   probe also pins the router's refusal discipline — an unknown query
   kind is answered [kind="bad_request"] on the same connection, which
   keeps serving afterwards. *)
let test_e2e_cluster_similarity_bit_identical () =
  let recs = e2e_recs () in
  let mode = Sampling.Seeds.Shared in
  let kinds = similarity_kinds @ default_kinds in
  let reference = single_node_answers ~mode ~kinds recs in
  let probe c =
    match Client.request_retry c "QUERY frobnicate a b" with
    | Error m -> Alcotest.failf "router dropped an unknown kind: %s" m
    | Ok resp ->
        Alcotest.(check bool) "unknown kind answered not-ok" false
          (P.json_ok resp);
        Alcotest.(check (option string)) "unknown kind is bad_request"
          (Some "bad_request")
          (P.json_field "kind" resp);
        ignore (ok_exn c "STATS")
  in
  List.iter
    (fun nbackends ->
      Alcotest.(check (list string))
        (Printf.sprintf
           "%d-daemon cluster similarity answers bit-identical to single node"
           nbackends)
        reference
        (cluster_answers ~mode ~kinds ~probe ~nbackends recs))
    [ 2; 4 ]

(* Failover: kill a daemon, recover its partition on a fresh process from
   a SYNC-shipped checkpoint, and keep ingesting — final answers must
   equal a single node that saw everything. Backends live on Unix-socket
   paths so the replacement daemon is reachable at the dead one's
   address. *)
let sock_path i =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "optsample-merge-%d-%d.sock" (Unix.getpid ()) i)

let spawn_unix_daemon ~path engine =
  match Daemon.listen_unix ~path () with
  | Error m -> Alcotest.failf "listen %s: %s" path m
  | Ok sock -> Domain.spawn (fun () -> Daemon.serve engine sock)

let test_e2e_failover_checkpoint () =
  let recs = e2e_recs () in
  let half (name, rs) =
    let n = Array.length rs in
    ((name, Array.sub rs 0 (n / 2)), (name, Array.sub rs (n / 2) (n - n / 2)))
  in
  let first, second = List.split (List.map half recs) in
  let reference = single_node_answers recs in
  let paths = [ sock_path 0; sock_path 1 ] in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  let dom1 =
    spawn_unix_daemon ~path:(List.nth paths 0)
      (Engine.create (Store.create (cfg ())))
  in
  let dom2 =
    spawn_unix_daemon ~path:(List.nth paths 1)
      (Engine.create (Store.create (cfg ())))
  in
  let addrs = List.map (fun p -> Unix.ADDR_UNIX p) paths in
  let router =
    match Router.connect ~store_cfg:(cfg ()) addrs with
    | Ok t -> t
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  let rd = Router.start router in
  let c = connect_exn "router" (Client.connect_tcp ~port:(Daemon.port rd) ()) in
  List.iter (fun (name, _) -> ignore (ok_exn c (create_line name))) recs;
  List.iter (fun (name, rs) -> feed c name rs) first;
  (* Ship backend 0's checkpoint over SYNC, then kill it. *)
  let b0 =
    connect_exn "backend 0" (Client.connect_unix ~path:(List.nth paths 0))
  in
  let shipped =
    match Client.request_lines b0 "SYNC" with
    | Ok (header, lines) ->
        if not (P.json_ok header) then
          Alcotest.failf "SYNC answered %s" header;
        String.concat "\n" lines ^ "\n"
    | Error m -> Alcotest.failf "SYNC: %s" m
  in
  ignore (ok_exn b0 "SHUTDOWN");
  Client.close b0;
  Domain.join dom1;
  (* Recover the partition on a fresh daemon at the same address. *)
  let st0 =
    match Snapshot.of_string_r shipped with
    | Ok st -> st
    | Error e ->
        Alcotest.failf "shipped checkpoint unusable: %s"
          (Sampling.Io.parse_error_to_string e)
  in
  let dom1' = spawn_unix_daemon ~path:(List.nth paths 0) (Engine.create st0) in
  (* Keep ingesting through the router (its connection to backend 0
     re-dials transparently), then compare. *)
  List.iter (fun (name, rs) -> feed c name rs) second;
  Alcotest.(check (list string))
    "answers after failover bit-identical to an uninterrupted single node"
    reference (queries c);
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join rd;
  Router.close router;
  List.iteri
    (fun i path ->
      let bc =
        connect_exn
          (Printf.sprintf "backend %d" i)
          (Client.connect_unix ~path)
      in
      ignore (ok_exn bc "SHUTDOWN");
      Client.close bc)
    paths;
  Domain.join dom1';
  Domain.join dom2;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

(* SYNC under a WAL rolls the log over: the response carries a fresh
   epoch each time, and the shipped text is a loadable snapshot. *)
let test_sync_checkpoints_wal () =
  let dir = Filename.temp_file "merge-wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wcfg = Server.Wal.default_config ~dir in
  let r =
    match Server.Wal.recover ~store_cfg:(cfg ()) wcfg with
    | Ok r -> r
    | Error m -> Alcotest.failf "wal recover: %s" m
  in
  let daemon =
    Daemon.start (Engine.create ~wal:r.Server.Wal.wal r.Server.Wal.store)
  in
  let c =
    connect_exn "daemon" (Client.connect_tcp ~port:(Daemon.port daemon) ())
  in
  ignore (ok_exn c (create_line "a"));
  ignore (ok_exn c "INGEST a 7 1.5");
  let sync () =
    match Client.request_lines c "SYNC" with
    | Ok (header, lines) ->
        if not (P.json_ok header) then
          Alcotest.failf "SYNC answered %s" header;
        let epoch =
          match
            Option.bind (P.json_field "epoch" header) int_of_string_opt
          with
          | Some e -> e
          | None -> Alcotest.failf "SYNC under a WAL must report an epoch"
        in
        (epoch, String.concat "\n" lines ^ "\n")
    | Error m -> Alcotest.failf "SYNC: %s" m
  in
  let e1, shipped = sync () in
  ignore (ok_exn c "INGEST a 9 2.5");
  let e2, _ = sync () in
  Alcotest.(check bool) "each SYNC rolls a fresh epoch" true (e2 > e1);
  (match Snapshot.of_string_r shipped with
  | Ok st ->
      Alcotest.(check int) "shipped checkpoint holds the instance" 1
        (List.length (Store.instances st))
  | Error e ->
      Alcotest.failf "shipped checkpoint unusable: %s"
        (Sampling.Io.parse_error_to_string e));
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join daemon;
  Server.Wal.close r.Server.Wal.wal

(* One codec: a snapshot section is a PULL payload. A daemon's SYNC text
   and a router's SYNC text both load through Snapshot.of_string_r, and
   a PULL from a daemon serving the loaded store answers the bytes of
   Merge.payload of the source summary under the restore rule (records =
   key count, volume = ascending-key sum). *)
let restore_rule (s : Store.summary) =
  {
    s with
    Store.s_records = Array.length s.Store.s_keys;
    s_volume =
      List.fold_left (fun acc (_, v) -> acc +. v) 0. (Codec_oracle.weights s);
  }

let lines_exn c line =
  match Client.request_lines c line with
  | Ok (header, lines) ->
      if not (P.json_ok header) then Alcotest.failf "%s answered %s" line header;
      lines
  | Error m -> Alcotest.failf "%s: %s" line m

let pulled c name =
  match Merge.of_lines (lines_exn c ("PULL " ^ name)) with
  | Ok s -> s
  | Error m -> Alcotest.failf "PULL %s payload: %s" name m

let test_sync_sections_are_pull_payloads () =
  let recs = e2e_recs () in
  let names = List.map fst recs in
  let backends =
    Array.init 2 (fun _ -> Daemon.start (Engine.create (Store.create (cfg ()))))
  in
  let port_addr d =
    Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Daemon.port d)
  in
  let router =
    match
      Router.connect ~store_cfg:(cfg ())
        (Array.to_list (Array.map port_addr backends))
    with
    | Ok t -> t
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  let rd = Router.start router in
  let c = connect_exn "router" (Client.connect_tcp ~port:(Daemon.port rd) ()) in
  let b0 =
    connect_exn "backend 0" (Client.connect_tcp ~port:(Daemon.port backends.(0)) ())
  in
  List.iter (fun name -> ignore (ok_exn c (create_line name))) names;
  List.iter (fun (name, rs) -> feed c name rs) recs;
  let shutdown c =
    ignore (ok_exn c "SHUTDOWN");
    Client.close c
  in
  let check_source what endpoint =
    let sources = List.map (pulled endpoint) names in
    let text = String.concat "\n" (lines_exn endpoint "SYNC") ^ "\n" in
    let st =
      match Snapshot.of_string_r text with
      | Ok st -> st
      | Error e ->
          Alcotest.failf "%s SYNC text unusable: %s" what
            (Sampling.Io.parse_error_to_string e)
    in
    Alcotest.(check string)
      (what ^ " SYNC text is the loaded store's snapshot")
      text (Snapshot.to_string st);
    let d = Daemon.start (Engine.create st) in
    let rc = connect_exn "reloaded" (Client.connect_tcp ~port:(Daemon.port d) ()) in
    List.iter2
      (fun name source ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s: re-PULL %s is the source payload under the \
                           restore rule" what name)
          (Merge.payload (restore_rule source))
          (lines_exn rc ("PULL " ^ name)))
      names sources;
    shutdown rc;
    Daemon.join d
  in
  check_source "daemon" b0;
  check_source "router" c;
  shutdown c;
  Daemon.join rd;
  Router.close router;
  shutdown b0;
  Daemon.join backends.(0);
  let b1 =
    connect_exn "backend 1" (Client.connect_tcp ~port:(Daemon.port backends.(1)) ())
  in
  shutdown b1;
  Daemon.join backends.(1)

(* PULL cursors. [since=<epoch>:<records>] parses strictly; a
   malformed one is a bad_request the session survives. The store's
   own epoch gets the keys changed after the records count with the
   current totals; any other epoch gets the full payload and the
   current epoch. *)
let header_int header field =
  match Option.bind (P.json_field field header) int_of_string_opt with
  | Some v -> v
  | None -> Alcotest.failf "header %s has no integer %s" header field

let pull_exn c line =
  match Client.request_lines c line with
  | Ok (header, lines) ->
      if not (P.json_ok header) then Alcotest.failf "%s answered %s" line header;
      (header, lines)
  | Error m -> Alcotest.failf "%s: %s" line m

let test_pull_cursors () =
  (match P.parse "PULL a since=5:7" with
  | Ok (P.Pull { name = "a"; since = Some (5, 7) }) -> ()
  | _ -> Alcotest.fail "PULL a since=5:7 misparsed");
  (match P.parse "PULL a" with
  | Ok (P.Pull { name = "a"; since = None }) -> ()
  | _ -> Alcotest.fail "PULL a misparsed");
  let malformed =
    [ "PULL a since="; "PULL a since=1"; "PULL a since=x:1";
      "PULL a since=1:y"; "PULL a since=1:-2"; "PULL a since=-1:2";
      "PULL a since=1:2:3"; "PULL a until=1:2"; "PULL a since=1:2 3";
      "PULL a 1:2" ]
  in
  List.iter
    (fun line ->
      match P.parse line with
      | Ok _ -> Alcotest.failf "%S parsed" line
      | Error _ -> ())
    malformed;
  let daemon = Daemon.start (Engine.create (Store.create (cfg ()))) in
  let c =
    connect_exn "daemon" (Client.connect_tcp ~port:(Daemon.port daemon) ())
  in
  ignore (ok_exn c (create_line "a"));
  feed c "a" (records ~seed:111 400);
  List.iter
    (fun line ->
      match Client.request c line with
      | Ok resp ->
          Alcotest.(check (option string))
            (line ^ " is a bad_request") (Some "bad_request")
            (P.json_field "kind" resp)
      | Error m -> Alcotest.failf "%s dropped the session: %s" line m)
    malformed;
  let header, full = pull_exn c "PULL a" in
  let epoch = header_int header "epoch" in
  let count =
    match Merge.of_lines full with
    | Ok s -> s.Store.s_records
    | Error m -> Alcotest.failf "full payload: %s" m
  in
  Alcotest.(check bool) "a full reply echoes no cursor" true
    (P.json_field "since" header = None);
  let stale_header, stale =
    pull_exn c (Printf.sprintf "PULL a since=%d:%d" (epoch + 1) count)
  in
  Alcotest.(check (list string)) "an unknown epoch gets the full payload"
    full stale;
  Alcotest.(check int) "and the current epoch" epoch
    (header_int stale_header "epoch");
  Alcotest.(check bool) "and no cursor echo" true
    (P.json_field "since" stale_header = None);
  let cursor = Printf.sprintf "PULL a since=%d:%d" epoch count in
  let quiet_header, quiet = pull_exn c cursor in
  Alcotest.(check int) "a current cursor is echoed" count
    (header_int quiet_header "since");
  Alcotest.(check int) "nothing changed: header and end only" 2
    (List.length quiet);
  let more = records ~seed:112 50 in
  feed c "a" more;
  let delta_header, delta = pull_exn c cursor in
  Alcotest.(check int) "the delta's epoch" epoch
    (header_int delta_header "epoch");
  let _, now = pull_exn c "PULL a" in
  match (Merge.of_lines delta, Merge.of_lines now) with
  | Ok d, Ok s ->
      let changed =
        List.sort_uniq Int.compare (Array.to_list (Array.map fst more))
      in
      Alcotest.(check (list int)) "the delta lists exactly the changed keys"
        changed (Array.to_list d.Store.s_keys);
      Alcotest.(check bool) "with their current weights" true
        (List.for_all
           (fun (k, v) ->
             Float.equal v (List.assoc k (Codec_oracle.weights s)))
           (Codec_oracle.weights d));
      Alcotest.(check int) "and the current records" s.Store.s_records
        d.Store.s_records;
      Alcotest.(check bool) "and the current volume" true
        (Float.equal s.Store.s_volume d.Store.s_volume);
      ignore (ok_exn c "SHUTDOWN");
      Client.close c;
      Daemon.join daemon
  | Error m, _ | _, Error m -> Alcotest.failf "payload: %s" m

(* ------------------------------------------------------------------ *)
(* The rebuild law                                                      *)
(* ------------------------------------------------------------------ *)

(* A stream over few keys (heavy repetition) plus keys whose PPS rank
   ties exactly with a working-set rank of the repeated keys: the
   second-smallest and the (k+1)-th smallest, where the (rank, key)
   tie-break decides membership. A tie key gets weight w with
   [u /. w = r] bit for bit, sent as two records of [w /. 2.] (an exact
   halving, so the accumulated weight is [w] again). *)
let rebuild_k = 8

let tied_stream seeds ~instance ~seed =
  let rng = Numerics.Prng.create ~seed () in
  let base =
    Array.init 600 (fun _ ->
        ( 1 + Numerics.Prng.int rng 120,
          0.25 *. float_of_int (1 + Numerics.Prng.int rng 40) ))
  in
  let acc = Hashtbl.create 128 in
  Array.iter
    (fun (key, w) ->
      let v0 = Option.value (Hashtbl.find_opt acc key) ~default:0. in
      Hashtbl.replace acc key (v0 +. w))
    base;
  let ranks =
    Hashtbl.fold
      (fun key v l ->
        Sampling.Seeds.rank seeds Sampling.Rank.PPS ~instance ~key ~w:v :: l)
      acc []
    |> List.sort Float.compare |> Array.of_list
  in
  let targets = [ ranks.(1); ranks.(rebuild_k) ] in
  let rec ties key want r acc =
    if want = 0 then (key, acc)
    else
      let u = Sampling.Seeds.seed seeds ~instance ~key in
      let w = u /. r in
      if Float.is_finite w && w > 0. && Float.equal (u /. w) r then
        ties (key + 1) (want - 1) r ((key, w /. 2.) :: (key, w /. 2.) :: acc)
      else ties (key + 1) want r acc
  in
  let _, extra =
    List.fold_left
      (fun (key, acc) r -> ties key 2 r acc)
      (1000, []) targets
  in
  Array.append base (Array.of_list (List.rev extra))

(* The samples of an instance as lists, and its weights, which
   determine its bottom-k sample. *)
let samples_of inst =
  ( Agg_oracle.pps_of_column ~instance_id:(Store.id inst)
      ~tau:(Store.instance_config inst).Store.tau (Store.pps_column inst),
    Agg_oracle.column_keys (Store.binary_column inst),
    Codec_oracle.weights (Codec_oracle.export_summary inst) )

let test_install_rebuilds_live_samples () =
  List.iter
    (fun mode ->
      let seeds = seeds ~mode () in
      let streams =
        [ ("a", tied_stream seeds ~instance:0 ~seed:91);
          ("b", tied_stream seeds ~instance:1 ~seed:92) ]
      in
      let reference = ref None in
      List.iter
        (fun shards ->
          let c = cfg ~shards ~mode () in
          let st = Store.create c in
          List.iter
            (fun (name, _) ->
              match Store.create_instance st ~name ~tau ~k:rebuild_k ~p () with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "create %s: %s" name m)
            streams;
          List.iter (fun (name, recs) -> ingest_all st name recs) streams;
          Store.flush st;
          let live = List.map samples_of (Store.instances st) in
          let tied =
            List.exists
              (fun inst ->
                let bk =
                  Sampling.Bottom_k.sample (Store.seeds st)
                    ~family:Sampling.Rank.PPS
                    ~instance:(Store.id inst) ~k:rebuild_k
                    (Sampling.Instance.of_assoc
                       (Codec_oracle.weights (Codec_oracle.export_summary inst)))
                in
                let rs =
                  List.map (fun e -> e.Sampling.Bottom_k.rank)
                    bk.Sampling.Bottom_k.entries
                in
                List.exists
                  (fun r ->
                    List.length (List.filter (Float.equal r) rs) > 1
                    || Float.equal r bk.Sampling.Bottom_k.threshold)
                  rs)
              (Store.instances st)
          in
          Alcotest.(check bool) "the working sets hold tied ranks" true tied;
          let fresh = Store.create c in
          let rebuilt =
            List.map
              (fun inst ->
                match Store.install_summary fresh (Codec_oracle.export_summary inst) with
                | Ok i -> samples_of i
                | Error m -> Alcotest.failf "install: %s" m)
              (Store.instances st)
          in
          Alcotest.(check bool)
            (Printf.sprintf "install (export i) = i at %d shard(s)" shards)
            true (rebuilt = live);
          match !reference with
          | None -> reference := Some live
          | Some r ->
              Alcotest.(check bool)
                (Printf.sprintf "samples at %d shard(s) equal 1 shard" shards)
                true (r = live))
        [ 1; 2; 4 ])
    [ Sampling.Seeds.Independent; Sampling.Seeds.Shared ]

(* The restore rule a snapshot, a SYNC follower and a WAL checkpoint all
   follow: [records] is the key count and [volume] the weights summed in
   ascending key order; the samples are the live ones. *)
let test_snapshot_restore_rule () =
  let st = Store.create (cfg ()) in
  List.iter
    (fun name ->
      match Store.create_instance st ~name ~tau ~k:rebuild_k ~p () with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "create: %s" m)
    [ "a"; "b" ];
  ingest_all st "a" (tied_stream (seeds ()) ~instance:0 ~seed:93);
  ingest_all st "b" (records ~seed:94 900);
  Store.flush st;
  match Snapshot.of_string_r (Snapshot.to_string st) with
  | Error e ->
      Alcotest.failf "reload: %s" (Sampling.Io.parse_error_to_string e)
  | Ok st2 ->
      List.iter2
        (fun i i2 ->
          let w = Codec_oracle.weights (Codec_oracle.export_summary i) in
          Alcotest.(check int) "records = key count" (List.length w)
            (Store.records i2);
          Alcotest.(check bool) "volume = ascending-key sum" true
            (Float.equal
               (List.fold_left (fun acc (_, v) -> acc +. v) 0. w)
               (Store.volume i2));
          Alcotest.(check bool) "samples survive the reload" true
            (samples_of i = samples_of i2))
        (Store.instances st) (Store.instances st2)

(* ------------------------------------------------------------------ *)
(* The resident store under interleaving                                *)
(* ------------------------------------------------------------------ *)

(* Ingests through the router, queries, STATS and router PULLs, mixed
   with the events that change what the router follows: a failover
   onto a Snapshot.of_string_r restore at the dead daemon's address (a
   new backend epoch) and a router restart. The router runs on this
   domain, its handlers called directly, so its resident store can be
   read between requests. After every query the resident store's
   summaries and samples must equal Merge.materialize of full PULLs,
   and the answer must be byte-identical to a single node's. The
   resident store's epoch shows which path ran: deltas advance the
   store in place, and only the failover rebuilds it. *)
let test_interleaved_deltas () =
  let paths = [| sock_path 10; sock_path 11 |] in
  Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  let doms =
    Array.map
      (fun path ->
        spawn_unix_daemon ~path (Engine.create (Store.create (cfg ()))))
      paths
  in
  let clients =
    Array.mapi
      (fun i path ->
        connect_exn (Printf.sprintf "backend %d" i) (Client.connect_unix ~path))
      paths
  in
  let connect () =
    match
      Router.connect ~store_cfg:(cfg ())
        (Array.to_list (Array.map (fun p -> Unix.ADDR_UNIX p) paths))
    with
    | Ok r -> r
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  let router = ref (connect ()) in
  let handlers () = Router.handlers !router in
  let route line =
    match P.parse line with
    | Ok req -> fst ((handlers ()).Daemon.on_request req)
    | Error e ->
        Alcotest.failf "%S: %s" line (Sampling.Io.parse_error_to_string e)
  in
  let route_lines line =
    match String.split_on_char '\n' (route line) with
    | header :: lines when P.json_ok header -> (header, lines)
    | _ -> Alcotest.failf "router %s failed" line
  in
  let single = Engine.create (Store.create (cfg ())) in
  let reference line = fst (Engine.handle_line single line) in
  let both line =
    Alcotest.(check string) ("router answers " ^ line) (reference line)
      (route line)
  in
  let names = [ "a"; "b" ] in
  List.iter (fun name -> both (create_line name)) names;
  let epoch_of i = header_int (fst (pull_exn clients.(i) "PULL a")) "epoch" in
  Alcotest.(check bool) "two daemons of one process draw different epochs"
    true
    (epoch_of 0 <> epoch_of 1);
  (* The from-scratch merge: full PULLs of every instance, materialized. *)
  let scratch () =
    let merged name =
      match Array.to_list (Array.map (fun c -> pulled c name) clients) with
      | first :: rest -> List.fold_left merge_exn first rest
      | [] -> Alcotest.fail "no backends"
    in
    match Merge.materialize (cfg ()) (List.map merged names) with
    | Ok st -> st
    | Error m -> Alcotest.failf "materialize: %s" m
  in
  let check_resident what =
    let fresh = scratch () in
    let held = Store.instances (Router.resident !router) in
    Alcotest.(check (list string))
      (what ^ ": the resident store holds the instances read")
      names (List.map Store.name held);
    List.iter
      (fun inst ->
        let name = Store.name inst in
        let want = Option.get (Store.find fresh name) in
        check_payload
          (Printf.sprintf "%s: resident %s equals a full PULL" what name)
          (Codec_oracle.export_summary want) (Codec_oracle.export_summary inst);
        Alcotest.(check bool)
          (Printf.sprintf "%s: resident %s samples equal a full PULL's" what
             name)
          true
          (samples_of want = samples_of inst))
      held;
    fresh
  in
  let stats_instances response =
    match String.index_opt response '[' with
    | None -> Alcotest.failf "STATS answered %s" response
    | Some i -> (
        let tail = String.sub response i (String.length response - i) in
        match Str.search_forward (Str.regexp_string ",\"shards\"") tail 0 with
        | j -> String.sub tail 0 j
        | exception Not_found -> Alcotest.failf "STATS answered %s" response)
  in
  let streams = [ ("a", records ~seed:121 2400); ("b", records ~seed:122 2400) ] in
  let batch = 100 in
  let failed_over = ref false in
  let last_epoch = ref (Store.epoch (Router.resident !router)) in
  let router_cursor = ref None in
  let router_deltas = ref 0 in
  for step = 0 to 23 do
    let event =
      match step with
      | 8 ->
          (* Fail backend 0 over onto a restore of its SYNC text. *)
          let before = epoch_of 0 in
          let shipped = String.concat "\n" (lines_exn clients.(0) "SYNC") ^ "\n" in
          ignore (ok_exn clients.(0) "SHUTDOWN");
          Domain.join doms.(0);
          (match Snapshot.of_string_r shipped with
          | Ok st ->
              doms.(0) <- spawn_unix_daemon ~path:paths.(0) (Engine.create st)
          | Error e ->
              Alcotest.failf "shipped checkpoint unusable: %s"
                (Sampling.Io.parse_error_to_string e));
          Alcotest.(check bool)
            "a restored successor at the same address draws a new epoch" true
            (epoch_of 0 <> before);
          failed_over := true;
          `Rebuild
      | 16 ->
          Router.close !router;
          router := connect ();
          router_cursor := None;
          `Restart
      | 20 ->
          (* A record sent to a daemon that does not own its key, for a
             key its owner holds too: the merge sums the two, so from
             here on "b" cannot follow deltas and every read rebuilds. *)
          let key =
            Array.to_list (Array.map fst (List.assoc "b" streams))
            |> List.find (fun key -> Router.owner ~backends:2 key = 0)
          in
          let line = Printf.sprintf "INGEST b %d 0x1p-2" key in
          ignore (ok_exn clients.(1) line);
          ignore (reference line);
          `Rebuild
      | _ when step > 20 -> `Rebuild
      | _ -> `None
    in
    List.iter
      (fun (name, rs) ->
        let slice = Array.sub rs (step * batch) batch in
        Array.iter
          (fun (key, w) -> both (Printf.sprintf "INGEST %s %d %h" name key w))
          (Array.sub slice 0 5);
        let rest = Array.sub slice 5 (batch - 5) in
        Alcotest.(check string) "batch through the router"
          (Engine.handle_ingest_many single ~name rest)
          ((handlers ()).Daemon.on_batch ~name rest))
      streams;
    let what = Printf.sprintf "step %d" step in
    let kind = List.nth default_kinds (step mod 4) in
    let query = Printf.sprintf "QUERY %s a b" kind in
    (* A restored partition follows the snapshot restore rule (records
       = key count), so only the query answers, which do not read the
       counters, stay comparable with the single node after it. *)
    both query;
    let fresh = check_resident what in
    let epoch = Store.epoch (Router.resident !router) in
    (match event with
    | `None ->
        Alcotest.(check int) (what ^ ": deltas advance the store in place")
          !last_epoch epoch
    | `Rebuild ->
        Alcotest.(check bool) (what ^ ": a new backend epoch rebuilds") true
          (epoch <> !last_epoch)
    | `Restart -> ());
    last_epoch := epoch;
    if step mod 3 = 1 then begin
      let stats = route "STATS" in
      Alcotest.(check string) (what ^ ": STATS equals the from-scratch STATS")
        (fst (Engine.handle_request (Engine.create fresh) P.Stats))
        stats;
      if not !failed_over then
        Alcotest.(check string) (what ^ ": STATS instances equal a single node's")
          (stats_instances (reference "STATS"))
          (stats_instances stats)
    end;
    (* The router serves cursors too: a delta from its resident store
       carries what changed since the router's own earlier PULL. *)
    if step mod 4 = 2 then begin
      let header, lines = route_lines "PULL a" in
      (match !router_cursor with
      | Some (epoch, base, previous) ->
          let dheader, dlines =
            route_lines
              (Printf.sprintf "PULL a since=%d:%d" epoch base.Store.s_records)
          in
          (* The router's own epoch changes when it rebuilds; within
             one, its cursor gets a delta. *)
          Alcotest.(check bool) (what ^ ": a router cursor is honoured in its epoch")
            (header_int header "epoch" = epoch)
            (P.json_field "since" dheader <> None);
          if P.json_field "since" dheader <> None then begin
            incr router_deltas;
            let delta = Result.get_ok (Merge.of_lines dlines) in
            let st = Result.get_ok (Merge.materialize (cfg ()) [ previous ]) in
            (match Merge.apply_deltas ~owner:(fun _ -> 0) st [ delta ] with
            | Ok () -> ()
            | Error m -> Alcotest.failf "%s: router delta refused: %s" what m);
            Alcotest.(check (list string))
              (what ^ ": the router's delta brings its last PULL up to date")
              lines
              (Merge.payload (Codec_oracle.export_summary (Option.get (Store.find st "a"))))
          end
      | None -> ());
      let s = Result.get_ok (Merge.of_lines lines) in
      router_cursor := Some (header_int header "epoch", s, s)
    end
  done;
  Alcotest.(check bool) "the router served delta PULLs" true
    (!router_deltas > 0);
  Router.close !router;
  Array.iteri
    (fun i c ->
      ignore (ok_exn c "SHUTDOWN");
      Client.close c;
      Domain.join doms.(i))
    clients;
  Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

(* ------------------------------------------------------------------ *)
(* Codec robustness: seeded byte mutations                              *)
(* ------------------------------------------------------------------ *)

(* Single-byte flips, truncations and insertions of a valid encoding.
   Printable replacement bytes dominate, so many mutants stay
   well-formed enough to reach the deeper checks. *)
let mutants ~seed ~n good =
  let rng = Numerics.Prng.create ~seed () in
  let len = String.length good in
  let byte () =
    if Numerics.Prng.int rng 4 = 0 then Char.chr (Numerics.Prng.int rng 256)
    else String.get " \n0123456789abcdefpx+-.endwsumry" (Numerics.Prng.int rng 32)
  in
  List.init n (fun _ ->
      let i = Numerics.Prng.int rng len in
      match Numerics.Prng.int rng 3 with
      | 0 -> String.mapi (fun j c -> if j = i then byte () else c) good
      | 1 -> String.sub good 0 i
      | _ ->
          String.sub good 0 i ^ String.make 1 (byte ())
          ^ String.sub good i (len - i))

(* Mutants of a full payload are materialized; mutants of a delta
   payload (PULL … since=) are applied to the store the delta follows. *)
let test_payload_mutations () =
  let st = store_of [ ("a", records ~seed:101 300) ] in
  let full = export st "a" in
  let inst = Option.get (Store.find st "a") in
  let since = Store.records inst in
  ingest_all st "a" (records ~seed:106 60);
  Store.flush st;
  let delta = Codec_oracle.export_summary ~since inst in
  Alcotest.(check bool) "the delta holds some keys, not all" true
    (Array.length delta.Store.s_keys > 0
    && Array.length delta.Store.s_keys < Store.cardinality inst);
  let run what ~seed good apply =
    let accepted = ref 0 in
    List.iter
      (fun m ->
        match Merge.of_lines (String.split_on_char '\n' m) with
        | exception e ->
            Alcotest.failf "of_lines raised %s on %s mutant %S"
              (Printexc.to_string e) what m
        | Error _ -> ()
        | Ok s -> (
            incr accepted;
            match apply s with
            | exception e ->
                Alcotest.failf "applying a %s mutant raised %s on %S" what
                  (Printexc.to_string e) m
            | Ok () | Error _ -> ()))
      (mutants ~seed ~n:3000 (String.concat "\n" (Merge.payload good)));
    Alcotest.(check bool) ("some " ^ what ^ " mutants still parse") true
      (!accepted > 0)
  in
  run "full" ~seed:102 full (fun s ->
      Result.map ignore (Merge.materialize (cfg ()) [ s ]));
  run "delta" ~seed:107 delta (fun s ->
      Result.bind (Merge.materialize (cfg ()) [ full ]) (fun base ->
          Merge.apply_deltas ~owner:(fun _ -> 0) base [ s ]))

(* Router replies: seeded byte mutants of whole PULL replies (header
   and payload), full and [since=], each replacing one backend's reply
   in an otherwise genuine round, go through the router's path — the
   payload read as one block of the connection's buffer, scanned in
   place, checked and applied per backend ([Router.apply]). The oracle
   is the path it replaced: the payload read line by line, parsed by
   the list codec ([Codec_oracle.of_lines]), the parts summed as sorted
   pair lists, then checked as the list-merging router checked them. A
   mutant must be accepted exactly when the oracle accepts it, with the
   oracle's summary and cursors; a refused one must leave the resident
   store and its cursors as they were; nothing may raise. Each mutant
   meets a fresh router, and the cursors it follows are read off the
   PULLs its next read sends. *)

(* One reply text framed as a client reads it off the wire: the header
   line, then the [lines] it announces — as one block ([`Block]) or line
   by line ([`Lines], the oracle's read). [None] when the text ends
   first. *)
let frame how text =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let len = String.length text in
  let rec write off =
    if off < len then write (off + Unix.write_substring a text off (len - off))
  in
  write 0;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  let conn = P.Conn.of_fd b in
  let result =
    match P.Conn.input_line_opt conn with
    | None -> None
    | Some header -> (
        let announced =
          if P.json_ok header then
            Option.bind (P.json_field "lines" header) int_of_string_opt
          else None
        in
        match (announced, how) with
        | None, `Block -> Some (header, `Block "")
        | None, `Lines -> Some (header, `Lines [])
        | Some n, `Block -> (
            match P.Conn.input_block conn n with
            | Ok block -> Some (header, `Block block)
            | Error _ -> None)
        | Some n, `Lines ->
            if n < 0 then None
            else
              let rec go i acc =
                if i = n then Some (header, `Lines (List.rev acc))
                else
                  match P.Conn.input_line_opt conn with
                  | Some l -> go (i + 1) (l :: acc)
                  | None -> None
              in
              go 0 [])
  in
  P.Conn.close conn;
  Unix.close a;
  result

(* Sorted pair lists summed key by key, left part first. *)
let rec sum_pairs a b =
  match (a, b) with
  | [], r | r, [] -> r
  | (ka, va) :: ta, (kb, vb) :: tb ->
      if ka < kb then (ka, va) :: sum_pairs ta b
      else if kb < ka then (kb, vb) :: sum_pairs a tb
      else (ka, va +. vb) :: sum_pairs ta tb

(* The list-merging router's verdict on one instance's replies:
   [Error] for an unreadable reply, [Ok None] for "rebuild", [Ok (Some
   (summary, cursors))] for the resident summary after the apply and
   the cursors it leaves. [prev] is the resident summary, if any, and
   [asked i] the cursor backend [i] was asked since. *)
let oracle_verdict ~nb ~prev ~asked replies =
  let ( let* ) = Result.bind in
  let parse i (header, lines) =
    if not (P.json_ok header) then Error "not ok"
    else
      match (P.json_field "master" header, P.json_field "mode" header) with
      | Some m, Some mode
        when m = string_of_int master
             && mode = Store.mode_name Sampling.Seeds.Independent -> (
          let* s = Codec_oracle.of_lines lines in
          let field f = Option.bind (P.json_field f header) int_of_string_opt in
          let epoch = field "epoch" in
          let delta =
            match asked i with
            | Some (e, r) -> epoch = Some e && field "since" = Some r
            | None -> false
          in
          Ok (s, Option.map (fun e -> (e, s.Store.s_records)) epoch, delta))
      | _ -> Error "universe"
  in
  let* parts =
    List.fold_left
      (fun acc (i, r) ->
        let* acc = acc in
        let* p = parse i r in
        Ok (acc @ [ p ]))
      (Ok []) (List.mapi (fun i r -> (i, r)) replies)
  in
  let sums = List.map (fun (s, _, _) -> s) parts in
  let first = List.hd sums in
  let same (s : Store.summary) =
    s.Store.s_name = first.Store.s_name
    && s.Store.s_id = first.Store.s_id
    && s.Store.s_cfg = first.Store.s_cfg
  in
  let owned =
    List.for_all Fun.id
      (List.mapi
         (fun i s ->
           Array.for_all (fun k -> Router.owner ~backends:nb k = i) s.Store.s_keys)
         sums)
  in
  let merged =
    List.fold_left
      (fun acc s -> sum_pairs acc (Codec_oracle.weights s))
      [] sums
  in
  let records = List.fold_left (fun acc s -> acc + s.Store.s_records) 0 sums in
  let volume =
    List.fold_left (fun v s -> v +. s.Store.s_volume) first.Store.s_volume
      (List.tl sums)
  in
  let cursors () =
    let cs = List.map (fun (_, c, _) -> c) parts in
    if owned && List.for_all Option.is_some cs then
      Some (List.map Option.get cs)
    else None
  in
  let all_delta = List.for_all (fun (_, _, d) -> d) parts in
  let no_delta = List.for_all (fun (_, _, d) -> not d) parts in
  let result w =
    Some
      ( Codec_oracle.with_weights
          { first with Store.s_records = records; s_volume = volume }
          w,
        cursors () )
  in
  match prev with
  | None when no_delta && List.for_all same sums -> Ok (result merged)
  | Some (prev : Store.summary)
    when all_delta && owned
         && List.for_all same sums
         && first.Store.s_id = prev.Store.s_id
         && first.Store.s_cfg = prev.Store.s_cfg
         && records >= prev.Store.s_records
         && List.for_all
              (fun (k, v) ->
                match List.assoc_opt k (Codec_oracle.weights prev) with
                | Some w -> v >= w
                | None -> true)
              merged ->
      let replaced =
        List.filter
          (fun (k, _) -> not (List.mem_assoc k merged))
          (Codec_oracle.weights prev)
      in
      Ok (result (List.sort compare (replaced @ merged)))
  | _ -> Ok None

let test_reply_mutations () =
  let nb = 2 in
  (* Each daemon notes the cursor of every PULL it is sent, so the
     cursors a router follows are read off the next round it sends. *)
  let sent = Array.init nb (fun _ -> Atomic.make []) in
  let daemons =
    Array.init nb (fun i ->
        let e = Engine.create (Store.create (cfg ())) in
        Daemon.start_handlers
          {
            Daemon.on_request =
              (fun req ->
                (match req with
                | P.Pull { since; _ } ->
                    Atomic.set sent.(i) (since :: Atomic.get sent.(i))
                | _ -> ());
                Engine.handle_request e req);
            on_batch =
              (fun ~name records -> Engine.handle_ingest_many e ~name records);
          })
  in
  let addrs =
    Array.to_list
      (Array.map
         (fun d ->
           Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Daemon.port d))
         daemons)
  in
  let router () =
    match Router.connect ~store_cfg:(cfg ()) addrs with
    | Ok t -> t
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  (* Records go in through the router, so every key is on its owner. *)
  let r0 = router () in
  let h = Router.handlers r0 in
  ignore
    (h.Daemon.on_request
       (P.Create { name = "a"; tau = Some tau; k = Some k; p = Some p }));
  let batch recs =
    let resp = h.Daemon.on_batch ~name:"a" recs in
    if not (P.json_ok resp) then Alcotest.failf "batch: %s" resp
  in
  batch (records ~seed:111 300);
  let clients =
    Array.map
      (fun d -> connect_exn "backend" (Client.connect_tcp ~port:(Daemon.port d) ()))
      daemons
  in
  let pull i line =
    match Client.pipeline_recv (Client.pipeline_send clients.(i) [ line ]) with
    | Ok [ (header, block) ] -> header ^ "\n" ^ block
    | _ -> Alcotest.failf "PULL from backend %d" i
  in
  let full = Array.init nb (fun i -> pull i "PULL a") in
  let cursor_of text =
    match frame `Block text with
    | Some (header, `Block block) ->
        let field f = int_of_string (Option.get (P.json_field f header)) in
        ( field "epoch",
          (Result.get_ok (Merge.of_block ~lines:(field "lines") block))
            .Store.s_records )
    | _ -> Alcotest.fail "framing a genuine reply"
  in
  let cursors = Array.map cursor_of full in
  batch (records ~seed:112 80);
  let delta =
    Array.init nb (fun i ->
        let e, r = cursors.(i) in
        pull i (Printf.sprintf "PULL a since=%d:%d" e r))
  in
  Router.close r0;
  let blocks texts =
    Array.map
      (fun t ->
        match frame `Block t with
        | Some (h, `Block b) -> (h, b)
        | _ -> Alcotest.fail "framing a genuine reply")
      texts
  in
  (* A router holding nothing, or holding [a] as the full replies left
     it, followed by [cursors]. *)
  let fresh ~follow =
    let t = router () in
    (if follow then
       match Router.apply t "a" (blocks full) with
       | Ok true -> ()
       | _ -> Alcotest.fail "installing the genuine full replies");
    t
  in
  let resident_a t =
    Option.map Codec_oracle.export_summary (Store.find (Router.resident t) "a")
  in
  (* The cursors [t] follows [a] by, as the first PULL round of a read
     sends them ([None]: a full PULL). The read moves [t] on. *)
  let cursors_sent t =
    Array.iter (fun a -> Atomic.set a []) sent;
    let resp, _ =
      (Router.handlers t).Daemon.on_request (P.Pull { name = "a"; since = None })
    in
    if not (P.json_ok resp) then Alcotest.failf "read through the router: %s" resp;
    List.init nb (fun i ->
        match List.rev (Atomic.get sent.(i)) with
        | since :: _ -> since
        | [] -> Alcotest.failf "backend %d was sent no PULL" i)
  in
  let cursors_t = Alcotest.(list (option (pair int int))) in
  Alcotest.check cursors_t "a router follows the full replies' cursors"
    (List.map Option.some (Array.to_list cursors))
    (cursors_sent (fresh ~follow:true));
  let run what ~seed ~follow genuine =
    let asked i = if follow then Some cursors.(i) else None in
    let accepted = ref 0 and refused = ref 0 in
    List.iter
      (fun (victim, m) ->
        let texts = Array.mapi (fun i g -> if i = victim then m else g) genuine in
        let framed how = Array.map (frame how) texts in
        match (framed `Block, framed `Lines) with
        | bs, ls when Array.exists Option.is_none bs ->
            (* Cut short on the wire: a transport error for both reads. *)
            Alcotest.(check bool)
              (what ^ ": both reads see the reply cut short") true
              (Array.for_all2
                 (fun b l -> Option.is_none b = Option.is_none l)
                 bs ls)
        | bs, ls -> (
            let raws =
              Array.map
                (function Some (h, `Block b) -> (h, b) | _ -> assert false)
                bs
            in
            let lines =
              Array.to_list
                (Array.map
                   (function Some (h, `Lines l) -> (h, l) | _ -> assert false)
                   ls)
            in
            let t = fresh ~follow in
            let before = Snapshot.to_string (Router.resident t) in
            let prev = resident_a t in
            let want = oracle_verdict ~nb ~prev ~asked lines in
            (match Router.apply t "a" raws with
            | exception e ->
                Alcotest.failf "%s: Router.apply raised %s on %S" what
                  (Printexc.to_string e) m
            | got -> (
                match (got, want) with
                | Ok true, Ok (Some (s, cs)) ->
                    incr accepted;
                    check_payload (what ^ ": the oracle's summary") s
                      (Option.get (resident_a t));
                    Alcotest.check cursors_t
                      (what ^ ": the oracle's cursors")
                      (match cs with
                      | Some cs -> List.map Option.some cs
                      | None -> List.init nb (fun _ -> None))
                      (cursors_sent t)
                | (Ok false | Error _), (Ok None | Error _) ->
                    incr refused;
                    Alcotest.(check string)
                      (what ^ ": a refusal leaves the store") before
                      (Snapshot.to_string (Router.resident t));
                    Alcotest.check cursors_t
                      (what ^ ": a refusal leaves the cursors")
                      (List.init nb asked) (cursors_sent t)
                | _ ->
                    Alcotest.failf "%s: router %s, oracle %s, on %S" what
                      (match got with
                      | Ok b -> string_of_bool b
                      | Error m -> "error " ^ m)
                      (match want with
                      | Ok (Some _) -> "applies"
                      | Ok None -> "rebuilds"
                      | Error m -> "error " ^ m)
                      m));
            Router.close t))
      (List.concat_map
         (fun i ->
           List.map (fun m -> (i, m)) (mutants ~seed:(seed + i) ~n:750 genuine.(i)))
         (List.init nb Fun.id));
    Alcotest.(check bool) (what ^ ": some mutants apply") true (!accepted > 0);
    Alcotest.(check bool) (what ^ ": some mutants are refused") true
      (!refused > 0)
  in
  run "full" ~seed:121 ~follow:false full;
  run "delta" ~seed:131 ~follow:true delta;
  Array.iter
    (fun c ->
      ignore (ok_exn c "SHUTDOWN");
      Client.close c)
    clients;
  Array.iter Daemon.join daemons

(* The router's apply over keys the resident store already holds: each
   backend's delta columns go straight into the store, so one apply
   allocates a fixed number of words — the parts' checks and the
   result — and nothing per key. The columns themselves are the
   delta's, allocated when its reply was scanned. The weights are the
   held ones (a delta may repeat a weight), so every call applies the
   same delta to the same state. *)
let test_warm_delta_alloc () =
  let nb = 2 in
  let parts_of n =
    let st = store_of [ ("a", Array.init n (fun i -> (i + 1, 0.25))) ] in
    let inst = Option.get (Store.find st "a") in
    let full = Codec_oracle.export_summary inst in
    let part i =
      let own =
        List.filter
          (fun (key, _) -> Router.owner ~backends:nb key = i)
          (Codec_oracle.weights full)
      in
      Codec_oracle.with_weights
        {
          full with
          Store.s_records = (if i = 0 then full.Store.s_records else 0);
          s_volume = (if i = 0 then full.Store.s_volume else 0.);
        }
        own
    in
    (st, List.init nb part)
  in
  let apply (st, parts) () =
    match
      Merge.apply_deltas ~owner:(Router.owner ~backends:nb) st parts
    with
    | Ok () -> ()
    | Error m -> Alcotest.failf "warm delta refused: %s" m
  in
  let small = parts_of 1_000 and large = parts_of 10_000 in
  let words = Allocheck.words_per_call (apply large) in
  if Allocheck.is_native then begin
    Alcotest.(check bool)
      (Printf.sprintf
         "a warm 10k-key delta allocates at most 256 minor+major words (%.0f)"
         words)
      true (words <= 256.);
    Alcotest.(check (float 0.))
      "as many words as a 1k-key delta"
      (Allocheck.words_per_call (apply small))
      words
  end

let test_snapshot_mutations () =
  let st =
    store_of [ ("a", records ~seed:103 300); ("b", records ~seed:104 300) ]
  in
  let good = Snapshot.to_string st in
  List.iter
    (fun m ->
      match Snapshot.of_string_r m with
      | exception e ->
          Alcotest.failf "of_string_r raised %s on %S" (Printexc.to_string e)
            m
      | Error _ -> ()
      | Ok st' -> (
          match Snapshot.of_string_r (Snapshot.to_string st') with
          | exception e ->
              Alcotest.failf "reparse raised %s" (Printexc.to_string e)
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "accepted mutant does not round trip: %s"
                (Sampling.Io.parse_error_to_string e)))
    (mutants ~seed:105 ~n:3000 good)

let () =
  Alcotest.run "merge"
    [
      ( "payload",
        [
          Alcotest.test_case "round trip" `Quick test_payload_roundtrip;
          Alcotest.test_case "strict parser guards" `Quick
            test_of_lines_guards;
          Alcotest.test_case "overflowed volume round trips" `Quick
            test_overflowed_volume_roundtrip;
          Alcotest.test_case "byte mutations never raise" `Quick
            test_payload_mutations;
          Alcotest.test_case "router reply mutants match the list oracle"
            `Quick test_reply_mutations;
          Alcotest.test_case "weight lines equal Printf" `Quick
            test_weight_line_matches_printf;
        ] );
      ( "rebuild",
        [
          Alcotest.test_case "install rebuilds the live samples" `Quick
            test_install_rebuilds_live_samples;
          Alcotest.test_case "snapshot restore rule" `Quick
            test_snapshot_restore_rule;
          Alcotest.test_case "snapshot byte mutations never raise" `Quick
            test_snapshot_mutations;
          Alcotest.test_case "warm delta apply allocates per part, not per key"
            `Quick test_warm_delta_alloc;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "empty identity" `Quick test_merge_empty_identity;
          Alcotest.test_case "commutative" `Quick test_merge_commutative;
          Alcotest.test_case "associative" `Quick test_merge_associative;
          Alcotest.test_case "config mismatch rejected" `Quick
            test_merge_rejects_mismatch;
          Alcotest.test_case "overlap merge equals union ingest" `Quick
            test_merge_equals_union_overlap;
          Alcotest.test_case "1/2/4 partitions equal single node" `Slow
            test_partitions_equal_single_node;
          Alcotest.test_case
            "similarity over 1/2/4 partitions equals single node, survives \
             restart"
            `Slow test_partitions_equal_single_node_similarity;
          Alcotest.test_case "exports independent of ingest order" `Quick
            test_order_independent_exports;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "2/4-daemon cluster bit-identical" `Slow
            test_e2e_cluster_bit_identical;
          Alcotest.test_case
            "shared-seed cluster serves similarity bit-identical" `Slow
            test_e2e_cluster_similarity_bit_identical;
          Alcotest.test_case "failover from shipped checkpoint" `Slow
            test_e2e_failover_checkpoint;
          Alcotest.test_case "sync checkpoints the wal" `Quick
            test_sync_checkpoints_wal;
          Alcotest.test_case "sync sections are pull payloads" `Quick
            test_sync_sections_are_pull_payloads;
          Alcotest.test_case "pull cursors" `Quick test_pull_cursors;
          Alcotest.test_case "resident store under interleaving" `Slow
            test_interleaved_deltas;
        ] );
    ]
