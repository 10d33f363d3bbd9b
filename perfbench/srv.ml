(* The server under load, behind one interface with two implementations:
   [Remote] drives the built binaries as separate processes over Unix
   sockets (the end-to-end runs); [Local] sends the same requests through
   the layers' public functions in this process and times each layer
   (the traced runs). *)

module P = Server.Protocol
module Store = Server.Store

type t = {
  request : string -> (string, string) result;  (** one-line requests *)
  ingest : name:string -> (int * float) array -> (string, string) result;
  rss_mb : unit -> float;  (** summed peak RSS of the server processes *)
  restart : unit -> float;
      (** stop, then start over the persisted state; returns the time
          the new server was started *)
  stop : unit -> unit;
}

let tau = 400.
let k = 128
let p = 0.1
let create_line name = Printf.sprintf "CREATE %s tau=%g k=%d p=%g" name tau k p
let master = 42

let store_cfg mode = { Store.default_config with Store.shards = 1; master; mode }

(* --- Remote --- *)

module Remote = struct
  let shutdown c pid =
    ignore (Server.Client.request c "SHUTDOWN");
    Server.Client.close c;
    Proc.reap pid

  let start_daemon args =
    let sock = Proc.sock_name "d" in
    let pid = Proc.spawn ([ "serve"; "-j"; "1"; "--socket"; sock ] @ args) in
    (pid, sock, Proc.connect ~pid sock)

  let request c line = Server.Client.request_retry ~sleep:Ops.sleep c line
  let ingest c ~name records = Server.Client.ingest_many ~sleep:Ops.sleep c ~name records

  (* One daemon; [args] are its flags beyond socket and -j. *)
  let daemon args =
    let pid, _, c = start_daemon args in
    let pid = ref pid and c = ref c in
    {
      request = (fun line -> request !c line);
      ingest = (fun ~name r -> ingest !c ~name r);
      rss_mb = (fun () -> Proc.peak_rss_mb !pid);
      restart =
        (fun () ->
          shutdown !c !pid;
          let t = Util.now () in
          let pid', _, c' = start_daemon args in
          pid := pid';
          c := c';
          t);
      stop = (fun () -> shutdown !c !pid);
    }

  (* A router over [n] daemons, each a separate process. *)
  let cluster n =
    let daemons = List.init n (fun _ -> start_daemon []) in
    List.iter (fun (_, _, c) -> Server.Client.close c) daemons;
    let start_router () =
      let sock = Proc.sock_name "r" in
      let backends = List.concat_map (fun (_, s, _) -> [ "--backend"; "./" ^ s ]) daemons in
      let pid = Proc.spawn ([ "route"; "--socket"; sock ] @ backends) in
      (pid, Proc.connect ~pid sock)
    in
    let pid, c = start_router () in
    let pid = ref pid and c = ref c in
    {
      request = (fun line -> request !c line);
      ingest = (fun ~name r -> ingest !c ~name r);
      rss_mb =
        (fun () ->
          List.fold_left
            (fun acc (d, _, _) -> acc +. Proc.peak_rss_mb d)
            (Proc.peak_rss_mb !pid) daemons);
      restart =
        (fun () ->
          shutdown !c !pid;
          let t = Util.now () in
          let pid', c' = start_router () in
          pid := pid';
          c := c';
          t);
      stop =
        (fun () ->
          shutdown !c !pid;
          (* one control connection at a time *)
          List.iter (fun (d, s, _) -> shutdown (Proc.connect ~pid:d s) d) daemons);
    }
end

(* --- Local (traced) --- *)

module Local = struct
  let applied st =
    List.fold_left (fun acc s -> acc + s.Store.applied) 0 (Store.shard_stats st)

  let flush st =
    let a0 = applied st in
    Layer.span "store.apply_s" (fun () -> Store.flush st);
    Layer.add "store.applied" (float_of_int (applied st - a0))

  (* The daemon's read loop: header through [Protocol.parse], body lines
     through [Protocol.parse_batch_record]. *)
  let parse_batch payload =
    Layer.span "protocol.parse_s" @@ fun () ->
    match String.split_on_char '\n' payload with
    | [] -> Error "empty payload"
    | header :: body -> (
        match P.parse header with
        | Ok (P.Ingest_many { name; count }) when count = List.length body ->
            let recs = Array.make count (0, 0.) in
            let rec go i = function
              | [] -> Ok (name, recs)
              | l :: rest -> (
                  match P.parse_batch_record ~line:(i + 1) l with
                  | Ok r ->
                      recs.(i) <- r;
                      go (i + 1) rest
                  | Error e -> Error (Sampling.Io.parse_error_to_string e))
            in
            go 0 body
        | _ -> Error ("bad batch header " ^ header))

  let ingest_error = function
    | Store.Overloaded { depth; limit } ->
        P.error ~kind:"overloaded" (Printf.sprintf "overloaded: %d (limit %d)" depth limit)
    | Store.Rejected m -> P.error m

  (* Engine.handle_ingest_many, one layer at a time. *)
  let ingest_store st wal ~name records =
    match parse_batch (P.batch_payload ~name records) with
    | Error m -> Ok (P.error m)
    | Ok (name, recs) -> (
        match
          Layer.span "engine.admit_s" (fun () -> Store.check_ingest_many st ~name ~records:recs)
        with
        | Error e -> Ok (ingest_error e)
        | Ok () -> (
            let logged =
              match wal with
              | None -> Ok ()
              | Some w ->
                  let op = Server.Wal.Ingest_batch { name; records = recs } in
                  Layer.add "wal.bytes" (float_of_int (String.length (Server.Wal.encode_frame op)));
                  Layer.span "wal.append_s" (fun () -> Server.Wal.append w op)
            in
            match logged with
            | Error m -> Ok (P.error ~kind:"wal" m)
            | Ok () -> (
                let pending0 = Store.pending st and a0 = applied st in
                let r, dt = Util.timed (fun () -> Store.ingest_many st ~name ~records:recs) in
                let n = Array.length recs in
                if Store.pending st < pending0 + n then begin
                  Layer.add "store.apply_s" dt;
                  Layer.add "store.applied" (float_of_int (applied st - a0))
                end
                else Layer.add "store.publish_s" dt;
                match r with
                | Ok () -> Ok (P.ok_fields [ ("ingested", P.jint n) ])
                | Error e -> Ok (ingest_error e))))

  let query engine kind names =
    let r, dt = Util.timed (fun () -> Server.Engine.query engine kind names) in
    Layer.call_ms ("engine.query." ^ P.query_kind_name kind ^ "_ms") dt;
    match r with Ok s -> Ok s | Error m -> Ok (P.error ~kind:"bad_request" m)

  let parse_request line =
    Layer.span "protocol.parse_s" (fun () -> P.parse line)

  (* One node: a store, optionally with its WAL ([wal_dir]); without a
     WAL, SNAPSHOT writes [snapshot] and a restart loads it. *)
  let single ~mode ?wal_dir ?snapshot () =
    let recover dir =
      let wcfg = { (Server.Wal.default_config ~dir) with Server.Wal.fsync = Server.Wal.Never } in
      match
        Layer.span "wal.recover_s" (fun () -> Server.Wal.recover ~store_cfg:(store_cfg mode) wcfg)
      with
      | Error m -> failwith ("wal recovery: " ^ m)
      | Ok r ->
          Layer.add "wal.replayed" (float_of_int r.Server.Wal.replayed);
          (r.Server.Wal.store, Some r.Server.Wal.wal)
    in
    let start () =
      match (wal_dir, snapshot) with
      | Some dir, _ -> recover dir
      | None, Some path when Sys.file_exists path -> (
          match Layer.span "snapshot.load_s" (fun () -> Server.Snapshot.load ~shards:1 path) with
          | Ok st -> (st, None)
          | Error e -> failwith (Sampling.Io.parse_error_to_string e))
      | None, _ -> (Store.create (store_cfg mode), None)
    in
    let st, wal = start () in
    let st = ref st and wal = ref wal in
    let engine = ref (Server.Engine.create ?wal:!wal !st) in
    let request line =
      match parse_request line with
      | Error e -> Ok (P.error ~kind:"bad_request" (Sampling.Io.parse_error_to_string e))
      | Ok (P.Query { kind; names }) ->
          flush !st;
          query !engine kind names
      | Ok (P.Snapshot path) -> (
          flush !st;
          match Layer.span "snapshot.write_s" (fun () -> Server.Snapshot.write !st ~path) with
          | Error m -> Ok (P.error m)
          | Ok n -> (
              Layer.add "snapshot.bytes" (float_of_int (Util.file_size path));
              let base = [ ("path", P.jstr path); ("instances", P.jint n) ] in
              match !wal with
              | None -> Ok (P.ok_fields base)
              | Some w -> (
                  match Layer.span "wal.checkpoint_s" (fun () -> Server.Wal.checkpoint w !st) with
                  | Ok epoch -> Ok (P.ok_fields (base @ [ ("epoch", P.jint epoch) ]))
                  | Error m -> Ok (P.error ~kind:"wal" m))))
      | Ok req -> Ok (fst (Server.Engine.handle_request !engine req))
    in
    {
      request;
      ingest = (fun ~name r -> ingest_store !st !wal ~name r);
      rss_mb = (fun () -> nan);
      restart =
        (fun () ->
          Option.iter Server.Wal.close !wal;
          let t = Util.now () in
          let st', wal' = start () in
          st := st';
          wal := wal';
          engine := Server.Engine.create ?wal:wal' st';
          t);
      stop = (fun () -> Option.iter Server.Wal.close !wal);
    }

  (* The router's work done here, against [n] real daemons: batches
     split by owner and forwarded; queries answered by PULL, merge,
     materialize and Engine.query. *)
  let cluster n =
    let daemons = List.init n (fun _ -> Remote.start_daemon []) in
    let backends = Array.of_list (List.map (fun (_, _, c) -> c) daemons) in
    let cfg = store_cfg Sampling.Seeds.Independent in
    let seeds = Sampling.Seeds.create ~master cfg.Store.mode in
    let names = ref [] in
    (* The workload's connection: HELLO round trips on backend 0. *)
    for _ = 1 to 200 do
      let r, dt = Util.timed (fun () -> Server.Client.request backends.(0) "HELLO 1") in
      if Result.is_error r then failwith "HELLO failed";
      Layer.call_ms "daemon.rtt_ms" dt
    done;
    let pull name i =
      let r = Layer.span "router.pull_s" (fun () -> Server.Client.request_lines backends.(i) ("PULL " ^ name)) in
      match r with
      | Error m -> Error m
      | Ok (header, lines) ->
          Layer.add "router.pull_bytes"
            (float_of_int (List.fold_left (fun acc l -> acc + String.length l + 1) (String.length header + 1) lines));
          Layer.span "merge.parse_s" (fun () -> Server.Merge.of_lines lines)
    in
    let merged_store names =
      let ( let* ) = Result.bind in
      let rec each acc = function
        | [] -> Layer.span "merge.materialize_s" (fun () -> Server.Merge.materialize cfg (List.rev acc))
        | name :: rest ->
            let rec parts acc i =
              if i = n then Ok (List.rev acc)
              else
                let* s = pull name i in
                parts (s :: acc) (i + 1)
            in
            let* ss = parts [] 0 in
            let* m = Layer.span "merge.merge_s" (fun () -> Server.Merge.merge_all seeds ss) in
            each (m :: acc) rest
      in
      each [] names
    in
    let request line =
      match parse_request line with
      | Error e -> Ok (P.error ~kind:"bad_request" (Sampling.Io.parse_error_to_string e))
      | Ok (P.Create { name; _ }) ->
          names := !names @ [ name ];
          Array.fold_left
            (fun acc c -> match acc with Ok _ -> Remote.request c line | e -> e)
            (Ok "") backends
      | Ok (P.Query { kind; names = qn }) -> (
          match merged_store qn with
          | Error m -> Ok (P.error m)
          | Ok st -> query (Server.Engine.create st) kind qn)
      | Ok P.Stats -> (
          match merged_store !names with
          | Error m -> Ok (P.error m)
          | Ok st -> Ok (fst (Server.Engine.handle_request (Server.Engine.create st) P.Stats)))
      | Ok _ -> Ok (P.error ("not routed by the traced cluster: " ^ line))
    in
    let ingest ~name records =
      match parse_batch (P.batch_payload ~name records) with
      | Error m -> Ok (P.error m)
      | Ok (name, recs) ->
          let t0 = Util.now () in
          let parts = Array.make n [] in
          Array.iter
            (fun ((key, _) as r) ->
              let o = Server.Router.owner ~backends:n key in
              parts.(o) <- r :: parts.(o))
            recs;
          let rec go i total =
            if i = n then Ok (P.ok_fields [ ("ingested", P.jint total) ])
            else
              match parts.(i) with
              | [] -> go (i + 1) total
              | part -> (
                  let sub = Array.of_list (List.rev part) in
                  match Remote.ingest backends.(i) ~name sub with
                  | Ok resp when P.json_ok resp -> go (i + 1) (total + Array.length sub)
                  | other -> other)
          in
          let r = go 0 0 in
          Layer.call_ms "router.forward_ms" (Util.now () -. t0);
          r
    in
    {
      request;
      ingest;
      rss_mb = (fun () -> nan);
      restart = (fun () -> Util.now ());
      stop =
        (fun () ->
          List.iteri (fun i (pid, _, _) -> Remote.shutdown backends.(i) pid) daemons);
    }
end
