(* Tests for the streaming summary service: protocol parsing, the
   sharded store (incremental summaries vs. the batch samplers,
   determinism across shard counts), snapshots, the query engine, and an
   end-to-end daemon session over TCP. *)

module I = Sampling.Instance
module P = Server.Protocol
module Store = Server.Store
module Engine = Server.Engine
module Snapshot = Server.Snapshot

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Numerics.Special.float_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_request msg line expected =
  match P.parse line with
  | Ok req ->
      Alcotest.(check bool) msg true (req = expected)
  | Error e -> Alcotest.failf "%s: parse error: %s" msg e.Sampling.Io.message

let check_rejected msg line =
  match P.parse line with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
  | Error e ->
      Alcotest.(check bool)
        (msg ^ " carries a message")
        true
        (String.length e.Sampling.Io.message > 0)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  check_request "hello" "HELLO 1" (P.Hello 1);
  check_request "create bare" "CREATE h1"
    (P.Create { name = "h1"; tau = None; k = None; p = None });
  check_request "create params" "CREATE h.2-x tau=50.5 k=16 p=0.25"
    (P.Create { name = "h.2-x"; tau = Some 50.5; k = Some 16; p = Some 0.25 });
  check_request "ingest" "INGEST h1 17 3.5"
    (P.Ingest { name = "h1"; key = 17; weight = 3.5 });
  check_request "ingestn" "INGESTN h1 16"
    (P.Ingest_many { name = "h1"; count = 16 });
  check_request "ingestn at the cap"
    (Printf.sprintf "INGESTN h1 %d" P.max_batch)
    (P.Ingest_many { name = "h1"; count = P.max_batch });
  check_request "query max" "QUERY max h1 h2"
    (P.Query { kind = P.Max; names = [ "h1"; "h2" ] });
  check_request "query or" "QUERY or a b c"
    (P.Query { kind = P.Or; names = [ "a"; "b"; "c" ] });
  check_request "query distinct" "QUERY distinct h1 h2"
    (P.Query { kind = P.Distinct; names = [ "h1"; "h2" ] });
  check_request "query dominance" "QUERY dominance h1 h2"
    (P.Query { kind = P.Dominance; names = [ "h1"; "h2" ] });
  check_request "snapshot" "SNAPSHOT /tmp/s.snap" (P.Snapshot "/tmp/s.snap");
  check_request "stats" "STATS" P.Stats;
  check_request "flush" "FLUSH" P.Flush;
  check_request "quit" "QUIT" P.Quit;
  check_request "shutdown" "SHUTDOWN" P.Shutdown

let test_protocol_parse_errors () =
  check_rejected "empty" "";
  check_rejected "unknown verb" "BOGUS 1";
  check_rejected "hello wrong version" "HELLO 2";
  check_rejected "hello non-int" "HELLO one";
  check_rejected "create bad name" "CREATE bad name";
  check_rejected "create bad param" "CREATE h1 q=3";
  check_rejected "create tau nonpositive" "CREATE h1 tau=0";
  check_rejected "create p out of range" "CREATE h1 p=1.5";
  check_rejected "ingest missing weight" "INGEST h1 17";
  check_rejected "ingest nonpositive weight" "INGEST h1 17 0";
  check_rejected "ingest non-finite weight" "INGEST h1 17 inf";
  check_rejected "ingest bad key" "INGEST h1 x 1.0";
  check_rejected "ingestn zero count" "INGESTN h1 0";
  check_rejected "ingestn over the cap"
    (Printf.sprintf "INGESTN h1 %d" (P.max_batch + 1));
  check_rejected "ingestn non-int count" "INGESTN h1 x";
  check_rejected "ingestn missing count" "INGESTN h1";
  check_rejected "query unknown kind" "QUERY median h1 h2";
  check_rejected "query one name" "QUERY max h1";
  check_rejected "snapshot no path" "SNAPSHOT";
  check_rejected "stats trailing" "STATS now"

let test_protocol_json () =
  let line =
    P.ok_fields
      [ ("name", P.jstr "h \"1\""); ("estimate", P.jfloat 0.1);
        ("n", P.jint 42) ]
  in
  Alcotest.(check bool) "ok" true (P.json_ok line);
  Alcotest.(check (option string)) "int field" (Some "42")
    (P.json_field "n" line);
  (match P.json_float_field "estimate" line with
  | Some v -> check_float ~eps:0. "float survives %.17g" 0.1 v
  | None -> Alcotest.fail "estimate field missing");
  Alcotest.(check (option string)) "escaped string decodes" (Some "h \"1\"")
    (P.json_field "name" line);
  let err = P.error "bad \"input\"" in
  Alcotest.(check bool) "error not ok" false (P.json_ok err);
  Alcotest.(check bool) "greeting ok" true (P.json_ok P.greeting);
  Alcotest.(check (option string)) "greeting protocol"
    (Some (string_of_int P.version))
    (P.json_field "protocol" P.greeting);
  Alcotest.(check bool) "valid name" true (P.valid_name "a.B-2_c");
  Alcotest.(check bool) "invalid name" false (P.valid_name "a b")

let test_protocol_batch_framing () =
  let records = [| (17, 3.5); (0, 0x1.fffp-3); (4096, 1e9) |] in
  let payload = P.batch_payload ~name:"h1" records in
  (match String.split_on_char '\n' payload with
  | header :: body ->
      check_request "batch header" header
        (P.Ingest_many { name = "h1"; count = 3 });
      Alcotest.(check int) "one body line per record" 3 (List.length body);
      List.iteri
        (fun i line ->
          match P.parse_batch_record line with
          | Ok (key, weight) ->
              Alcotest.(check int) "key roundtrips" (fst records.(i)) key;
              check_float ~eps:0. "weight roundtrips bit-exactly"
                (snd records.(i)) weight
          | Error e -> Alcotest.failf "record %d: %s" i e.Sampling.Io.message)
        body
  | [] -> Alcotest.fail "empty payload");
  List.iter
    (fun line ->
      match P.parse_batch_record line with
      | Ok _ -> Alcotest.failf "bad record %S accepted" line
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S carries a message" line)
            true
            (String.length e.Sampling.Io.message > 0))
    [ ""; "7"; "7 0"; "7 -1"; "7 nan"; "x 1.0"; "7 1 extra" ];
  (match P.batch_payload ~name:"h1" [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty batch payload accepted");
  match P.batch_payload ~name:"h1" (Array.make (P.max_batch + 1) (1, 1.)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized batch payload accepted"

(* Batch-body diagnostics carry the 1-based body line number, so a
   client can point at the offending record of a thousand-line INGESTN
   the same way single-line INGEST errors point at the request. *)
let test_protocol_batch_line_numbers () =
  List.iter
    (fun bad ->
      match P.parse_batch_record ~line:3 bad with
      | Ok _ -> Alcotest.failf "bad record %S accepted" bad
      | Error e ->
          Alcotest.(check int)
            (Printf.sprintf "%S reports its body line" bad)
            3 e.Sampling.Io.line;
          let rendered = Sampling.Io.parse_error_to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "%S renders 'line 3:'" bad)
            true
            (String.length rendered >= 7 && String.sub rendered 0 7 = "line 3:"))
    [ "7 nan"; "7 inf"; "7 -1"; "7 0"; "x 1.0"; "" ];
  (* A good record parses identically whatever line it sits on. *)
  match P.parse_batch_record ~line:9 "7 0x1.8p1" with
  | Ok (key, weight) ->
      Alcotest.(check int) "key" 7 key;
      check_float ~eps:0. "weight" 3.0 weight
  | Error e -> Alcotest.failf "good record rejected: %s" e.Sampling.Io.message

(* retry_after_ms hints are advice, not authority: non-finite and
   negative hints fall back to jittered backoff, and a sane hint is
   clamped into the attempt's backoff envelope. *)
let test_client_hint_clamping () =
  let retry = Server.Client.default_retry in
  (* default: base 10ms, max 2000ms -> envelope 10*2^attempt up to 2000 *)
  let clamp = Server.Client.clamp_hint_ms retry in
  Alcotest.(check (option int)) "NaN discarded" None (clamp ~attempt:0 Float.nan);
  Alcotest.(check (option int)) "+inf discarded" None
    (clamp ~attempt:0 Float.infinity);
  Alcotest.(check (option int)) "-inf discarded" None
    (clamp ~attempt:0 Float.neg_infinity);
  Alcotest.(check (option int)) "negative discarded" None
    (clamp ~attempt:0 (-5.));
  Alcotest.(check (option int)) "in-envelope hint honored" (Some 5)
    (clamp ~attempt:0 5.);
  Alcotest.(check (option int)) "zero honored" (Some 0) (clamp ~attempt:0 0.);
  Alcotest.(check (option int)) "absurd hint clamped to the envelope"
    (Some 10) (clamp ~attempt:0 1e300);
  Alcotest.(check (option int)) "envelope grows with the attempt" (Some 80)
    (clamp ~attempt:3 1e9);
  Alcotest.(check (option int)) "envelope capped at max_delay_ms" (Some 2000)
    (clamp ~attempt:19 1e9);
  (* The jittered draw itself never leaves the envelope either. *)
  let rng = Numerics.Prng.create ~seed:7 () in
  for attempt = 0 to 12 do
    let ms = Server.Client.backoff_ms rng retry ~attempt in
    Alcotest.(check bool) "backoff within the envelope" true
      (ms >= 0 && ms <= retry.Server.Client.max_delay_ms)
  done

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let cfg_one =
  { Store.default_config with master = 99; flush_every = 1024 }

let ingest_exn st ~name ~key ~weight =
  match Store.ingest st ~name ~key ~weight with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e)

let create_exn st ~name ?tau ?k ?p () =
  match Store.create_instance st ~name ?tau ?k ?p () with
  | Ok i -> i
  | Error m -> Alcotest.failf "create_instance: %s" m

(* An instance's state as the batch samplers and the list oracles take
   it: the accumulated weights (from its exported summary) and its
   resident sample columns as lists. *)
let weights inst = Codec_oracle.weights (Codec_oracle.export_summary inst)
let instance_of inst = I.of_assoc (weights inst)

let pps_sample inst =
  Agg_oracle.pps_of_column ~instance_id:(Store.id inst)
    ~tau:(Store.instance_config inst).Store.tau (Store.pps_column inst)

let binary_sample inst = Agg_oracle.column_keys (Store.binary_column inst)

(* A deterministic stream with heavy key repetition, so the incremental
   summaries face in-place weight growth (the interesting case). *)
let feed_random st ~names ~records ~keys ~seed =
  let rng = Numerics.Prng.create ~seed () in
  let pick n = int_of_float (Numerics.Prng.float rng *. float_of_int n) in
  for _ = 1 to records do
    let name = List.nth names (pick (List.length names)) in
    let key = 1 + pick keys in
    let weight = 0.1 +. (Numerics.Prng.float rng *. 20.) in
    ingest_exn st ~name ~key ~weight
  done

let test_store_incremental_matches_batch () =
  let st = Store.create cfg_one in
  let inst = create_exn st ~name:"h1" ~tau:40. ~k:32 ~p:0.3 () in
  feed_random st ~names:[ "h1" ] ~records:4000 ~keys:500 ~seed:5;
  Store.flush st;
  Alcotest.(check int) "all records applied" 4000 (Store.records inst);
  Alcotest.(check int) "nothing pending" 0 (Store.pending st);
  let acc = instance_of inst in
  let seeds = Store.seeds st in
  Alcotest.(check bool) "pps equals batch sampler" true
    (pps_sample inst
    = Sampling.Poisson.pps_sample seeds ~instance:0 ~tau:40. acc);
  Alcotest.(check int) "bottom-k size equals batch sampler"
    (List.length
       (Sampling.Bottom_k.sample seeds ~family:Sampling.Rank.PPS ~instance:0
          ~k:32 acc)
         .Sampling.Bottom_k.entries)
    (Store.bottom_k_size inst);
  Alcotest.(check bool) "binary equals batch sampler" true
    (binary_sample inst
    = Aggregates.Distinct.sample_binary seeds ~p:0.3 ~instance:0 acc);
  check_float "volume" (I.total acc) (Store.volume inst);
  Alcotest.(check int) "cardinality" (I.cardinality acc)
    (Store.cardinality inst)

let test_store_ingest_guards () =
  let st = Store.create cfg_one in
  ignore (create_exn st ~name:"h1" ());
  Alcotest.(check bool) "unknown instance" true
    (Result.is_error (Store.ingest st ~name:"nope" ~key:1 ~weight:1.));
  Alcotest.(check bool) "nonpositive weight" true
    (Result.is_error (Store.ingest st ~name:"h1" ~key:1 ~weight:0.));
  Alcotest.(check bool) "non-finite weight" true
    (Result.is_error (Store.ingest st ~name:"h1" ~key:1 ~weight:nan));
  Alcotest.(check bool) "duplicate name" true
    (Result.is_error
       (Result.map (fun _ -> ()) (Store.create_instance st ~name:"h1" ())))

let test_store_auto_flush () =
  let st = Store.create { cfg_one with flush_every = 64 } in
  ignore (create_exn st ~name:"h1" ());
  for k = 1 to 64 do
    ingest_exn st ~name:"h1" ~key:k ~weight:1.
  done;
  (* The 64th push crossed [flush_every]: everything was applied. *)
  Alcotest.(check int) "auto-flushed" 0 (Store.pending st)

(* The coordinated-summary determinism claim: summaries and answers are
   bit-identical whatever the shard / domain count. The weights stand
   for the bottom-k sample, which they determine. *)
let summaries_of st =
  Store.flush st;
  List.map
    (fun i ->
      ( Store.name i, Store.records i, Store.volume i, pps_sample i,
        weights i, binary_sample i ))
    (Store.instances st)

(* What a snapshot replay preserves bit-for-bit: the query-facing
   summaries. [records] restarts at the key count, and [volume] is
   re-summed in key order (last-ulp FP difference) — both documented in
   {!Snapshot}. *)
let preserved_summaries_of st =
  Store.flush st;
  List.map
    (fun i ->
      ( Store.name i, Store.id i, Store.instance_config i,
        Store.cardinality i, pps_sample i, weights i, binary_sample i ))
    (Store.instances st)

let test_store_ingest_many () =
  (* Bit-identity: a batch is exactly its records applied in arrival
     order — the single-CAS publish must not reorder them. Repeated keys
     make order observable through the incremental summaries. *)
  let records =
    Array.init 300 (fun i -> ((i * 7 mod 97) + 1, 0.5 +. (float_of_int i /. 13.)))
  in
  let build batched =
    let st = Store.create cfg_one in
    ignore (create_exn st ~name:"h" ~tau:40. ~k:32 ~p:0.3 ());
    if batched then (
      match Store.ingest_many st ~name:"h" ~records with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "ingest_many: %s" (Store.ingest_error_to_string e))
    else
      Array.iter (fun (key, weight) -> ingest_exn st ~name:"h" ~key ~weight)
        records;
    st
  in
  Alcotest.(check bool) "batch bit-identical to singles" true
    (summaries_of (build true) = summaries_of (build false))

let test_store_ingest_many_guards () =
  let st =
    Store.create { cfg_one with flush_every = max_int; max_inflight = 10 }
  in
  ignore (create_exn st ~name:"h" ());
  let records n = Array.init n (fun i -> (i + 1, 1.)) in
  (* All-or-nothing admission: a batch that would overflow the mailbox
     budget is shed whole, with no side effect. *)
  (match Store.check_ingest_many st ~name:"h" ~records:(records 11) with
  | Error (Store.Overloaded { depth; limit }) ->
      Alcotest.(check int) "depth reported" 0 depth;
      Alcotest.(check int) "limit reported" 10 limit
  | _ -> Alcotest.fail "expected an overload shed");
  (match Store.ingest_many st ~name:"h" ~records:(records 11) with
  | Error (Store.Overloaded _) -> ()
  | _ -> Alcotest.fail "ingest_many should shed too");
  Alcotest.(check int) "nothing queued by a shed batch" 0 (Store.pending st);
  (* Rejections: empty batch, a bad weight anywhere in the batch, an
     unknown instance — all before anything is queued. *)
  Alcotest.(check bool) "empty batch rejected" true
    (Result.is_error (Store.ingest_many st ~name:"h" ~records:[||]));
  Alcotest.(check bool) "bad weight poisons the whole batch" true
    (Result.is_error
       (Store.ingest_many st ~name:"h" ~records:[| (1, 1.); (2, 0.) |]));
  Alcotest.(check bool) "unknown instance" true
    (Result.is_error (Store.ingest_many st ~name:"nope" ~records:(records 2)));
  Alcotest.(check int) "still nothing queued" 0 (Store.pending st);
  (* A batch that exactly fits the budget lands whole. *)
  (match Store.ingest_many st ~name:"h" ~records:(records 10) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fit batch: %s" (Store.ingest_error_to_string e));
  Alcotest.(check int) "all ten queued" 10 (Store.pending st)

let answers_of st =
  let e = Engine.create st in
  List.map
    (fun (kind, names) ->
      match Engine.query e kind names with
      | Ok s -> s
      | Error m -> Alcotest.failf "query: %s" m)
    [ (P.Max, [ "a"; "b" ]); (P.Or, [ "a"; "b" ]);
      (P.Distinct, [ "a"; "b" ]); (P.Dominance, [ "a"; "b" ]);
      (P.Distinct, [ "a"; "b"; "c" ]) ]

let test_store_shard_determinism () =
  let build shards =
    let pool = Numerics.Pool.create ~domains:shards () in
    let st =
      Store.create ~pool
        { Store.default_config with shards; master = 7; flush_every = 257 }
    in
    List.iter
      (fun name -> ignore (create_exn st ~name ~tau:30. ~k:24 ~p:0.4 ()))
      [ "a"; "b"; "c" ];
    feed_random st ~names:[ "a"; "b"; "c" ] ~records:6000 ~keys:300 ~seed:17;
    (st, pool)
  in
  let st1, p1 = build 1 in
  let reference_summaries = summaries_of st1 in
  let reference_answers = answers_of st1 in
  List.iter
    (fun shards ->
      let st, p = build shards in
      Alcotest.(check bool)
        (Printf.sprintf "summaries identical at %d shards" shards)
        true
        (summaries_of st = reference_summaries);
      Alcotest.(check (list string))
        (Printf.sprintf "answers identical at %d shards" shards)
        reference_answers (answers_of st);
      Numerics.Pool.shutdown p)
    [ 2; 4 ];
  Numerics.Pool.shutdown p1

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let populated_store () =
  let st = Store.create cfg_one in
  ignore (create_exn st ~name:"h1" ~tau:40. ~k:16 ~p:0.3 ());
  ignore (create_exn st ~name:"h2" ~tau:60. ~k:16 ~p:0.2 ());
  feed_random st ~names:[ "h1"; "h2" ] ~records:2000 ~keys:250 ~seed:23;
  Store.flush st;
  st

let of_string_exn s =
  match Snapshot.of_string_r s with
  | Ok st -> st
  | Error e ->
      Alcotest.failf "snapshot parse: line %d: %s" e.Sampling.Io.line
        e.Sampling.Io.message

let test_snapshot_roundtrip () =
  let st = populated_store () in
  let s = Snapshot.to_string st in
  let st2 = of_string_exn s in
  Alcotest.(check string) "byte-identical round trip" s
    (Snapshot.to_string st2);
  Alcotest.(check bool) "query summaries identical after reload" true
    (preserved_summaries_of st = preserved_summaries_of st2)

let test_snapshot_requery_identical () =
  let st = populated_store () in
  let e = Engine.create st in
  let st2 = of_string_exn (Snapshot.to_string st) in
  let e2 = Engine.create st2 in
  List.iter
    (fun (kind, names) ->
      match (Engine.query e kind names, Engine.query e2 kind names) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (P.query_kind_name kind ^ " identical after reload")
            a b
      | _ -> Alcotest.fail "query failed")
    [ (P.Max, [ "h1"; "h2" ]); (P.Or, [ "h1"; "h2" ]);
      (P.Distinct, [ "h1"; "h2" ]); (P.Dominance, [ "h1"; "h2" ]) ]

let test_snapshot_guards () =
  let st = populated_store () in
  let s = Snapshot.to_string st in
  let lines = String.split_on_char '\n' s in
  let fail_parse msg s =
    match Snapshot.of_string_r s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
    | Error e ->
        Alcotest.(check bool) (msg ^ " carries a message") true
          (String.length e.Sampling.Io.message > 0)
  in
  fail_parse "bad magic" ("bogus 1\n" ^ String.concat "\n" (List.tl lines));
  fail_parse "trailing garbage" (s ^ "junk\n");
  (* Drop the final [end] marker: truncated input. *)
  let no_end =
    let rec drop_last_end acc = function
      | [] -> List.rev acc
      | [ "end"; "" ] -> List.rev acc @ [ "" ]
      | x :: rest -> drop_last_end (x :: acc) rest
    in
    String.concat "\n" (drop_last_end [] lines)
  in
  fail_parse "truncated" no_end;
  (* Duplicate the first entry line of the first instance section. *)
  let dup =
    let rec dup_first_entry seen_instance = function
      | [] -> []
      | x :: rest ->
          if seen_instance && String.length x > 0 && x.[0] <> '#'
             && not (String.length x >= 3 && String.sub x 0 3 = "end")
          then x :: x :: rest
          else
            x
            :: dup_first_entry
                 (seen_instance
                 || String.length x >= 8 && String.sub x 0 8 = "summary ")
                 rest
    in
    String.concat "\n" (dup_first_entry false lines)
  in
  fail_parse "duplicate key" dup

let test_snapshot_file_io () =
  let st = populated_store () in
  let path = Filename.temp_file "store" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Snapshot.write st ~path with
      | Ok n -> Alcotest.(check int) "instances written" 2 n
      | Error m -> Alcotest.failf "write: %s" m);
      match Snapshot.load path with
      | Ok st2 ->
          Alcotest.(check bool)
            "query summaries identical after file reload" true
            (preserved_summaries_of st = preserved_summaries_of st2)
      | Error e -> Alcotest.failf "load: %s" e.Sampling.Io.message)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_session_verbs () =
  let e = Engine.create (Store.create cfg_one) in
  let resp, act = Engine.handle_line e "CREATE h1 tau=50 k=8 p=0.5" in
  Alcotest.(check bool) "create ok" true (P.json_ok resp);
  Alcotest.(check bool) "create continues" true (act = Engine.Continue);
  let resp, _ = Engine.handle_line e "CREATE h1" in
  Alcotest.(check bool) "duplicate create rejected" false (P.json_ok resp);
  let resp, _ = Engine.handle_line e "INGEST h1 3 2.5" in
  Alcotest.(check bool) "ingest ok" true (P.json_ok resp);
  (* Batched framing is connection-level: a bare INGESTN header reaching
     the request dispatcher (no body collection in front of it) is
     answered as an error, not silently dropped. *)
  let resp, act = Engine.handle_line e "INGESTN h1 4" in
  Alcotest.(check bool) "bare INGESTN header rejected" false (P.json_ok resp);
  Alcotest.(check bool) "ingestn error continues" true (act = Engine.Continue);
  let resp = Engine.handle_ingest_many e ~name:"h1" [| (5, 1.5); (6, 2.5) |] in
  Alcotest.(check bool) "handle_ingest_many ok" true (P.json_ok resp);
  Alcotest.(check (option string)) "ingested count" (Some "2")
    (P.json_field "ingested" resp);
  let resp, _ = Engine.handle_line e "FLUSH" in
  Alcotest.(check bool) "flush ok" true (P.json_ok resp);
  Alcotest.(check (option string)) "flush reports empty mailboxes"
    (Some "0")
    (P.json_field "pending" resp);
  let resp, _ = Engine.handle_line e "STATS" in
  Alcotest.(check bool) "stats ok" true (P.json_ok resp);
  let resp, _ = Engine.handle_line e "QUERY max h1 nope" in
  Alcotest.(check bool) "unknown instance rejected" false (P.json_ok resp);
  let resp, _ = Engine.handle_line e "NONSENSE" in
  Alcotest.(check bool) "malformed line answered" false (P.json_ok resp);
  let _, act = Engine.handle_line e "QUIT" in
  Alcotest.(check bool) "quit closes" true (act = Engine.Close);
  let _, act = Engine.handle_line e "SHUTDOWN" in
  Alcotest.(check bool) "shutdown stops" true (act = Engine.Stop);
  let resp, act = Engine.handle_line e "HELLO 1" in
  Alcotest.(check bool) "hello ok" true (P.json_ok resp);
  Alcotest.(check bool) "hello continues" true (act = Engine.Continue)

let float_field_exn msg field line =
  match P.json_float_field field line with
  | Some v -> v
  | None -> Alcotest.failf "%s: field %s missing in %s" msg field line

(* The machine-derived OR table under order^(L) must reproduce the
   closed-form OR^(L) estimate (that is what order_l encodes). *)
let test_engine_or_designer_matches_closed_form () =
  let st = populated_store () in
  let e = Engine.create st in
  match Engine.query e P.Or [ "h1"; "h2" ] with
  | Error m -> Alcotest.failf "or query: %s" m
  | Ok resp ->
      Alcotest.(check (option string)) "designer provenance"
        (Some "designer")
        (P.json_field "provenance" resp);
      let est = float_field_exn "or" "estimate" resp in
      let closed = float_field_exn "or" "closed_form" resp in
      check_float "table equals closed form" closed est;
      Alcotest.(check (option string)) "no degradations" (Some "0")
        (P.json_field "degradations" resp)

module ISet = Set.Make (Int)

(* Reference OR^(L) sum: per-key hashtable lookups on freshly built
   (below, sampled) keys, with seeds recomputed at the instances'
   recorded ids — the oracle the flat serving walk is held to. *)
let eval_or_table table seeds ~ids:(id1, id2) ~p1 ~p2 ~s1 ~s2 =
  let set1 = ISet.of_list s1 and set2 = ISet.of_list s2 in
  ISet.fold
    (fun h acc ->
      let u1 = Sampling.Seeds.seed seeds ~instance:id1 ~key:h in
      let u2 = Sampling.Seeds.seed seeds ~instance:id2 ~key:h in
      let key =
        ([| u1 <= p1; u2 <= p2 |], [| ISet.mem h set1; ISet.mem h set2 |])
      in
      acc +. Estcore.Designer.lookup table key)
    (ISet.union set1 set2)
    0.

(* The engine now serves [QUERY or] through the flattened 16-cell
   Or_weighted table. The flat walk must return the same bits as the
   hashtable oracle it replaced, on every (ids, sampled-sets) shape —
   and its per-key reads must allocate nothing. *)
let test_engine_or_flat_matches_table () =
  let p1 = 0.4 and p2 = 0.7 in
  match Engine.or_flat_tables ~p1 ~p2 with
  | Error m -> Alcotest.failf "derive: %s" m
  | Ok (table, flat) ->
      List.iter
        (fun master ->
          let seeds =
            Sampling.Seeds.create ~master Sampling.Seeds.Independent
          in
          List.iter
            (fun ((id1, id2) as ids) ->
              (* Well-formed binary outcomes only: key h is sampled in an
                 instance iff its value there is 1 AND its recomputed seed
                 is below p — the oracle's table has no rows for anything
                 else (and the engine can never produce anything else). *)
              let keys = List.init 12 (fun i -> i + 1) in
              let sampled id p v1 =
                List.filter
                  (fun h ->
                    v1 h
                    && Sampling.Seeds.seed seeds ~instance:id ~key:h <= p)
                  keys
              in
              let s1 = sampled id1 p1 (fun h -> h mod 2 = 0) in
              let s2 = sampled id2 p2 (fun h -> h mod 3 <> 0) in
              List.iter
                (fun (s1, s2) ->
                  let oracle =
                    eval_or_table table seeds ~ids ~p1 ~p2 ~s1 ~s2
                  in
                  let served =
                    snd
                      (Aggregates.Distinct.classify_columns ~table:flat seeds
                         ~ids ~p1 ~p2 (Aggregates.Column.of_keys s1)
                         (Aggregates.Column.of_keys s2)
                         ~select:(fun _ -> true))
                  in
                  if Int64.bits_of_float oracle <> Int64.bits_of_float served
                  then
                    Alcotest.failf
                      "flat OR serving differs: oracle %.17g vs flat %.17g"
                      oracle served)
                [ ([], []); (s1, []); ([], s2); (s1, s2) ])
            [ (0, 1); (3, 8) ])
        [ 7; 11; 13 ];
      let acc = Float.Array.make 1 0. in
      let code =
        Estcore.Or_weighted.Table.code ~b0:true ~b1:false ~s0:true ~s1:false
      in
      Allocheck.assert_no_alloc "Or_weighted.Table.eval_into" (fun () ->
          Estcore.Or_weighted.Table.eval_into flat ~code ~dst:acc ~di:0);
      Allocheck.assert_no_alloc "Or_weighted.Table.add_into" (fun () ->
          Estcore.Or_weighted.Table.add_into flat ~code acc)

(* Regression: [Sum_agg.key_outcome] must recompute seeds at the
   samples' recorded instance ids, not their array positions — live
   server instances are not numbered 0..r-1. *)
let test_sum_agg_recorded_ids () =
  let seeds = Sampling.Seeds.create ~master:31 Sampling.Seeds.Independent in
  let a = I.of_assoc [ (1, 50.); (2, 3.); (5, 20.) ] in
  let b = I.of_assoc [ (1, 8.); (3, 45.); (5, 12.) ] in
  let tau = 25. in
  let ps =
    {
      Aggregates.Sum_agg.seeds;
      taus = [| tau; tau |];
      samples =
        [|
          Sampling.Poisson.pps_sample seeds ~instance:3 ~tau a;
          Sampling.Poisson.pps_sample seeds ~instance:7 ~tau b;
        |];
    }
  in
  List.iter
    (fun h ->
      let o = Aggregates.Sum_agg.key_outcome ps h in
      check_float ~eps:0. "seed recomputed at id 3"
        (Sampling.Seeds.seed seeds ~instance:3 ~key:h)
        o.Sampling.Outcome.Pps.seeds.(0);
      check_float ~eps:0. "seed recomputed at id 7"
        (Sampling.Seeds.seed seeds ~instance:7 ~key:h)
        o.Sampling.Outcome.Pps.seeds.(1))
    (I.union_keys [ a; b ])

(* ------------------------------------------------------------------ *)
(* Similarity queries (the Monotone L* engine behind QUERY jaccard/...) *)
(* ------------------------------------------------------------------ *)

let shared_store () =
  let st =
    Store.create
      {
        Store.default_config with
        master = 808;
        flush_every = 1024;
        mode = Sampling.Seeds.Shared;
      }
  in
  ignore (create_exn st ~name:"h1" ~tau:40. ~k:16 ~p:0.3 ());
  ignore (create_exn st ~name:"h2" ~tau:60. ~k:16 ~p:0.2 ());
  feed_random st ~names:[ "h1"; "h2" ] ~records:2000 ~keys:250 ~seed:23;
  Store.flush st;
  st

(* The served estimates must equal the oracle similarity sums run on
   the store's own samples — the engine's walk is just a faster
   spelling of that sum. *)
let test_engine_similarity_queries () =
  let st = shared_store () in
  let e = Engine.create st in
  let insts =
    List.map
      (fun n ->
        match Store.find st n with
        | Some i -> i
        | None -> Alcotest.failf "instance %s missing" n)
      [ "h1"; "h2" ]
  in
  let ps =
    {
      Aggregates.Sum_agg.seeds = Store.seeds st;
      taus =
        Array.of_list
          (List.map (fun i -> (Store.instance_config i).Store.tau) insts);
      samples = Array.of_list (List.map pps_sample insts);
    }
  in
  let s = Agg_oracle.similarity_sums ps ~select:(fun _ -> true) in
  Alcotest.(check bool) "data produces a real union" true
    (s.Aggregates.Similarity.union_hat > 0.);
  List.iter
    (fun (kind, name, expected) ->
      match Engine.query e kind [ "h1"; "h2" ] with
      | Error m -> Alcotest.failf "%s query: %s" name m
      | Ok resp ->
          Alcotest.(check (option string))
            (name ^ " estimator name")
            (Some (name ^ "-lstar"))
            (P.json_field "estimator" resp);
          check_float ~eps:0.
            (name ^ " equals reference sums")
            expected
            (float_field_exn name "estimate" resp);
          check_float ~eps:0. (name ^ " union field")
            s.Aggregates.Similarity.union_hat
            (float_field_exn name "union" resp);
          check_float ~eps:0.
            (name ^ " intersection field")
            s.Aggregates.Similarity.inter_hat
            (float_field_exn name "intersection" resp))
    [
      (P.Union, "union", s.Aggregates.Similarity.union_hat);
      (P.Intersection, "intersection", s.Aggregates.Similarity.inter_hat);
      (P.Jaccard, "jaccard", Aggregates.Similarity.jaccard s);
      (P.L1, "l1", Aggregates.Similarity.l1 s);
    ]

(* Every refusal on the similarity path is a structured bad_request: the
   independent-seed store (where the estimate would be silently biased),
   the wrong l1 arity, unknown instances, and unknown query kinds at the
   parse layer. None of them may drop the session. *)
let test_engine_similarity_guards () =
  let bad_request resp =
    Alcotest.(check bool) "answered not-ok" false (P.json_ok resp);
    Alcotest.(check (option string)) "kind is bad_request"
      (Some "bad_request")
      (P.json_field "kind" resp)
  in
  let indep = Engine.create (populated_store ()) in
  let resp, act = Engine.handle_line indep "QUERY jaccard h1 h2" in
  bad_request resp;
  Alcotest.(check bool) "session continues" true (act = Engine.Continue);
  let shared = Engine.create (shared_store ()) in
  (match Engine.query shared P.Jaccard [ "h1"; "h2" ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shared-store jaccard refused: %s" m);
  let resp, _ = Engine.handle_line shared "QUERY l1 h1 h2 h1" in
  bad_request resp;
  let resp, _ = Engine.handle_line shared "QUERY union h1 nope" in
  bad_request resp;
  let resp, _ = Engine.handle_line shared "QUERY frobnicate h1 h2" in
  bad_request resp;
  let resp, _ = Engine.handle_line shared "NONSENSE" in
  bad_request resp

(* ------------------------------------------------------------------ *)
(* The query table on shared seeds                                     *)
(* ------------------------------------------------------------------ *)

let instances_of st names =
  List.map
    (fun n ->
      match Store.find st n with
      | Some i -> i
      | None -> Alcotest.failf "instance %s missing" n)
    names

(* Three shared-seed instances at one sampling probability [p]: the
   coordinated distinct count needs a common p. *)
let coordinated_p = 0.25

let coordinated_store () =
  let st =
    Store.create
      {
        Store.default_config with
        master = 909;
        flush_every = 1024;
        mode = Sampling.Seeds.Shared;
      }
  in
  List.iter
    (fun (name, tau) ->
      ignore (create_exn st ~name ~tau ~k:16 ~p:coordinated_p ()))
    [ ("h1", 40.); ("h2", 60.); ("h3", 50.) ];
  feed_random st ~names:[ "h1"; "h2"; "h3" ] ~records:3000 ~keys:300 ~seed:29;
  Store.flush st;
  st

(* Shared seeds: max and dominance answer the weighted-union L* sum of
   the similarity walk, and or / distinct the coordinated count
   |S1 ∪ … ∪ Sr| / p, at r = 2 and r = 3. *)
let test_engine_shared_seed_rows () =
  let st = coordinated_store () in
  let e = Engine.create st in
  let answer kind names =
    match Engine.query e kind names with
    | Ok resp -> resp
    | Error m ->
        Alcotest.failf "%s query: %s" (P.query_kind_name kind) m
  in
  let rename ~from ~into resp =
    Str.global_replace (Str.regexp_string from) into resp
  in
  List.iter
    (fun names ->
      let insts = instances_of st names in
      let r = List.length names in
      let max_resp = answer P.Max names in
      Alcotest.(check string)
        (Printf.sprintf "max equals union byte for byte (r = %d)" r)
        (answer P.Union names)
        (max_resp
        |> rename ~from:{|"kind":"max"|} ~into:{|"kind":"union"|}
        |> rename ~from:{|"estimator":"max-lstar"|}
             ~into:{|"estimator":"union-lstar"|});
      let ps =
        {
          Aggregates.Sum_agg.seeds = Store.seeds st;
          taus =
            Array.of_list
              (List.map (fun i -> (Store.instance_config i).Store.tau) insts);
          samples = Array.of_list (List.map pps_sample insts);
        }
      in
      let s = Agg_oracle.similarity_sums ps ~select:(fun _ -> true) in
      let dom = answer P.Dominance names in
      Alcotest.(check (option string)) "dominance estimator"
        (Some "maxdom-lstar")
        (P.json_field "estimator" dom);
      check_float ~eps:0. "dominance estimate is the reference union sum"
        s.Aggregates.Similarity.union_hat
        (float_field_exn "dominance" "estimate" dom);
      check_float ~eps:0. "dominance union field"
        s.Aggregates.Similarity.union_hat
        (float_field_exn "dominance" "union" dom);
      check_float ~eps:0. "dominance min is the reference intersection sum"
        s.Aggregates.Similarity.inter_hat
        (float_field_exn "dominance" "intersection" dom);
      let sampled =
        List.fold_left
          (fun acc i -> ISet.union acc (ISet.of_list (binary_sample i)))
          ISet.empty insts
      in
      let expected = float_of_int (ISet.cardinal sampled) /. coordinated_p in
      List.iter
        (fun (kind, estimator) ->
          let resp = answer kind names in
          Alcotest.(check (option string))
            (estimator ^ " estimator") (Some estimator)
            (P.json_field "estimator" resp);
          check_float ~eps:0.
            (Printf.sprintf "%s = |union of samples| / p (r = %d)" estimator r)
            expected
            (float_field_exn estimator "estimate" resp))
        [ (P.Or, "or-coordinated"); (P.Distinct, "distinct-coordinated") ])
    [ [ "h1"; "h2" ]; [ "h1"; "h2"; "h3" ] ]

(* Shared-seed or / distinct over instances sampled at different p have
   no single inclusion probability: the table refuses with a structured
   bad_request naming both values, and the session carries on. *)
let test_engine_shared_unequal_p_refused () =
  let e = Engine.create (shared_store ()) in
  List.iter
    (fun kind ->
      let resp, act = Engine.handle_line e ("QUERY " ^ kind ^ " h1 h2") in
      Alcotest.(check bool) (kind ^ " answered not-ok") false (P.json_ok resp);
      Alcotest.(check (option string)) (kind ^ " is bad_request")
        (Some "bad_request")
        (P.json_field "kind" resp);
      Alcotest.(check (option string)) (kind ^ " refusal names both p")
        (Some
           (kind
          ^ "-coordinated needs one sampling probability across its \
             instances: h1 has p=0.3, h2 has p=0.2"))
        (P.json_field "error" resp);
      Alcotest.(check bool) (kind ^ ": session continues") true
        (act = Engine.Continue);
      let resp, _ = Engine.handle_line e "QUERY max h1 h2" in
      Alcotest.(check bool) "next query answered" true (P.json_ok resp))
    [ "or"; "distinct" ]

(* Unbiasedness of the shared-seed rows. The data is fixed; only the
   store's master seed varies, over 200 seeds. Each answer's mean must
   lie within 4 standard errors of the exact aggregate (Σmax for max and
   dominance, the distinct-key count for or and distinct), a bound an
   unbiased estimator misses with probability about 6e-5 per check. *)
let test_engine_shared_seed_unbiased () =
  (* (name, tau, records): weights below tau make most inclusions
     random; h1 and h2 overlap on keys 51..100, h3 on a stride of 3. *)
  let data =
    [ ( "h1", 40.,
        List.init 100 (fun i -> (i + 1, float_of_int (1 + (i * 37 mod 50)))) );
      ( "h2", 60.,
        List.init 100 (fun i -> (i + 51, float_of_int (1 + (i * 53 mod 60)))) );
      ( "h3", 50.,
        List.init 60 (fun i -> ((i * 3) + 1, float_of_int (2 + (i * 11 mod 45))))
      ) ]
  in
  let exact names =
    let best = Hashtbl.create 256 in
    List.iter
      (fun (name, _, kv) ->
        if List.mem name names then
          List.iter
            (fun (k, v) ->
              let old = Option.value ~default:0. (Hashtbl.find_opt best k) in
              Hashtbl.replace best k (Float.max old v))
            kv)
      data;
    ( Hashtbl.fold (fun _ v acc -> acc +. v) best 0.,
      float_of_int (Hashtbl.length best) )
  in
  let shapes = [ [ "h1"; "h2" ]; [ "h1"; "h2"; "h3" ] ] in
  let kinds = [ P.Max; P.Dominance; P.Or; P.Distinct ] in
  let accs =
    List.map
      (fun names ->
        (names, List.map (fun k -> (k, Numerics.Stats.Acc.create ())) kinds))
      shapes
  in
  for master = 1 to 200 do
    let st =
      Store.create
        { Store.default_config with master; mode = Sampling.Seeds.Shared }
    in
    List.iter
      (fun (name, tau, kv) ->
        ignore (create_exn st ~name ~tau ~k:16 ~p:coordinated_p ());
        List.iter (fun (key, weight) -> ingest_exn st ~name ~key ~weight) kv)
      data;
    Store.flush st;
    let e = Engine.create st in
    List.iter
      (fun (names, per_kind) ->
        List.iter
          (fun (kind, acc) ->
            match Engine.query e kind names with
            | Ok resp ->
                Numerics.Stats.Acc.add acc (float_field_exn "mc" "estimate" resp)
            | Error m -> Alcotest.failf "master %d: %s" master m)
          per_kind)
      accs
  done;
  List.iter
    (fun (names, per_kind) ->
      let smax, distinct = exact names in
      List.iter
        (fun (kind, acc) ->
          let truth =
            match kind with P.Or | P.Distinct -> distinct | _ -> smax
          in
          let mean = Numerics.Stats.Acc.mean acc in
          let se = Numerics.Stats.Acc.stderr acc in
          Alcotest.(check bool)
            (Printf.sprintf "%s over %s is random" (P.query_kind_name kind)
               (String.concat "," names))
            true (se > 0.);
          if Float.abs (mean -. truth) > 4. *. se then
            Alcotest.failf "%s over %s: mean %.6g vs exact %.6g (%.2f se)"
              (P.query_kind_name kind) (String.concat "," names) mean truth
              ((mean -. truth) /. se))
        per_kind)
    accs

(* ------------------------------------------------------------------ *)
(* End to end: daemon + client over TCP                                *)
(* ------------------------------------------------------------------ *)

let request_exn c line =
  match Server.Client.request c line with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "request %S: %s" line m

let ok_exn c line =
  let resp = request_exn c line in
  if not (P.json_ok resp) then
    Alcotest.failf "request %S answered %s" line resp;
  resp

let e2e_params =
  { Workload.Traffic.default with n_shared = 4000; n_only = 2000; seed = 71 }

let e2e_master = 4242
let e2e_tau = 500.
let e2e_p = 0.2

(* Batch reference answers: materialize the same two hours, sample them
   with the same recorded seeds, and run the offline pipeline. *)
let batch_reference () =
  let a =
    Workload.Traffic.Stream.to_instance
      (Workload.Traffic.Stream.create ~hour:1 e2e_params)
  in
  let b =
    Workload.Traffic.Stream.to_instance
      (Workload.Traffic.Stream.create ~hour:2 e2e_params)
  in
  let seeds =
    Sampling.Seeds.create ~master:e2e_master Sampling.Seeds.Independent
  in
  let ps =
    {
      Aggregates.Sum_agg.seeds;
      taus = [| e2e_tau; e2e_tau |];
      samples =
        [|
          Sampling.Poisson.pps_sample seeds ~instance:0 ~tau:e2e_tau a;
          Sampling.Poisson.pps_sample seeds ~instance:1 ~tau:e2e_tau b;
        |];
    }
  in
  let select = fun (_ : int) -> true in
  let max_l =
    Agg_oracle.estimate ps ~est:Estcore.Max_pps.l ~select
  in
  let s1 = Aggregates.Distinct.sample_binary seeds ~p:e2e_p ~instance:0 a in
  let s2 = Aggregates.Distinct.sample_binary seeds ~p:e2e_p ~instance:1 b in
  let classes =
    Aggregates.Distinct.classify seeds ~p1:e2e_p ~p2:e2e_p ~s1 ~s2 ~select
  in
  let distinct_l =
    Aggregates.Distinct.l_estimate classes ~p1:e2e_p ~p2:e2e_p
  in
  (max_l, distinct_l)

let test_e2e_daemon () =
  let st =
    Store.create
      { Store.default_config with master = e2e_master; flush_every = 4096 }
  in
  let daemon = Server.Daemon.start (Engine.create st) in
  let connect () =
    match Server.Client.connect_tcp ~port:(Server.Daemon.port daemon) () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  let c = connect () in
  ignore (ok_exn c "HELLO 1");
  let create_line name =
    Printf.sprintf "CREATE %s tau=%g k=256 p=%g" name e2e_tau e2e_p
  in
  ignore (ok_exn c (create_line "h1"));
  ignore (ok_exn c (create_line "h2"));
  (* A malformed line and a bad ingest answer with errors and leave the
     session usable. *)
  Alcotest.(check bool) "malformed line answered" false
    (P.json_ok (request_exn c "NONSENSE"));
  Alcotest.(check bool) "bad weight rejected" false
    (P.json_ok (request_exn c "INGEST h1 1 -3"));
  (* Replay both hours — 12,000 records across the two instances. *)
  let ingest name stream =
    Workload.Traffic.Stream.fold
      (fun n ~key ~weight ->
        ignore (ok_exn c (Printf.sprintf "INGEST %s %d %.17g" name key weight));
        n + 1)
      0 stream
  in
  let n1 = ingest "h1" (Workload.Traffic.Stream.create ~hour:1 e2e_params) in
  let n2 = ingest "h2" (Workload.Traffic.Stream.create ~hour:2 e2e_params) in
  Alcotest.(check bool) "at least 10k records" true (n1 + n2 >= 10_000);
  let q_max = ok_exn c "QUERY max h1 h2" in
  let q_or = ok_exn c "QUERY or h1 h2" in
  let q_distinct = ok_exn c "QUERY distinct h1 h2" in
  let max_l, distinct_l = batch_reference () in
  check_float "server max equals batch pipeline" max_l
    (float_field_exn "max" "estimate" q_max);
  check_float "server or equals batch pipeline" distinct_l
    (float_field_exn "or" "estimate" q_or);
  check_float "server distinct equals batch pipeline" distinct_l
    (float_field_exn "distinct" "estimate" q_distinct);
  let stats = ok_exn c "STATS" in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec find i =
      i + n <= h && (String.sub hay i n = needle || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "stats mentions both instances" true
    (contains "\"h1\"" stats && contains "\"h2\"" stats);
  (* Snapshot, stop the daemon, reload warm, and re-query: answers must
     be identical. *)
  let path = Filename.temp_file "daemon" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (ok_exn c ("SNAPSHOT " ^ path));
      ignore (ok_exn c "SHUTDOWN");
      Server.Client.close c;
      Server.Daemon.join daemon;
      let st2 =
        match Snapshot.load path with
        | Ok st2 -> st2
        | Error e -> Alcotest.failf "reload: %s" e.Sampling.Io.message
      in
      let daemon2 = Server.Daemon.start (Engine.create st2) in
      let c2 =
        match
          Server.Client.connect_tcp ~port:(Server.Daemon.port daemon2) ()
        with
        | Ok c2 -> c2
        | Error m -> Alcotest.failf "reconnect: %s" m
      in
      List.iter
        (fun (q, before) ->
          Alcotest.(check string)
            (q ^ " identical after warm restart")
            before (ok_exn c2 q))
        [ ("QUERY max h1 h2", q_max); ("QUERY or h1 h2", q_or);
          ("QUERY distinct h1 h2", q_distinct) ];
      ignore (ok_exn c2 "SHUTDOWN");
      Server.Client.close c2;
      Server.Daemon.join daemon2)

(* ------------------------------------------------------------------ *)
(* Event loop: concurrency, backpressure, batching                     *)
(* ------------------------------------------------------------------ *)

(* 64 concurrent connections (8 domains x 8 sockets, interleaved at the
   select loop) must leave the store bit-identical to one sequential
   client replaying the same per-connection streams: every connection
   owns its instance, so per-instance arrival order — the only order
   that matters — is fixed by construction, and the event loop must not
   corrupt, drop or cross-deliver a single line. *)
let test_e2e_concurrent_identical () =
  let n_conns = 64 and n_domains = 8 and per_conn = 120 in
  let stream cid =
    let rng = Numerics.Prng.create ~seed:(900 + cid) () in
    Array.init per_conn (fun _ ->
        (1 + Numerics.Prng.int rng 512, 0.25 +. (Numerics.Prng.float rng *. 8.)))
  in
  let run ~concurrent =
    let st =
      Store.create
        { Store.default_config with master = 77; flush_every = 4096 }
    in
    let daemon = Server.Daemon.start (Engine.create st) in
    let port = Server.Daemon.port daemon in
    let connect () =
      match Server.Client.connect_tcp ~port () with
      | Ok c -> c
      | Error m -> Alcotest.failf "connect: %s" m
    in
    (* Instance ids are assigned in creation order, so all creation goes
       through one setup connection before any traffic. *)
    let setup = connect () in
    for cid = 0 to n_conns - 1 do
      ignore
        (ok_exn setup (Printf.sprintf "CREATE c%d tau=200 k=64 p=0.15" cid))
    done;
    let send c cid (key, weight) =
      ignore (ok_exn c (Printf.sprintf "INGEST c%d %d %h" cid key weight))
    in
    (if concurrent then
       let worker d () =
         let width = n_conns / n_domains in
         let conns =
           List.init width (fun j ->
               let cid = (d * width) + j in
               (connect (), cid, stream cid))
         in
         for r = 0 to per_conn - 1 do
           List.iter (fun (c, cid, recs) -> send c cid recs.(r)) conns
         done;
         List.iter
           (fun (c, _, _) ->
             ignore (ok_exn c "QUIT");
             Server.Client.close c)
           conns
       in
       List.init n_domains (fun d -> Domain.spawn (worker d))
       |> List.iter Domain.join
     else
       for cid = 0 to n_conns - 1 do
         let c = connect () in
         Array.iter (send c cid) (stream cid);
         ignore (ok_exn c "QUIT");
         Server.Client.close c
       done);
    ignore (ok_exn setup "FLUSH");
    let answers =
      List.init (n_conns / 2) (fun i ->
          ok_exn setup
            (Printf.sprintf "QUERY max c%d c%d" (2 * i) ((2 * i) + 1)))
    in
    ignore (ok_exn setup "SHUTDOWN");
    Server.Client.close setup;
    Server.Daemon.join daemon;
    answers
  in
  Alcotest.(check (list string))
    "64 concurrent connections bit-identical to sequential"
    (run ~concurrent:false) (run ~concurrent:true)

(* A reader that stops draining its socket must not stall anyone else:
   once its queued responses cross the high-water mark the loop parks
   that connection (stops reading more requests from it) while other
   sessions keep getting answers — and every queued response is still
   delivered, in order, when the slow reader catches up. *)
let test_e2e_slow_reader_backpressure () =
  let st =
    Store.create { Store.default_config with master = 5; flush_every = 4096 }
  in
  let config =
    { Server.Daemon.default_config with Server.Daemon.write_highwater = 2048 }
  in
  let daemon = Server.Daemon.start ~config (Engine.create st) in
  let port = Server.Daemon.port daemon in
  let setup =
    match Server.Client.connect_tcp ~port () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  (* Enough instances that one STATS response dwarfs the high-water
     mark. *)
  for i = 1 to 48 do
    ignore (ok_exn setup (Printf.sprintf "CREATE s%d tau=50 k=16 p=0.2" i))
  done;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let slow = P.Conn.of_fd fd in
  (match P.Conn.input_line_opt slow with
  | Some g when P.json_ok g -> ()
  | _ -> Alcotest.fail "greeting");
  let n_requests = 400 in
  for _ = 1 to n_requests do
    P.Conn.output_line slow "STATS"
  done;
  (* The slow reader's responses are now queued (kernel buffers plus the
     daemon's bounded write queue); a well-behaved session still gets
     every answer. *)
  for _ = 1 to 25 do
    ignore (ok_exn setup "STATS")
  done;
  (* Catching up delivers every queued response, none dropped or torn. *)
  for i = 1 to n_requests do
    match P.Conn.input_line_opt slow with
    | Some resp when P.json_ok resp -> ()
    | Some resp -> Alcotest.failf "response %d not ok: %s" i resp
    | None -> Alcotest.failf "connection dropped after %d responses" (i - 1)
  done;
  ignore (ok_exn setup "SHUTDOWN");
  P.Conn.close slow;
  Server.Client.close setup;
  Server.Daemon.join daemon

(* Batched and line-at-a-time ingest land bit-identical state: same
   records, same arrival order, one frame vs many. Covers chunking too —
   the stream is longer than Protocol.max_batch. *)
let test_e2e_client_batch_identical () =
  let n_records = (2 * P.max_batch) + 300 in
  let recs seed =
    let rng = Numerics.Prng.create ~seed () in
    Array.init n_records (fun _ ->
        (1 + Numerics.Prng.int rng 1024, 0.5 +. (Numerics.Prng.float rng *. 20.)))
  in
  let run ~batched =
    let st =
      Store.create
        { Store.default_config with master = 909; flush_every = 8192 }
    in
    let daemon = Server.Daemon.start (Engine.create st) in
    let c =
      match Server.Client.connect_tcp ~port:(Server.Daemon.port daemon) () with
      | Ok c -> c
      | Error m -> Alcotest.failf "connect: %s" m
    in
    List.iter
      (fun name ->
        ignore (ok_exn c (Printf.sprintf "CREATE %s tau=300 k=96 p=0.1" name)))
      [ "a"; "b" ];
    List.iter
      (fun (name, seed) ->
        if batched then begin
          match Server.Client.ingest_many c ~name (recs seed) with
          | Ok resp ->
              if not (P.json_ok resp) then
                Alcotest.failf "ingest_many answered %s" resp;
              Alcotest.(check (option string)) "total ingested reported"
                (Some (string_of_int n_records))
                (P.json_field "ingested" resp)
          | Error m -> Alcotest.failf "ingest_many: %s" m
        end
        else
          Array.iter
            (fun (key, weight) ->
              ignore
                (ok_exn c (Printf.sprintf "INGEST %s %d %h" name key weight)))
            (recs seed))
      [ ("a", 31); ("b", 32) ];
    ignore (ok_exn c "FLUSH");
    let answers =
      List.map
        (fun q -> ok_exn c (Printf.sprintf "QUERY %s a b" q))
        [ "max"; "or"; "distinct"; "dominance" ]
    in
    ignore (ok_exn c "SHUTDOWN");
    Server.Client.close c;
    Server.Daemon.join daemon;
    answers
  in
  Alcotest.(check (list string)) "batched ingest bit-identical to lines"
    (run ~batched:false) (run ~batched:true)

(* The daemon's INGESTN rejection points at the offending body line by
   number — and the whole batch is refused (all-or-nothing), leaving the
   session usable. *)
let test_e2e_batch_line_diagnostic () =
  let st =
    Store.create { Store.default_config with master = 13; flush_every = 4096 }
  in
  let daemon = Server.Daemon.start (Engine.create st) in
  let port = Server.Daemon.port daemon in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let conn = P.Conn.of_fd fd in
  (match P.Conn.input_line_opt conn with
  | Some g when P.json_ok g -> ()
  | _ -> Alcotest.fail "greeting");
  let roundtrip line =
    P.Conn.output_line conn line;
    match P.Conn.input_line_opt conn with
    | Some resp -> resp
    | None -> Alcotest.fail "connection dropped"
  in
  if not (P.json_ok (roundtrip "CREATE h1 tau=50 k=16 p=0.2")) then
    Alcotest.fail "create failed";
  (* Third body line is bad: the response must say "line 3". *)
  P.Conn.output_line conn "INGESTN h1 4";
  P.Conn.output_line conn "1 0x1p0";
  P.Conn.output_line conn "2 0x1p0";
  P.Conn.output_line conn "3 nan";
  let resp = roundtrip "4 0x1p0" in
  Alcotest.(check bool) "bad batch rejected" false (P.json_ok resp);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
    find 0
  in
  Alcotest.(check bool) "diagnostic names body line 3" true
    (contains "line 3" resp);
  (* Nothing of the batch landed, and the session still works. *)
  let stats = roundtrip "STATS" in
  Alcotest.(check bool) "stats ok after rejected batch" true (P.json_ok stats);
  Alcotest.(check bool) "no record admitted from the bad batch" true
    (contains "\"records\":0" stats);
  ignore (roundtrip "SHUTDOWN");
  P.Conn.close conn;
  Server.Daemon.join daemon

(* Regression: an unknown verb or query kind over the wire must be
   answered with a structured bad_request on the same connection — a
   typo must not cost the session. *)
let test_e2e_unknown_verb_keeps_connection () =
  let st =
    Store.create { Store.default_config with master = 21; flush_every = 4096 }
  in
  let daemon = Server.Daemon.start (Engine.create st) in
  let port = Server.Daemon.port daemon in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let conn = P.Conn.of_fd fd in
  (match P.Conn.input_line_opt conn with
  | Some g when P.json_ok g -> ()
  | _ -> Alcotest.fail "greeting");
  let roundtrip line =
    P.Conn.output_line conn line;
    match P.Conn.input_line_opt conn with
    | Some resp -> resp
    | None -> Alcotest.failf "connection dropped after %S" line
  in
  if not (P.json_ok (roundtrip "CREATE h1 tau=50 k=16 p=0.2")) then
    Alcotest.fail "create failed";
  List.iter
    (fun line ->
      let resp = roundtrip line in
      Alcotest.(check bool) (line ^ " answered not-ok") false (P.json_ok resp);
      Alcotest.(check (option string)) (line ^ " kind") (Some "bad_request")
        (P.json_field "kind" resp))
    [ "FROBNICATE now"; "QUERY frobnicate h1"; "QUERY jaccard h1 h1" ];
  (* jaccard above: independent-seed store — same structured refusal. *)
  let stats = roundtrip "STATS" in
  Alcotest.(check bool) "session still serves after bad requests" true
    (P.json_ok stats);
  ignore (roundtrip "SHUTDOWN");
  P.Conn.close conn;
  Server.Daemon.join daemon

(* ------------------------------------------------------------------ *)
(* Resident sample columns                                             *)
(* ------------------------------------------------------------------ *)

(* Every QUERY walks the store's resident key-sorted columns. Under
   random ingest/flush/query interleavings, in both seed modes, at
   r = 1, 2, 3 and 1, 2, 4 shards, and again after a snapshot restore
   and on a replica advanced by [Store.apply_delta]: the columns must
   equal the batch samplers of the accumulated instance, and every
   answer must be byte-identical to the list-based reference path
   below, which shares no code with the walk. *)

type col_op = Rec of int * int * float | Flush_op | Query_op | Mark_op

let col_names = [| "c0"; "c1"; "c2" |]
let col_taus = [| 20.; 35.; 50. |]
let col_probs mode i =
  match mode with
  | Sampling.Seeds.Shared -> 0.3
  | Sampling.Seeds.Independent -> [| 0.3; 0.5; 0.4 |].(i)

let fail_report fmt = QCheck.Test.fail_reportf fmt

(* The five classes by membership sets, one record per key: the
   pre-column [Distinct.classify]. *)
let classify_ref seeds ~ids:(id1, id2) ~p1 ~p2 s1 s2 =
  let set1 = ISet.of_list s1 and set2 = ISet.of_list s2 in
  ISet.fold
    (fun h (c : Aggregates.Distinct.classes) ->
      let in1 = ISet.mem h set1 and in2 = ISet.mem h set2 in
      let u1 = Sampling.Seeds.seed seeds ~instance:id1 ~key:h in
      let u2 = Sampling.Seeds.seed seeds ~instance:id2 ~key:h in
      if in1 && in2 then { c with f11 = c.f11 + 1 }
      else if in1 then
        if u2 <= p2 then { c with f10 = c.f10 + 1 }
        else { c with f1q = c.f1q + 1 }
      else if u1 <= p1 then { c with f01 = c.f01 + 1 }
      else { c with fq1 = c.fq1 + 1 })
    (ISet.union set1 set2)
    { f1q = 0; fq1 = 0; f11 = 0; f10 = 0; f01 = 0 }

(* OR^(L) (the Theorem 4.1 solver on oblivious outcome records) and HT
   over r binary samples: the pre-column [Distinct.Multi]. *)
let multi_ref seeds ~ids ~probs samples =
  let r = Array.length probs in
  let g = Estcore.Max_oblivious.General.create ~probs in
  let sets = Array.map ISet.of_list samples in
  let union = Array.fold_left ISet.union ISet.empty sets in
  let inv = 1. /. Array.fold_left ( *. ) 1. probs in
  ISet.fold
    (fun h (l, ht) ->
      let below i =
        Sampling.Seeds.seed seeds ~instance:ids.(i) ~key:h <= probs.(i)
      in
      let values =
        Array.init r (fun i ->
            if ISet.mem h sets.(i) then Some 1.
            else if below i then Some 0.
            else None)
      in
      ( l
        +. Estcore.Max_oblivious.General.estimate g
             { Sampling.Outcome.Oblivious.probs; values },
        if List.for_all below (List.init r Fun.id) then ht +. inv else ht ))
    union (0., 0.)

(* The batch samplers of an instance's accumulated weights. *)
let batch_samples st inst =
  let seeds = Store.seeds st in
  let cfg = Store.instance_config inst in
  let acc = instance_of inst in
  ( Sampling.Poisson.pps_sample seeds ~instance:(Store.id inst)
      ~tau:cfg.Store.tau acc,
    Aggregates.Distinct.sample_binary seeds ~p:cfg.Store.p
      ~instance:(Store.id inst) acc )

let check_columns st =
  List.iter
    (fun inst ->
      let pps, binary = batch_samples st inst in
      if
        Agg_oracle.column_entries (Store.pps_column inst)
        <> pps.Sampling.Poisson.entries
      then
        fail_report "%s: PPS column differs from the batch sample"
          (Store.name inst);
      if binary_sample inst <> binary then
        fail_report "%s: binary column differs from the batch sample"
          (Store.name inst);
      if
        Store.bottom_k_size inst
        <> List.length
             (Sampling.Bottom_k.sample (Store.seeds st)
                ~family:Sampling.Rank.PPS ~instance:(Store.id inst)
                ~k:(Store.instance_config inst).Store.k (instance_of inst))
               .Sampling.Bottom_k.entries
      then fail_report "%s: bottom-k size" (Store.name inst))
    (Store.instances st)

(* The full QUERY response of the list-based reference path. *)
let reference_answer st kind insts =
  let seeds = Store.seeds st in
  let r = List.length insts in
  let samples = List.map (batch_samples st) insts in
  let ids = Array.of_list (List.map Store.id insts) in
  let probs =
    Array.of_list (List.map (fun i -> (Store.instance_config i).Store.p) insts)
  in
  let ps =
    {
      Aggregates.Sum_agg.seeds;
      taus =
        Array.of_list
          (List.map (fun i -> (Store.instance_config i).Store.tau) insts);
      samples = Array.of_list (List.map fst samples);
    }
  in
  let binaries = Array.of_list (List.map snd samples) in
  let head e name = [ ("estimate", P.jfloat e); ("estimator", P.jstr name) ] in
  let sum est = Agg_oracle.estimate ps ~est ~select:(fun _ -> true) in
  let degraded = ref 0 in
  let fields =
    match (kind, (Store.config st).Store.mode) with
    | P.L1, Sampling.Seeds.Shared when r > 2 ->
        Error (Printf.sprintf "l1 takes exactly two instances (got %d)" r)
    | ( (P.Max | P.Dominance | P.Union | P.Intersection | P.Jaccard | P.L1),
        Shared ) ->
        let s = Agg_oracle.similarity_sums ps ~select:(fun _ -> true) in
        let u = s.Aggregates.Similarity.union_hat in
        let i = s.Aggregates.Similarity.inter_hat in
        let name, v =
          match kind with
          | P.Max -> ("max-lstar", u)
          | P.Dominance -> ("maxdom-lstar", u)
          | P.Union -> ("union-lstar", u)
          | P.Intersection -> ("intersection-lstar", i)
          | P.Jaccard -> ("jaccard-lstar", Aggregates.Similarity.jaccard s)
          | _ -> ("l1-lstar", Aggregates.Similarity.l1 s)
        in
        Ok
          (head v name
          @ [ ("union", P.jfloat u); ("intersection", P.jfloat i) ])
    | (P.Or | P.Distinct), Shared ->
        let union =
          Array.fold_left (fun a s -> ISet.union a (ISet.of_list s)) ISet.empty
            binaries
        in
        Ok
          (head
             (float_of_int (ISet.cardinal union) /. probs.(0))
             (if kind = P.Or then "or-coordinated" else "distinct-coordinated"))
    | (P.Max | P.Dominance), Independent ->
        let ht = sum Estcore.Ht.max_pps in
        let pre =
          if r = 2 then sum Estcore.Max_pps.l else ht
        in
        let l_name, ht_name =
          if kind = P.Max then ("max-l", "max-ht")
          else ("maxdom-l", "maxdom-ht")
        in
        let head = head pre (if r = 2 then l_name else ht_name) in
        if kind = P.Max then Ok (head @ [ ("ht", P.jfloat ht) ])
        else
          Ok
            (head
            @ [ ("max_ht", P.jfloat ht);
                ("min_ht", P.jfloat (sum Estcore.Ht.min_pps)) ])
    | (P.Or | P.Distinct), Independent when r = 2 -> (
        let p1 = probs.(0) and p2 = probs.(1) in
        let c =
          classify_ref seeds ~ids:(ids.(0), ids.(1)) ~p1 ~p2 binaries.(0)
            binaries.(1)
        in
        let module D = Aggregates.Distinct in
        match kind with
        | P.Or ->
            let closed = D.l_estimate c ~p1 ~p2 in
            let estimate, provenance =
              match Engine.or_flat_tables ~p1 ~p2 with
              | Ok (table, _) ->
                  ( eval_or_table table seeds ~ids:(ids.(0), ids.(1)) ~p1 ~p2
                      ~s1:binaries.(0) ~s2:binaries.(1),
                    "designer" )
              | Error _ ->
                  degraded := 1;
                  (closed, "closed-form")
            in
            Ok
              (head estimate "or-l"
              @ [ ("provenance", P.jstr provenance);
                  ("closed_form", P.jfloat closed);
                  ("ht", P.jfloat (D.ht_estimate c ~p1 ~p2)) ])
        | _ ->
            Ok
              (head (D.l_estimate c ~p1 ~p2) "distinct-l"
              @ [ ("u", P.jfloat (D.u_estimate c ~p1 ~p2));
                  ("ht", P.jfloat (D.ht_estimate c ~p1 ~p2));
                  ("f1q", P.jint c.D.f1q); ("fq1", P.jint c.D.fq1);
                  ("f11", P.jint c.D.f11); ("f10", P.jint c.D.f10);
                  ("f01", P.jint c.D.f01) ]))
    | P.Or, Independent ->
        let l, ht = multi_ref seeds ~ids ~probs binaries in
        Ok
          (head l "or-multi-l"
          @ [ ("provenance", P.jstr "general-solver"); ("ht", P.jfloat ht) ])
    | P.Distinct, Independent ->
        let l, ht = multi_ref seeds ~ids ~probs binaries in
        Ok (head l "distinct-multi-l" @ [ ("ht", P.jfloat ht) ])
    | (P.Union | P.Intersection | P.Jaccard | P.L1), Independent ->
        Error
          "similarity queries need coordinated samples: restart with shared \
           seeds (serve --shared-seeds)"
  in
  Result.map
    (fun fields ->
      P.ok_fields
        (("kind", P.jstr (P.query_kind_name kind))
        :: ( "instances",
             "["
             ^ String.concat ","
                 (List.map (fun i -> P.jstr (Store.name i)) insts)
             ^ "]" )
        :: ("r", P.jint r)
        :: fields
        @ [ ("degradations", P.jint !degraded) ]))
    fields

let all_kinds =
  [ P.Max; P.Or; P.Distinct; P.Dominance; P.Jaccard; P.L1; P.Union;
    P.Intersection ]

let check_answers st =
  Store.flush st;
  let e = Engine.create st in
  let insts = Store.instances st in
  List.iter
    (fun insts ->
      let names = List.map Store.name insts in
      List.iter
        (fun kind ->
          let served = Engine.query e kind names in
          let expected = reference_answer st kind insts in
          if served <> expected then
            let show = function Ok s -> s | Error m -> "error: " ^ m in
            fail_report "QUERY %s %s:\n served   %s\n expected %s"
              (P.query_kind_name kind) (String.concat " " names) (show served)
              (show expected))
        all_kinds)
    (if List.length insts > 1 then [ insts; List.rev insts ] else [ insts ])

let check_store st =
  Store.flush st;
  check_columns st;
  check_answers st

(* The router's path: a replica installed from full exports, then
   advanced by the keys changed since each instance's cursor, both
   through [Merge] as the router's resident store is. *)
let advance_replica replica ~cfg ~pool st =
  Store.flush st;
  match !replica with
  | None ->
      let rs = Store.create ~pool cfg in
      List.iter
        (fun i ->
          match Server.Merge.install rs [ Codec_oracle.export_summary i ] with
          | Ok _ -> ()
          | Error m -> fail_report "install: %s" m)
        (Store.instances st);
      replica := Some (rs, List.map Store.records (Store.instances st))
  | Some (rs, cursors) ->
      List.iter2
        (fun i since ->
          let delta = Codec_oracle.export_summary ~since i in
          match Server.Merge.apply_deltas ~owner:(fun _ -> 0) rs [ delta ] with
          | Ok _ -> ()
          | Error m -> fail_report "apply_delta: %s" m)
        (Store.instances st) cursors;
      replica := Some (rs, List.map Store.records (Store.instances st))

let col_case_gen =
  QCheck.Gen.(
    bool >>= fun shared ->
    int_range 1 3 >>= fun r ->
    oneofl [ 1; 2; 4 ] >>= fun shards ->
    list_size (int_range 10 300)
      (frequency
         [
           ( 24,
             map3
               (fun i k w -> Rec (i, k, w))
               (int_bound (r - 1))
               (int_range 1 90) (float_range 0.1 40.) );
           (1, return Flush_op);
           (1, return Query_op);
           (1, return Mark_op);
         ])
    >>= fun ops -> return (shared, r, shards, ops))

let col_case_print (shared, r, shards, ops) =
  Printf.sprintf "%s seeds, r = %d, %d shards, %d ops"
    (if shared then "shared" else "independent")
    r shards (List.length ops)

let test_columns_property () =
  let pool = Numerics.Pool.create ~domains:2 () in
  let prop (shared, r, shards, ops) =
    let mode =
      if shared then Sampling.Seeds.Shared else Sampling.Seeds.Independent
    in
    let cfg =
      { Store.default_config with shards; master = 77; mode; flush_every = 64 }
    in
    let st = Store.create ~pool cfg in
    for i = 0 to r - 1 do
      ignore
        (create_exn st ~name:col_names.(i) ~tau:col_taus.(i) ~k:8
           ~p:(col_probs mode i) ())
    done;
    let replica = ref None in
    List.iter
      (function
        | Rec (i, key, weight) -> ingest_exn st ~name:col_names.(i) ~key ~weight
        | Flush_op -> Store.flush st
        | Query_op -> check_store st
        | Mark_op -> advance_replica replica ~cfg ~pool st)
      ops;
    check_store st;
    advance_replica replica ~cfg ~pool st;
    advance_replica replica ~cfg ~pool st;
    (match !replica with Some (rs, _) -> check_store rs | None -> ());
    (match Snapshot.of_string_r ~pool ~shards (Snapshot.to_string st) with
    | Ok restored -> check_store restored
    | Error e -> fail_report "restore: %s" e.Sampling.Io.message);
    true
  in
  Fun.protect
    ~finally:(fun () -> Numerics.Pool.shutdown pool)
    (fun () ->
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:120 ~name:"resident columns"
           (QCheck.make ~print:col_case_print col_case_gen)
           prop))

(* A warm walk over resident columns allocates per query, never per
   key: the same minor words at 1k and at 10k sampled keys. *)
let test_columns_walk_alloc () =
  let p = 0.5 in
  let build n =
    let st = Store.create cfg_one in
    ignore (create_exn st ~name:"a" ~tau:1. ~k:8 ~p ());
    ignore (create_exn st ~name:"b" ~tau:1. ~k:8 ~p ());
    (* tau = 1 with unit weights samples every key; p = 1/2 keeps about
       half in the binary samples. The two key sets overlap by half. *)
    for key = 1 to 2 * n do
      ingest_exn st ~name:"a" ~key ~weight:1.;
      ingest_exn st ~name:"b" ~key:(key + n) ~weight:1.
    done;
    Store.flush st;
    let insts = Store.instances st in
    let ids = Array.of_list (List.map Store.id insts) in
    let pps = Array.of_list (List.map Store.pps_column insts) in
    let bin = Array.of_list (List.map Store.binary_column insts) in
    (Store.seeds st, ids, pps, bin)
  in
  let flat =
    match Engine.or_flat_tables ~p1:p ~p2:p with
    | Ok (_, flat) -> flat
    | Error m -> Alcotest.failf "derive: %s" m
  in
  let select _ = true in
  let taus = [| 1.; 1. |] in
  let walks n =
    let seeds, ids, pps, bin = build n in
    ( (fun () ->
        ignore (Aggregates.Sum_agg.max_columns seeds ~ids ~taus pps ~select)),
      (fun () ->
        ignore
          (Aggregates.Distinct.classify_columns ~table:flat seeds
             ~ids:(ids.(0), ids.(1)) ~p1:p ~p2:p bin.(0) bin.(1) ~select)),
      fun () -> ignore (Aggregates.Similarity.sums_columns ~taus pps ~select) )
  in
  let max1k, or1k, lstar1k = walks 1_000 in
  let max10k, or10k, lstar10k = walks 10_000 in
  Allocheck.assert_same_alloc "max walk (HT + L)"
    [ ("1k keys", max1k); ("10k keys", max10k) ];
  Allocheck.assert_same_alloc "or walk (table + classes)"
    [ ("1k keys", or1k); ("10k keys", or10k) ];
  Allocheck.assert_same_alloc "L* walk (union + intersection)"
    [ ("1k keys", lstar1k); ("10k keys", lstar10k) ]

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "parse errors" `Quick test_protocol_parse_errors;
          Alcotest.test_case "json assembly and inspection" `Quick
            test_protocol_json;
          Alcotest.test_case "batch payload framing" `Quick
            test_protocol_batch_framing;
          Alcotest.test_case "batch diagnostics carry line numbers" `Quick
            test_protocol_batch_line_numbers;
          Alcotest.test_case "retry hint validation and clamping" `Quick
            test_client_hint_clamping;
        ] );
      ( "store",
        [
          Alcotest.test_case "incremental summaries equal batch samplers"
            `Quick test_store_incremental_matches_batch;
          Alcotest.test_case "ingest guards" `Quick test_store_ingest_guards;
          Alcotest.test_case "auto flush" `Quick test_store_auto_flush;
          Alcotest.test_case "batch ingest bit-identical to singles" `Quick
            test_store_ingest_many;
          Alcotest.test_case "batch admission all-or-nothing" `Quick
            test_store_ingest_many_guards;
          Alcotest.test_case "bit-identical across 1/2/4 shards" `Slow
            test_store_shard_determinism;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "byte round trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "re-query identical" `Quick
            test_snapshot_requery_identical;
          Alcotest.test_case "strict parser guards" `Quick
            test_snapshot_guards;
          Alcotest.test_case "file write and load" `Quick
            test_snapshot_file_io;
        ] );
      ( "engine",
        [
          Alcotest.test_case "session verbs" `Quick test_engine_session_verbs;
          Alcotest.test_case "or table equals closed form" `Quick
            test_engine_or_designer_matches_closed_form;
          Alcotest.test_case "flat OR serving bit-identical + alloc-free"
            `Quick test_engine_or_flat_matches_table;
          Alcotest.test_case "sum_agg recomputes seeds at recorded ids"
            `Quick test_sum_agg_recorded_ids;
          Alcotest.test_case "similarity queries equal reference sums" `Quick
            test_engine_similarity_queries;
          Alcotest.test_case "similarity refusals are structured bad_request"
            `Quick test_engine_similarity_guards;
          Alcotest.test_case "shared seeds: max = union, coordinated counts"
            `Quick test_engine_shared_seed_rows;
          Alcotest.test_case "shared seeds: unequal p refused" `Quick
            test_engine_shared_unequal_p_refused;
          Alcotest.test_case "shared seeds: answers unbiased within 4 se"
            `Quick test_engine_shared_seed_unbiased;
        ] );
      ( "columns",
        [
          Alcotest.test_case "walks equal the list reference path" `Quick
            test_columns_property;
          Alcotest.test_case "warm walks allocate per query, not per key"
            `Quick test_columns_walk_alloc;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "daemon over tcp" `Slow test_e2e_daemon;
          Alcotest.test_case "64 concurrent connections bit-identical" `Slow
            test_e2e_concurrent_identical;
          Alcotest.test_case "slow reader does not stall others" `Quick
            test_e2e_slow_reader_backpressure;
          Alcotest.test_case "batched client bit-identical to lines" `Slow
            test_e2e_client_batch_identical;
          Alcotest.test_case "batch rejection names the body line" `Quick
            test_e2e_batch_line_diagnostic;
          Alcotest.test_case "unknown verbs answer bad_request, keep session"
            `Quick test_e2e_unknown_verb_keeps_connection;
        ] );
    ]
