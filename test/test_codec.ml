(* The in-place codec readers and what they read.

   - Protocol.read_int / read_hex are the inverses of add_int / add_hex
     and agree with int_of_string / float_of_string on every token:
     same bits, or the same Failure.
   - Durable's native-int CRC equals the bytewise Int32 reference.
   - Differential: over seeded byte mutations of a real snapshot, a
     summary payload, WAL segments and INGESTN body lines, each scanner
     and its tokenizing oracle (Codec_oracle) give equal results or the
     same error, line number included, and neither raises.
   - A key whose accumulated weight overflows to +infinity keeps its
     instance readable: PULL, SNAPSHOT, a WAL checkpoint and a restart
     all carry it, and QUERY answers the same before and after.
   - Applying a record to a key the instance holds allocates nothing. *)

module P = Server.Protocol
module Store = Server.Store
module Engine = Server.Engine
module Snapshot = Server.Snapshot
module Merge = Server.Merge
module Wal = Server.Wal
module Durable = Server.Durable
module O = Codec_oracle

let get = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Readers                                                              *)
(* ------------------------------------------------------------------ *)

(* The token read inside a longer string, so a reader that strays past
   its span shows. *)
let in_span tok = ("<" ^ tok ^ " tail>", 1, 1 + String.length tok)

let float_result f = match f () with v -> Ok v | exception Failure m -> Error m
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_hex tok =
  let s, pos, stop = in_span tok in
  match
    ( float_result (fun () -> float_of_string tok),
      float_result (fun () -> P.read_hex s pos stop) )
  with
  | Ok want, Ok got
    when same_float want got || (Float.is_nan want && Float.is_nan got) ->
      ()
  | Error want, Error got when want = got -> ()
  | want, got ->
      let show = function
        | Ok v -> Printf.sprintf "%h (bits %Lx)" v (Int64.bits_of_float v)
        | Error m -> "Failure " ^ m
      in
      Alcotest.failf "read_hex %S: %s, float_of_string: %s" tok (show got)
        (show want)

let check_int tok =
  let s, pos, stop = in_span tok in
  let r f = match f () with v -> Ok v | exception Failure m -> Error m in
  let want = r (fun () -> int_of_string tok) in
  let got = r (fun () -> P.read_int s pos stop) in
  if want <> got then
    Alcotest.failf "read_int %S disagrees with int_of_string" tok

(* The bit patterns the writer's test covers: random over every exponent
   and sign, subnormals, zero, the extremes and powers of two. *)
let test_read_hex_bits () =
  let rng = Numerics.Prng.create ~seed:131 () in
  let hex v = Printf.sprintf "%h" v in
  for _ = 1 to 100_000 do
    check_hex (hex (Int64.float_of_bits (Numerics.Prng.bits64 rng)))
  done;
  for _ = 1 to 10_000 do
    let frac = Int64.logand (Numerics.Prng.bits64 rng) 0xF_FFFF_FFFF_FFFFL in
    let v = Int64.float_of_bits frac in
    check_hex (hex v);
    check_hex (hex (-.v))
  done;
  for e = -1074 to 1023 do
    check_hex (hex (Float.ldexp 1. e));
    check_hex (hex (Float.ldexp (-1.) e))
  done;
  List.iter
    (fun v -> check_hex (hex v))
    [ Float.min_float; Float.max_float; Float.pred 1.; Float.succ 1.;
      Int64.float_of_bits 1L; Int64.float_of_bits 0xF_FFFF_FFFF_FFFFL;
      Float.pred Float.min_float; 0.; -0.; 1.; 0.1; 1e308; infinity;
      neg_infinity; nan ];
  (* The writer's bytes read back to the same bits. *)
  let buf = Buffer.create 32 in
  for _ = 1 to 10_000 do
    let v = Int64.float_of_bits (Numerics.Prng.bits64 rng) in
    if not (Float.is_nan v) then begin
      Buffer.clear buf;
      P.add_hex buf v;
      let s = Buffer.contents buf in
      let got = P.read_hex s 0 (String.length s) in
      if not (same_float v got) then
        Alcotest.failf "read_hex (add_hex %h) = %h" v got
    end
  done

(* Spellings [%h] does not print go the strict path: the result, or the
   Failure, is float_of_string's. *)
let test_read_hex_noncanonical () =
  List.iter check_hex
    [ "0X1P+0"; "0x1.8p3"; "0x1.8P+3"; "0x1.8p+03"; "1.5"; "-2.25e3";
      "infinity"; "-infinity"; "inf"; "nan"; "0x1.8000p+1";
      "0x1.fffffffffffff8p+0"; "0x1.00000000000001p+0"; "0x1p-1023";
      "0x1p-1074"; "0x1p+1024"; "0x1p+99999"; "0x1.p+0"; "0x1."; "0x1";
      "0x1p"; "0x1p+"; "0x1p0"; "0x1p+0x"; "0x1_0p+0"; "0x1.a_bp+0";
      "+0x1p+0"; "--0x1p+0"; "0x0p+0"; "0x0.8p-1022"; "0x2p+0"; "";
      "-"; "x"; "0x"; "1e400"; "_1"; "0x1.Ap+0"; "0x1.ap+0"; " 0x1p+0";
      "0x1p+0 "; "\t1.5"; "0x1.gp+0"; "0x1.8p-1022"; "0x1.8p+1023";
      "-0x1.fffffffffffffp+1023" ]

let test_read_int () =
  let rng = Numerics.Prng.create ~seed:17 () in
  for _ = 1 to 100_000 do
    let v = Int64.to_int (Numerics.Prng.bits64 rng) in
    check_int (string_of_int v);
    check_int (string_of_int (v asr Numerics.Prng.int rng 62))
  done;
  List.iter check_int
    [ "0"; "-0"; "007"; "-007"; "+5"; "0x10"; "0o17"; "0b101"; "0u12";
      "1_000"; ""; "-"; "--1"; "1-"; " 1"; "1 "; "a";
      string_of_int max_int; string_of_int min_int;
      "4611686018427387904"; "-4611686018427387905";
      "99999999999999999999"; "999999999999999999"; "-999999999999999999";
      "1000000000000000000"; "0000000000000000000001" ];
  let buf = Buffer.create 32 in
  List.iter
    (fun v ->
      Buffer.clear buf;
      P.add_int buf v;
      let s = Buffer.contents buf in
      Alcotest.(check int) "read_int (add_int v)" v
        (P.read_int s 0 (String.length s)))
    [ 0; 1; -1; 42; max_int; min_int; max_int / 10; min_int / 10 ]

(* ------------------------------------------------------------------ *)
(* CRC                                                                  *)
(* ------------------------------------------------------------------ *)

let test_crc () =
  Alcotest.(check int32) "check value" 0xCBF43926l (Durable.crc32 "123456789");
  let rng = Numerics.Prng.create ~seed:29 () in
  for _ = 1 to 2_000 do
    let len = Numerics.Prng.int rng 300 in
    let s = String.init len (fun _ -> Char.chr (Numerics.Prng.int rng 256)) in
    Alcotest.(check int32) "one shot" (O.crc32_update 0l s 0 len)
      (Durable.crc32 s);
    (* Chained updates from an arbitrary running value. *)
    let seed = Int64.to_int32 (Numerics.Prng.bits64 rng) in
    let cut = if len = 0 then 0 else Numerics.Prng.int rng (len + 1) in
    let want = O.crc32_update (O.crc32_update seed s 0 cut) s cut (len - cut) in
    let got =
      Durable.crc32_update (Durable.crc32_update seed s 0 cut) s cut (len - cut)
    in
    Alcotest.(check int32) "chained" want got
  done;
  match Durable.crc32_update 0l "abc" 2 5 with
  | _ -> Alcotest.fail "a span past the string was read"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential: scanners against the tokenizing oracles                *)
(* ------------------------------------------------------------------ *)

(* Single-byte flips, truncations and insertions of a valid encoding;
   printable bytes of the codecs' own alphabet dominate, so many mutants
   reach the deeper checks. *)
let mutants ~seed ~n good =
  let rng = Numerics.Prng.create ~seed () in
  let len = String.length good in
  let byte () =
    if Numerics.Prng.int rng 4 = 0 then Char.chr (Numerics.Prng.int rng 256)
    else
      String.get " \n\r\t#0123456789abcdefpx+-.endwsumryBCIF"
        (Numerics.Prng.int rng 39)
  in
  List.init n (fun _ ->
      let i = Numerics.Prng.int rng (max 1 len) in
      match Numerics.Prng.int rng 4 with
      | 0 | 1 -> String.mapi (fun j c -> if j = i then byte () else c) good
      | 2 -> String.sub good 0 (min i len)
      | _ ->
          String.sub good 0 (min i len)
          ^ String.make 1 (byte ())
          ^ String.sub good (min i len) (len - min i len))

let no_raise what input f =
  match f () with
  | v -> v
  | exception e ->
      Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) input

let store_text = function
  | Ok st -> Ok (Snapshot.to_string st)
  | Error e -> Error (Sampling.Io.parse_error_to_string e)

let records ~seed n =
  let rng = Numerics.Prng.create ~seed () in
  Array.init n (fun _ ->
      ( Numerics.Prng.int rng 100_000 - 50_000,
        Float.ldexp
          (0.5 +. Numerics.Prng.float rng)
          (Numerics.Prng.int rng 40 - 20) ))

let sample_store () =
  let st = Store.create { Store.default_config with Store.master = 7 } in
  List.iteri
    (fun i (name, tau, k, p) ->
      ignore (get (Store.create_instance st ~name ~tau ~k ~p ()));
      Array.iter
        (fun (key, weight) ->
          match Store.ingest st ~name ~key ~weight with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e))
        (records ~seed:(40 + i) 120))
    [ ("a", 3., 8, 0.3); ("b", 0.5, 16, 1.); ("c-1", 1e-3, 4, 0.05) ];
  Store.flush st;
  st

let check_snapshot_mutant m =
  let want =
    no_raise "oracle" m (fun () -> store_text (O.snapshot_of_string_r m))
  in
  let got =
    no_raise "Snapshot.of_string_r" m (fun () ->
        store_text (Snapshot.of_string_r m))
  in
  if want <> got then
    Alcotest.failf "snapshot mutant %S: scanner %s, oracle %s" m
      (match got with Ok _ -> "accepted" | Error e -> e)
      (match want with Ok _ -> "accepted" | Error e -> e);
  Result.is_ok got

let test_snapshot_differential () =
  let good = Snapshot.to_string (sample_store ()) in
  (* The same text with the line discipline exercised: CRLF endings,
     comments, blank and indented lines. *)
  let dressed =
    "# a comment\n\n"
    ^ String.concat "\r\n"
        (List.mapi
           (fun i l -> if i mod 7 = 3 then "  " ^ l ^ " \t" else l)
           (String.split_on_char '\n' good))
    ^ "\n# trailing\n"
  in
  List.iter
    (fun (seed, text) ->
      Alcotest.(check bool) "the unmutated text loads" true
        (check_snapshot_mutant text);
      let accepted =
        List.length
          (List.filter check_snapshot_mutant (mutants ~seed ~n:4000 text))
      in
      Alcotest.(check bool) "some mutants load" true (accepted > 0))
    [ (61, good); (62, dressed) ];
  List.iter
    (fun m -> ignore (check_snapshot_mutant m))
    [ ""; "\n"; "# only\n"; Snapshot.magic; "optsample-snapshot 1 x";
      good ^ "summary"; good ^ "w 1 0x1p+0\n" ]

let test_payload_differential () =
  let check m =
    let lines = String.split_on_char '\n' m in
    let want = no_raise "oracle" m (fun () -> O.of_lines lines) in
    let got = no_raise "Merge.of_lines" m (fun () -> Merge.of_lines lines) in
    let show = function
      | Ok s -> String.concat "\n" (Merge.payload s)
      | Error e -> "error: " ^ e
    in
    if show want <> show got then
      Alcotest.failf "payload mutant %S: scanner %s, oracle %s" m (show got)
        (show want)
  in
  let st = sample_store () in
  List.iteri
    (fun i inst ->
      let good = String.concat "\n" (Merge.payload (Codec_oracle.export_summary inst)) in
      List.iter check (good :: mutants ~seed:(70 + i) ~n:3000 good))
    (Store.instances st);
  (* Weight and key spellings mutations rarely reach. *)
  let header = "summary h 0 0x1p+2 8 0x1p-1 3 0x1p+3\n" in
  List.iter
    (fun w -> check (header ^ w ^ "\nend"))
    [ "w 5 infinity"; "w 5 -infinity"; "w 5 inf"; "w 5 nan"; "w 5 -nan";
      "w 5 0x0p+0"; "w 5 -0x0p+0"; "w 5 -0x1p+0"; "w 5 0x1p-1074";
      "w 5 0x1p+1024"; "w 5 1e400"; "w 5 1.5"; "w 5 0X1P+0";
      "w 0x10 0x1p+0"; "w -0 0x1p+0"; "w 4611686018427387904 0x1p+0";
      "w 5 0x1p+0 "; "w  5 0x1p+0"; "w 5  0x1p+0"; "w 5"; "w"; "w ";
      "w\t5 0x1p+0"; "w 5\t0x1p+0"; "end "; " end"; "END" ]

(* A WAL segment as Wal.append writes it, walked frame by frame. *)
let frames decode s =
  let rec go pos acc =
    match decode s pos with
    | Wal.Frame (op, next) -> go next (`Op op :: acc)
    | Wal.End -> List.rev (`End :: acc)
    | Wal.Torn m -> List.rev (`Torn (pos, m) :: acc)
  in
  go 0 []

let frame_of_payload payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (O.crc32_update 0l payload 0 len);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.to_string b

let test_wal_differential () =
  let ops =
    [ Wal.Create { name = "a"; tau = 2.5; k = 16; p = 0.25 };
      Wal.Ingest { name = "a"; key = -3; weight = 0x1.8p-3 };
      Wal.Ingest_batch { name = "a"; records = records ~seed:80 40 };
      Wal.Flush;
      Wal.Create { name = "b.2"; tau = 1e-3; k = 1; p = 1. };
      Wal.Ingest { name = "b.2"; key = max_int; weight = Float.min_float };
      Wal.Ingest_batch { name = "b.2"; records = records ~seed:81 7 } ]
  in
  let segment = String.concat "" (List.map Wal.encode_frame ops) in
  Alcotest.(check bool) "the segment decodes to its ops" true
    (frames Wal.decode_at segment = List.map (fun op -> `Op op) ops @ [ `End ]);
  let compare_walks what m =
    let want = no_raise "oracle" m (fun () -> frames O.decode_at m) in
    let got = no_raise "Wal.decode_at" m (fun () -> frames Wal.decode_at m) in
    if want <> got then Alcotest.failf "%s mutant %S: walks differ" what m
  in
  (* Raw bytes: the frame headers and CRCs take most hits. *)
  List.iter (compare_walks "segment") (mutants ~seed:82 ~n:3000 segment);
  (* Payloads re-framed with a good CRC, so the decoder sees them. *)
  List.iteri
    (fun i op ->
      let payload =
        let f = Wal.encode_frame op in
        String.sub f 8 (String.length f - 8)
      in
      List.iter
        (fun m -> compare_walks "payload" (frame_of_payload m))
        (mutants ~seed:(90 + i) ~n:1500 payload))
    ops;
  List.iter
    (fun p -> compare_walks "payload" (frame_of_payload p))
    [ ""; " "; "F"; " F  "; "F F"; "C a 0x1p+0 3"; "C a 0x1p+0 3 0x1p-2";
      "C  a  0x1p+0  3  0x1p-2 "; "I a 1 2"; "I a 1 -2"; "I a 1 inf";
      "I a 1 nan"; "I a x 1"; "B a 1 1"; "B a 1 1 1"; "B a 0"; "B a 2 1 1 2";
      "B a 2 1 1 2 0"; "B a x 1 1"; "B bad/name 1 1 1"; "B a 1 1 1.5e0";
      "Z a 1 1"; "B a 4611686018427387904 1 1" ]

let test_batch_record_differential () =
  let bodies =
    [ "12 0x1.8p+1"; "-7 1.5"; "  3   0x1p-3  "; "5\t0x1p+0"; "1 2 3"; "";
      "x 1"; "1 x"; "1 nan"; "1 -inf"; "1 0"; "1 -0x1p+0"; "0x10 0x1p+4";
      "9 0x1.fffffffffffffp+1023"; "9 0x0.0000000000001p-1022" ]
  in
  List.iteri
    (fun i good ->
      List.iter
        (fun m ->
          let line = i + 1 in
          let want =
            no_raise "oracle" m (fun () -> O.parse_batch_record ~line m)
          in
          let got =
            no_raise "parse_batch_record" m (fun () ->
                P.parse_batch_record ~line m)
          in
          if want <> got then Alcotest.failf "batch record %S differs" m)
        (good :: mutants ~seed:(100 + i) ~n:400 good))
    bodies

(* ------------------------------------------------------------------ *)
(* Weights that overflow to infinity                                    *)
(* ------------------------------------------------------------------ *)

(* The per-process store epoch in a PULL header is masked. *)
let mask_epoch =
  Str.global_replace (Str.regexp {|"epoch":[0-9]+|}) {|"epoch":_|}

let test_infinite_weight () =
  with_dir "codec-inf" @@ fun dir ->
  let wal_cfg =
    { (Wal.default_config ~dir:(Filename.concat dir "wal")) with
      Wal.fsync = Wal.Never }
  in
  let store_cfg = { Store.default_config with Store.master = 5 } in
  let ok engine line =
    let resp, _ = Engine.handle_line engine line in
    if not (P.json_ok resp) then Alcotest.failf "%s: %s" line resp;
    resp
  in
  let reads engine =
    List.map (fun l -> mask_epoch (ok engine l))
      [ "PULL h"; "PULL g"; "QUERY max h g"; "QUERY or h g";
        "QUERY distinct h g"; "QUERY dominance h g" ]
  in
  (* A restore from a snapshot sets each instance's records to its key
     count (the restore rule), so there the PULL comparison is of the
     weight lines. *)
  let weight_lines responses =
    List.map
      (fun r ->
        if String.length r > 0 && r.[0] = '{' && String.contains r '\n' then
          String.concat "\n"
            (List.filter
               (fun l -> String.length l > 2 && String.sub l 0 2 = "w ")
               (String.split_on_char '\n' r))
        else r)
      responses
  in
  let r = get (Wal.recover ~store_cfg wal_cfg) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  List.iter
    (fun l -> ignore (ok engine l))
    [ "CREATE h tau=4 k=8 p=0.5"; "CREATE g tau=4 k=8 p=0.5";
      "INGEST h 2 3.5"; "INGEST g 1 2"; "INGEST g 2 0.25" ];
  ignore (ok engine "FLUSH");
  (* A checkpoint before the overflow, so the restart replays it. *)
  ignore (ok engine ("SNAPSHOT " ^ Filename.concat dir "before.snap"));
  List.iter
    (fun l -> ignore (ok engine l))
    [ "INGEST h 1 1e308"; "INGEST h 1 1e308"; "FLUSH" ];
  let inst = Option.get (Store.find r.Wal.store "h") in
  Alcotest.(check bool) "the weight overflowed" true
    (List.assoc 1 (Codec_oracle.weights (Codec_oracle.export_summary inst)) = infinity);
  let before = reads engine in
  Alcotest.(check bool) "PULL carries the infinite weight" true
    (List.exists (fun l -> l = "w 1 infinity")
       (String.split_on_char '\n' (List.hd before)));
  (* Restart over the log: the checkpoint, then the overflowing records. *)
  Wal.close r.Wal.wal;
  let r2 = get (Wal.recover ~store_cfg wal_cfg) in
  Alcotest.(check (list string)) "no checkpoint quarantined" []
    r2.Wal.skipped_checkpoints;
  Alcotest.(check (list string)) "answers after a WAL restart" before
    (reads (Engine.create ~wal:r2.Wal.wal r2.Wal.store));
  (* A checkpoint holding the infinite weight, and a restart on it. *)
  let path = Filename.concat dir "after.snap" in
  let engine2 = Engine.create ~wal:r2.Wal.wal r2.Wal.store in
  ignore (ok engine2 ("SNAPSHOT " ^ path));
  Wal.close r2.Wal.wal;
  let r3 = get (Wal.recover ~store_cfg wal_cfg) in
  Alcotest.(check (list string)) "the new checkpoint is not quarantined" []
    r3.Wal.skipped_checkpoints;
  Alcotest.(check int) "nothing left to replay" 0 r3.Wal.replayed;
  Alcotest.(check (list string)) "answers after a checkpoint restart"
    (weight_lines before)
    (weight_lines (reads (Engine.create ~wal:r3.Wal.wal r3.Wal.store)));
  Wal.close r3.Wal.wal;
  match Snapshot.load path with
  | Error e ->
      Alcotest.failf "snapshot refused: %s"
        (Sampling.Io.parse_error_to_string e)
  | Ok st ->
      Alcotest.(check (list string)) "answers from the SNAPSHOT file"
        (weight_lines before)
        (weight_lines (reads (Engine.create st)))

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

let test_apply_no_alloc () =
  let st = Store.create { Store.default_config with Store.master = 3 } in
  let sampled =
    get (Store.create_instance st ~name:"in" ~tau:1. ~k:4 ~p:1. ())
  in
  let unsampled =
    get (Store.create_instance st ~name:"out" ~tau:1e300 ~k:4 ~p:1e-9 ())
  in
  List.iter
    (fun inst ->
      for key = 1 to 100 do
        Store.apply_record inst ~key ~weight:2.
      done)
    [ sampled; unsampled ];
  Alcotest.(check int) "the key is in the PPS sample" 100
    (Store.pps_column sampled).Aggregates.Column.len;
  Alcotest.(check int) "the key is out of it" 0
    (Store.pps_column unsampled).Aggregates.Column.len;
  Allocheck.assert_no_alloc "apply to a sampled key" (fun () ->
      Store.apply_record sampled ~key:17 ~weight:0.5);
  Allocheck.assert_no_alloc "apply to an unsampled key" (fun () ->
      Store.apply_record unsampled ~key:17 ~weight:0.5);
  (* Applying a record is what ingesting it and flushing does. *)
  let recs = records ~seed:50 500 in
  let build apply =
    let st = Store.create { Store.default_config with Store.master = 3 } in
    let inst =
      get (Store.create_instance st ~name:"a" ~tau:0.5 ~k:4 ~p:0.3 ())
    in
    Array.iter (fun (key, weight) -> apply st inst ~key ~weight) recs;
    Store.flush st;
    ( Merge.payload (Codec_oracle.export_summary inst),
      Agg_oracle.column_entries (Store.pps_column inst),
      Agg_oracle.column_keys (Store.binary_column inst) )
  in
  let ingest st _ ~key ~weight =
    match Store.ingest st ~name:"a" ~key ~weight with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e)
  in
  Alcotest.(check bool) "apply_record equals ingest + flush" true
    (build ingest
    = build (fun _ inst ~key ~weight -> Store.apply_record inst ~key ~weight))

(* A new key into an instance whose rows and index have room writes
   three int columns, a float column and one index position: nothing is
   allocated. The keys stay out of both samples, so no column grows. *)
let test_new_key_no_alloc () =
  let st = Store.create { Store.default_config with Store.master = 3 } in
  let inst =
    get (Store.create_instance st ~name:"out" ~tau:1e300 ~k:4 ~p:1e-9 ())
  in
  (* 1400 keys: the rows have grown to 2053 and the index to 4096
     positions, room for 648 more keys before either grows. *)
  for key = 1 to 1400 do
    Store.apply_record inst ~key ~weight:2.
  done;
  let next = ref 0 in
  let apply_new () =
    incr next;
    Store.apply_record inst ~key:(- !next * 0x9E3779B1) ~weight:2.
  in
  Allocheck.assert_no_alloc ~runs:300 ~warmup:10 "apply a new key" apply_new;
  (* Grown columns would be allocated in the major heap, which the
     minor count does not see: count both heaps too. Over 300 calls the
     measurement's own words come to less than one per call. *)
  let words =
    Allocheck.words_per_call ~settle:true ~runs:300 ~warmup:0 apply_new
  in
  if Allocheck.is_native then
    Alcotest.(check bool)
      (Printf.sprintf "a new key allocates in neither heap (%.3f words/call)"
         words)
      true (words < 1.);
  Alcotest.(check int) "every key is a row" (1400 + 610)
    (Store.cardinality inst);
  Alcotest.(check int) "no key entered a sample" 0
    ((Store.pps_column inst).Aggregates.Column.len
    + (Store.binary_column inst).Aggregates.Column.len)

(* Restoring an instance sizes its rows and its index to the summary's
   keys and appends them: four words per key for the rows (key, weight,
   stamp, PPS slot) and at most four for the index, which is at most
   half full — 131072 positions for 50k keys, 2.6 words per key. The
   keys stay out of both samples, so the bound counts the columns and
   the index only. *)
let test_install_words () =
  let n = 50_000 in
  let keys = Array.init n (fun i -> (3 * i) - 70_000) in
  let s =
    {
      Store.s_name = "big";
      s_id = 0;
      s_cfg = { Store.tau = 1e300; k = 4; p = 1e-9 };
      s_records = n;
      s_volume = float_of_int n;
      s_keys = keys;
      s_weights = Float.Array.make n 1.;
    }
  in
  let install () =
    let st = Store.create Store.default_config in
    let inst = get (Store.install_summary st s) in
    if Store.cardinality inst <> n then Alcotest.fail "install lost keys"
  in
  let words = Allocheck.words_per_call ~settle:true ~runs:4 ~warmup:1 install in
  if Allocheck.is_native then
    Alcotest.(check bool)
      (Printf.sprintf "install allocates at most 7 words per key (%.2f)"
         (words /. float_of_int n))
      true
      (words <= 7. *. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Rows and key index against the Hashtbl oracle                       *)
(* ------------------------------------------------------------------ *)

(* The multiplier of the store's key index: [key · multiplier] is [i]
   for [key = i · inverse], so such keys share one home position and
   each probes past all the others. (Were the multiplier to change,
   these keys would only stop colliding.) *)
let index_multiplier = 0x4F1BBCDCBFA53E0B

(* Newton's iteration for the inverse of an odd int modulo 2^63: each
   step doubles the correct low bits, from 3. *)
let inverse m =
  let x = ref m in
  for _ = 1 to 6 do
    x := !x * (2 - (m * !x))
  done;
  !x

let key_gen =
  let open QCheck.Gen in
  let inv = inverse index_multiplier in
  frequency
    [
      ( 2,
        oneofl
          [ min_int; min_int + 1; -1; 0; 1; 1 lsl 56; max_int; max_int - 1 ] );
      (4, int_range (-300) 300);
      (* low 48 bits shared *)
      (3, map (fun i -> i lsl 48) (int_range (-64) 63));
      (2, map (fun i -> (i lsl 56) lor 0x5A5A) (int_range (-64) 63));
      (* one home position *)
      (3, map (fun i -> i * inv) (int_range 0 3000));
      (4, int);
    ]

let weight_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun i -> 0.25 *. float_of_int (1 + i)) (int_bound 63));
        (1, map (fun i -> Float.ldexp 1. i) (int_range (-30) 30));
      ])

(* Two instances, a stream of records to either, and the keys of a
   delta. *)
type stream = {
  recs : (int * int * float) array;  (* instance, key, weight *)
  delta_keys : int list;
}

let stream_gen ~max_len =
  QCheck.Gen.(
    map2
      (fun recs delta_keys -> { recs = Array.of_list recs; delta_keys })
      (list_size (int_range 0 max_len)
         (triple (int_bound 1) key_gen weight_gen))
      (list_size (int_range 1 60) key_gen))

let oracle_names = [| ("a", 2., 0.3); ("b", 50., 0.05) |]
let oracle_config =
  { Store.default_config with Store.master = 11; flush_every = 97 }

(* The store and its oracle agree on the snapshot text, both sample
   columns and the key count. *)
let check_oracle what st o =
  Alcotest.(check string) (what ^ ": snapshot") (Store_oracle.snapshot o)
    (Snapshot.to_string st);
  List.iter
    (fun (oi : Store_oracle.inst) ->
      let inst = Option.get (Store.find st oi.Store_oracle.name) in
      let where = what ^ " " ^ oi.Store_oracle.name in
      Alcotest.(check (list (pair int (float 0.))))
        (where ^ ": pps column") (Store_oracle.pps o oi)
        (Agg_oracle.column_entries (Store.pps_column inst));
      Alcotest.(check (list int)) (where ^ ": binary column")
        (Store_oracle.binary o oi)
        (Agg_oracle.column_keys (Store.binary_column inst));
      Alcotest.(check int) (where ^ ": cardinality")
        (Store_oracle.cardinality oi) (Store.cardinality inst))
    o.Store_oracle.insts

(* Feed the stream to a store (through the mailboxes, flushing every 97
   records) and to the oracle; compare them, and the export since the
   half-way cursor. Then a delta over some held keys (weights doubled)
   and the stream's delta keys the instance lacks: each corrupted
   variant is refused and leaves the store as it was, and the valid one
   matches the oracle. *)
let run_oracle_stream { recs; delta_keys } =
  let st = Store.create oracle_config in
  let o = Store_oracle.create oracle_config in
  Array.iter
    (fun (name, tau, p) ->
      ignore (get (Store.create_instance st ~name ~tau ~k:8 ~p ()));
      ignore (Store_oracle.create_instance o ~name { Store.tau; k = 8; p }))
    oracle_names;
  let n = Array.length recs in
  let cursors = ref [] in
  Array.iteri
    (fun j (i, key, weight) ->
      if j = n / 2 then begin
        Store.flush st;
        cursors :=
          List.map (fun (oi : Store_oracle.inst) -> oi.Store_oracle.records)
            o.Store_oracle.insts
      end;
      let name, _, _ = oracle_names.(i) in
      (match Store.ingest st ~name ~key ~weight with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e));
      Store_oracle.apply (Store_oracle.find o name) ~key ~weight)
    recs;
  check_oracle "stream" st o;
  List.iter2
    (fun (oi : Store_oracle.inst) since ->
      let inst = Option.get (Store.find st oi.Store_oracle.name) in
      Alcotest.(check (list (pair int (float 0.))))
        (Printf.sprintf "%s: export since %d" oi.Store_oracle.name since)
        (Store_oracle.weights ~since oi)
        (O.weights (O.export_summary ~since inst)))
    o.Store_oracle.insts
    (if !cursors = [] then [ 0; 0 ] else !cursors);
  let oa = Store_oracle.find o "a" in
  let inst = Option.get (Store.find st "a") in
  let held = Store_oracle.weights oa in
  let grown =
    List.filteri (fun i _ -> i mod 3 = 0) held
    |> List.map (fun (k, w) -> (k, 2. *. w))
  in
  let fresh =
    List.sort_uniq Int.compare
      (List.filter
         (fun k -> not (Hashtbl.mem oa.Store_oracle.weights k))
         delta_keys)
    |> List.map (fun k -> (k, 1.5))
  in
  let pairs =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) (grown @ fresh)
  in
  let summary pairs =
    O.with_weights
      {
        (O.export_summary inst) with
        Store.s_records = oa.Store_oracle.records + List.length pairs;
        s_volume = oa.Store_oracle.volume +. 1.;
      }
      pairs
  in
  let before = Snapshot.to_string st in
  let last = List.length pairs - 1 in
  let mutants =
    [
      ("a weight falls", List.map (fun (k, w) -> (k, w /. 4.)) grown);
      ( "a weight is 0",
        List.mapi (fun i (k, w) -> (k, if i = last then 0. else w)) pairs );
      ("keys out of order", pairs @ [ List.hd pairs ]);
    ]
  in
  List.iter
    (fun (what, bad) ->
      if bad <> [] && bad <> pairs then begin
        (match Store.apply_delta ~owner:(fun _ -> 0) st [ summary bad ] with
        | Ok _ -> Alcotest.failf "a delta with %s was applied" what
        | Error _ -> ());
        Alcotest.(check string) ("refused delta (" ^ what ^ ") changes nothing")
          before (Snapshot.to_string st);
        check_oracle ("after a refused delta (" ^ what ^ ")") st o
      end)
    mutants;
  let good = summary pairs in
  ignore (get (Store.apply_delta ~owner:(fun _ -> 0) st [ good ]));
  Store_oracle.apply_delta oa good;
  check_oracle "after the delta" st o;
  true

let print_stream { recs; delta_keys } =
  Printf.sprintf "%d records, %d delta keys" (Array.length recs)
    (List.length delta_keys)

let test_rows_oracle =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 23 |])
    (QCheck.Test.make ~count:40 ~name:"rows and index match a Hashtbl oracle"
       (QCheck.make ~print:print_stream (stream_gen ~max_len:4000))
       run_oracle_stream)

(* One long stream of 60k records: some 17k distinct keys, so the rows
   and the index double a dozen times. *)
let test_rows_oracle_long () =
  let rand = Random.State.make [| 29 |] in
  let record = QCheck.Gen.(triple (int_bound 1) key_gen weight_gen) in
  ignore
    (run_oracle_stream
       {
         recs = Array.init 60_000 (fun _ -> record rand);
         delta_keys = QCheck.Gen.(list_size (return 60) key_gen) rand;
       })

let () =
  Alcotest.run "codec"
    [
      ( "readers",
        [
          Alcotest.test_case "read_hex bits equal float_of_string" `Quick
            test_read_hex_bits;
          Alcotest.test_case "non-canonical spellings take the strict path"
            `Quick test_read_hex_noncanonical;
          Alcotest.test_case "read_int equals int_of_string" `Quick
            test_read_int;
          Alcotest.test_case "crc32 equals the Int32 reference" `Quick test_crc;
        ] );
      ( "differential",
        [
          Alcotest.test_case "snapshot mutants" `Quick
            test_snapshot_differential;
          Alcotest.test_case "payload mutants" `Quick
            test_payload_differential;
          Alcotest.test_case "WAL segment mutants" `Quick
            test_wal_differential;
          Alcotest.test_case "INGESTN body mutants" `Quick
            test_batch_record_differential;
        ] );
      ( "store",
        [
          Alcotest.test_case "infinite weights stay readable" `Quick
            test_infinite_weight;
          Alcotest.test_case "warm apply allocates nothing" `Quick
            test_apply_no_alloc;
          Alcotest.test_case "a new key with room allocates nothing" `Quick
            test_new_key_no_alloc;
          Alcotest.test_case "install allocates the columns and index only"
            `Quick test_install_words;
          test_rows_oracle;
          Alcotest.test_case "a long stream matches the Hashtbl oracle" `Quick
            test_rows_oracle_long;
        ] );
    ]
