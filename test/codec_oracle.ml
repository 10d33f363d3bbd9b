(* The tokenizing codec readers the in-place scanners replaced, kept as
   test oracles: each splits its input into lines and tokens and reads
   every token with [int_of_string_opt] / [float_of_string_opt], so it
   shares no reading code with the scanner it checks. The one change from
   the code they were is the summary weight rule: +infinity is accepted
   (finite records can sum past [max_float]), NaN and -infinity are not.

   [crc32_update] is the bytewise [Int32] CRC-32 the native-int table
   replaced. *)

module Store = Server.Store
module Protocol = Server.Protocol
module Wal = Server.Wal

let ( let* ) = Result.bind

(* --- CRC-32 (IEEE 802.3, reflected), one boxed Int32 step per byte --- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32_update crc s pos len =
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor crc_table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* --- summary payloads --- *)

(* A summary's weight columns as the list of pairs the oracles read,
   and back. *)
let weights (s : Store.summary) =
  List.init (Array.length s.Store.s_keys) (fun i ->
      (s.Store.s_keys.(i), Float.Array.get s.Store.s_weights i))

(* An instance's export as a summary of its own: {!Store.export_into}
   with the columns copied out at their exact length. *)
let export_summary ?since inst =
  Store.export_into ?since inst (fun s keys ws n ->
      {
        s with
        Store.s_keys = Array.sub keys 0 n;
        s_weights = Float.Array.sub ws 0 n;
      })

let with_weights (s : Store.summary) pairs =
  {
    s with
    Store.s_keys = Array.of_list (List.map fst pairs);
    s_weights = Float.Array.of_list (List.map snd pairs);
  }

let int_field what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S (expected an integer)" what s)

let float_field what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> Ok v
  | Some v -> Error (Printf.sprintf "%s %g is not finite" what v)
  | None -> Error (Printf.sprintf "bad %s %S (expected a hex float)" what s)

let pos_float_field what s =
  match float_field what s with
  | Ok v when not (v > 0.) -> Error (Printf.sprintf "%s %g must be > 0" what v)
  | r -> r

let weight_field s =
  match float_of_string_opt s with
  | Some v when v = infinity -> Ok v
  | _ -> pos_float_field "weight" s

let parse_summary_header line =
  match String.split_on_char ' ' line with
  | [ "summary"; name; id; tau; k; p; records; volume ] ->
      if not (Protocol.valid_name name) then
        Error (Printf.sprintf "invalid instance name %S" name)
      else
        let* id = int_field "instance id" id in
        let* tau = float_field "tau" tau in
        let* k = int_field "k" k in
        let* p = float_field "p" p in
        let* records = int_field "records" records in
        let* volume =
          match float_of_string_opt volume with
          | Some v when v >= 0. -> Ok v
          | _ -> Error (Printf.sprintf "bad volume %S (expected >= 0)" volume)
        in
        let s_cfg = { Store.tau; k; p } in
        let* () = Store.validate_config s_cfg in
        if id < 0 then Error (Printf.sprintf "negative instance id %d" id)
        else if records < 0 then
          Error (Printf.sprintf "negative record count %d" records)
        else
          Ok
            {
              Store.s_name = name;
              s_id = id;
              s_cfg;
              s_records = records;
              s_volume = volume;
              s_keys = [||];
              s_weights = Float.Array.create 0;
            }
  | _ ->
      Error
        (Printf.sprintf
           "expected 'summary <name> <id> <tau> <k> <p> <records> <volume>', \
            got %S"
           line)

let parse_section line items =
  match items with
  | [] -> Error "empty summary payload"
  | header :: rest ->
      let* base = parse_summary_header (line header) in
      let rec go acc = function
        | [] -> Error "truncated summary payload (missing 'end')"
        | item :: rest -> (
            match String.split_on_char ' ' (line item) with
            | [ "end" ] ->
                Ok (with_weights base (List.rev acc), rest)
            | [ "w"; key; v ] -> (
                let* key = int_field "weight key" key in
                let* v = weight_field v in
                match acc with
                | (prev, _) :: _ when key <= prev ->
                    Error (Printf.sprintf "weight keys out of order at %d" key)
                | _ -> go ((key, v) :: acc) rest)
            | _ ->
                Error
                  (Printf.sprintf
                     "bad summary line %S (expected 'w <key> <weight>' or \
                      'end')"
                     (line item)))
      in
      go [] rest

let of_lines lines =
  match parse_section Fun.id lines with
  | Ok (s, []) -> Ok s
  | Ok (_, _ :: _) -> Error "trailing garbage after 'end'"
  | Error _ as e -> e

(* --- snapshots --- *)

type parse_error = Sampling.Io.parse_error = { line : int; message : string }

let err line message = Error { line; message }

let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let lines_of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim (strip_cr l)))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let magic = Server.Snapshot.magic

let parse_snapshot_header n header =
  let field r = Result.map_error (fun message -> { line = n; message }) r in
  match String.split_on_char ' ' header with
  | a :: b :: rest when a ^ " " ^ b = magic -> (
      match rest with
      | [ master; mode; tau; k; p; flush_every; count ] -> (
          let* master = field (int_field "master seed" master) in
          match Store.mode_of_name mode with
          | None ->
              err n
                (Printf.sprintf
                   "bad seed mode %S (expected shared or independent)" mode)
          | Some mode ->
              let* default_tau = field (pos_float_field "default tau" tau) in
              let* default_k = field (int_field "default k" k) in
              let* default_p = field (pos_float_field "default p" p) in
              let* flush_every = field (int_field "flush_every" flush_every) in
              let* count = field (int_field "section count" count) in
              if count < 0 then
                err n (Printf.sprintf "negative section count %d" count)
              else
                Ok
                  ( master,
                    mode,
                    default_tau,
                    default_k,
                    default_p,
                    flush_every,
                    count ))
      | fields ->
          err n
            (Printf.sprintf
               "truncated snapshot header: %d field(s) after %S, expected 7"
               (List.length fields) magic))
  | "optsample-snapshot" :: version :: _ ->
      err n
        (Printf.sprintf
           "snapshot format version %s is not readable (this build reads %S)"
           version magic)
  | _ ->
      err n
        (Printf.sprintf "not an optsample snapshot (header %S, expected %S …)"
           header magic)

let snapshot_of_string_r s =
  match lines_of_string s with
  | [] -> err 0 "empty input"
  | (n, header) :: rest ->
      let* master, mode, default_tau, default_k, default_p, flush_every, count
          =
        parse_snapshot_header n header
      in
      let st =
        Store.create
          {
            Store.default_config with
            Store.master;
            mode;
            default_tau;
            default_k;
            default_p;
            flush_every;
          }
      in
      let rec sections seen = function
        | [] when seen < count ->
            err 0
              (Printf.sprintf "truncated snapshot: %d of %d instance(s)" seen
                 count)
        | [] -> Ok st
        | (n, l) :: _ when seen = count ->
            err n
              (Printf.sprintf "trailing garbage after %d instance(s): %S" count
                 l)
        | ((n, _) :: _) as lines -> (
            match parse_section snd lines with
            | Error m -> err n m
            | Ok (s, _) when s.Store.s_id <> seen ->
                err n
                  (Printf.sprintf "summary id %d out of order (expected %d)"
                     s.Store.s_id seen)
            | Ok (s, rest) -> (
                match Store.install_summary st s with
                | Error m -> err n m
                | Ok _ -> sections (seen + 1) rest))
      in
      sections 0 rest

(* --- WAL op payloads and frames --- *)

let decode_op payload =
  let tokens =
    String.split_on_char ' ' payload |> List.filter (fun t -> t <> "")
  in
  let float_tok what s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v -> Ok v
    | _ -> Error (Printf.sprintf "bad %s %S in op payload" what s)
  in
  let int_tok what s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S in op payload" what s)
  in
  let weight_tok s =
    let* w = float_tok "weight" s in
    if w <= 0. then Error (Printf.sprintf "weight %g must be > 0" w) else Ok w
  in
  match tokens with
  | [ "C"; name; tau; k; p ] when Protocol.valid_name name ->
      let* tau = float_tok "tau" tau in
      let* k = int_tok "k" k in
      let* p = float_tok "p" p in
      Ok (Wal.Create { name; tau; k; p })
  | [ "I"; name; key; weight ] when Protocol.valid_name name ->
      let* key = int_tok "key" key in
      let* weight = weight_tok weight in
      Ok (Wal.Ingest { name; key; weight })
  | "B" :: name :: count :: rest when Protocol.valid_name name ->
      let* count = int_tok "record count" count in
      if count < 1 || List.length rest <> 2 * count then
        Error
          (Printf.sprintf "batch op declares %d records but carries %d tokens"
             count (List.length rest))
      else
        let records = Array.make count (0, 0.) in
        let rec fill i = function
          | key :: weight :: rest ->
              let* key = int_tok "key" key in
              let* weight = weight_tok weight in
              records.(i) <- (key, weight);
              fill (i + 1) rest
          | _ -> Ok (Wal.Ingest_batch { name; records })
        in
        fill 0 rest
  | [ "F" ] -> Ok Wal.Flush
  | _ -> Error (Printf.sprintf "unrecognized op payload %S" payload)

let decode_at s pos =
  let n = String.length s in
  if pos >= n then Wal.End
  else if n - pos < 8 then Wal.Torn "truncated frame header"
  else
    let len = Int32.to_int (String.get_int32_le s pos) in
    if len < 0 || len > Wal.max_payload then
      Wal.Torn (Printf.sprintf "implausible frame length %d" len)
    else if n - pos - 8 < len then Wal.Torn "truncated frame payload"
    else
      let payload = String.sub s (pos + 8) len in
      if crc32_update 0l payload 0 len <> String.get_int32_le s (pos + 4) then
        Wal.Torn "frame CRC mismatch"
      else
        match decode_op payload with
        | Ok op -> Wal.Frame (op, pos + 8 + len)
        | Error m -> Wal.Torn m

(* --- INGESTN body lines --- *)

let parse_batch_record ?(line = 0) s =
  let err message = Error { Sampling.Io.line; message } in
  match
    String.split_on_char ' ' (String.trim s) |> List.filter (fun t -> t <> "")
  with
  | [ key; weight ] -> (
      match int_of_string_opt key with
      | None -> err (Printf.sprintf "bad key %S (expected an integer)" key)
      | Some key -> (
          match float_of_string_opt weight with
          | None ->
              err (Printf.sprintf "bad weight %S (expected a float)" weight)
          | Some w when not (Float.is_finite w) ->
              err (Printf.sprintf "weight %g is not finite" w)
          | Some w when w <= 0. ->
              err (Printf.sprintf "weight %g must be > 0" w)
          | Some w -> Ok (key, w)))
  | _ -> err "batch record takes: <key> <weight>"
