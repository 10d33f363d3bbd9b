type query_kind =
  | Max
  | Or
  | Distinct
  | Dominance
  | Jaccard
  | L1
  | Union
  | Intersection

type request =
  | Hello of int
  | Create of {
      name : string;
      tau : float option;
      k : int option;
      p : float option;
    }
  | Ingest of { name : string; key : int; weight : float }
  | Ingest_many of { name : string; count : int }
  | Query of { kind : query_kind; names : string list }
  | Snapshot of string
  | Stats
  | Flush
  | Pull of { name : string; since : (int * int) option }
  | Sync
  | Quit
  | Shutdown

let version = 1

(* Batch size cap: 1024 records per INGESTN frame keeps the worst-case
   WAL payload ("B <name> <n>" + 1024 "<key> <%h weight>" pairs, ~45
   bytes each) comfortably under [Wal.max_payload] (64 KiB), so one
   batch is always one loggable frame. *)
let max_batch = 1024

let query_kind_name = function
  | Max -> "max"
  | Or -> "or"
  | Distinct -> "distinct"
  | Dominance -> "dominance"
  | Jaccard -> "jaccard"
  | L1 -> "l1"
  | Union -> "union"
  | Intersection -> "intersection"

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s

let err message = Error { Sampling.Io.line = 0; message }

let parse_name what s =
  if valid_name s then Ok s
  else
    err
      (Printf.sprintf "bad %s %S (expected [A-Za-z0-9_.-]+)" what s)

(* Weights and thresholds arrive as decimal or hex float literals; both
   are accepted, both must be finite. *)
let parse_float what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> Ok v
  | Some v -> err (Printf.sprintf "%s %g is not finite" what v)
  | None -> err (Printf.sprintf "bad %s %S (expected a float)" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> err (Printf.sprintf "bad %s %S (expected an integer)" what s)

let ( let* ) = Result.bind

(* A PULL cursor, [since=<epoch>:<records>]: both non-negative
   integers, as a PULL response header reports them. *)
let parse_cursor tok =
  let bad () =
    err
      (Printf.sprintf "bad PULL cursor %S (expected since=<epoch>:<records>)"
         tok)
  in
  match String.split_on_char '=' tok with
  | [ "since"; cursor ] -> (
      match String.split_on_char ':' cursor with
      | [ epoch; records ] -> (
          match (int_of_string_opt epoch, int_of_string_opt records) with
          | Some e, Some r when e >= 0 && r >= 0 -> Ok (e, r)
          | _ -> bad ())
      | _ -> bad ())
  | _ -> bad ()

(* CREATE parameters are [key=value] tokens; unknown keys are rejected
   (a typo must not silently fall back to a default). *)
let parse_create_params tokens =
  let rec go acc = function
    | [] -> Ok acc
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None ->
            err (Printf.sprintf "bad CREATE parameter %S (expected key=value)" tok)
        | Some i -> (
            let key = String.sub tok 0 i in
            let value = String.sub tok (i + 1) (String.length tok - i - 1) in
            let tau, k, p = acc in
            match key with
            | "tau" ->
                let* v = parse_float "tau" value in
                if v <= 0. then err (Printf.sprintf "tau %g must be > 0" v)
                else go (Some v, k, p) rest
            | "k" ->
                let* v = parse_int "k" value in
                if v <= 0 then err (Printf.sprintf "k %d must be > 0" v)
                else go (tau, Some v, p) rest
            | "p" ->
                let* v = parse_float "p" value in
                if v <= 0. || v > 1. then
                  err (Printf.sprintf "p %g out of (0,1]" v)
                else go (tau, k, Some v) rest
            | _ ->
                err
                  (Printf.sprintf
                     "unknown CREATE parameter %S (expected tau=, k= or p=)" key)))
  in
  go (None, None, None) tokens

let parse line =
  let tokens =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> err "empty request"
  | verb :: args -> (
      match (String.uppercase_ascii verb, args) with
      | "HELLO", [ v ] ->
          let* v = parse_int "protocol version" v in
          if v <> version then
            err
              (Printf.sprintf "unsupported protocol version %d (this server \
                               speaks %d)" v version)
          else Ok (Hello v)
      | "HELLO", _ -> err "HELLO takes exactly one argument: the version"
      | "CREATE", name :: params ->
          let* name = parse_name "instance name" name in
          let* tau, k, p = parse_create_params params in
          Ok (Create { name; tau; k; p })
      | "CREATE", [] -> err "CREATE needs an instance name"
      | "INGEST", [ name; key; weight ] ->
          let* name = parse_name "instance name" name in
          let* key = parse_int "key" key in
          let* weight = parse_float "weight" weight in
          if weight <= 0. then
            err (Printf.sprintf "weight %g must be > 0" weight)
          else Ok (Ingest { name; key; weight })
      | "INGEST", _ -> err "INGEST takes: <instance> <key> <weight>"
      | "INGESTN", [ name; count ] ->
          let* name = parse_name "instance name" name in
          let* count = parse_int "record count" count in
          if count < 1 || count > max_batch then
            err
              (Printf.sprintf "record count %d out of [1,%d]" count max_batch)
          else Ok (Ingest_many { name; count })
      | "INGESTN", _ ->
          err
            (Printf.sprintf
               "INGESTN takes: <instance> <count>, followed by <count> body \
                lines '<key> <weight>' (count <= %d)" max_batch)
      | "QUERY", kind :: names ->
          let* kind =
            match String.lowercase_ascii kind with
            | "max" -> Ok Max
            | "or" -> Ok Or
            | "distinct" -> Ok Distinct
            | "dominance" -> Ok Dominance
            | "jaccard" -> Ok Jaccard
            | "l1" -> Ok L1
            | "union" -> Ok Union
            | "intersection" -> Ok Intersection
            | k ->
                err
                  (Printf.sprintf
                     "unknown query kind %S (expected max, or, distinct, \
                      dominance, jaccard, l1, union or intersection)" k)
          in
          if List.length names < 2 then
            err "QUERY needs at least two instance names"
          else
            let* names =
              List.fold_left
                (fun acc n ->
                  let* acc = acc in
                  let* n = parse_name "instance name" n in
                  Ok (n :: acc))
                (Ok []) names
            in
            Ok (Query { kind; names = List.rev names })
      | "QUERY", _ -> err "QUERY takes: <kind> <instance> <instance> [...]"
      | "SNAPSHOT", [ path ] when path <> "" -> Ok (Snapshot path)
      | "SNAPSHOT", _ -> err "SNAPSHOT takes exactly one argument: the path"
      | "STATS", [] -> Ok Stats
      | "STATS", _ -> err "STATS takes no arguments"
      | "FLUSH", [] -> Ok Flush
      | "FLUSH", _ -> err "FLUSH takes no arguments"
      | "PULL", [ name ] ->
          let* name = parse_name "instance name" name in
          Ok (Pull { name; since = None })
      | "PULL", [ name; cursor ] ->
          let* name = parse_name "instance name" name in
          let* since = parse_cursor cursor in
          Ok (Pull { name; since = Some since })
      | "PULL", _ ->
          err "PULL takes: <instance> [since=<epoch>:<records>]"
      | "SYNC", [] -> Ok Sync
      | "SYNC", _ -> err "SYNC takes no arguments"
      | "QUIT", [] -> Ok Quit
      | "QUIT", _ -> err "QUIT takes no arguments"
      | "SHUTDOWN", [] -> Ok Shutdown
      | "SHUTDOWN", _ -> err "SHUTDOWN takes no arguments"
      | v, _ -> err (Printf.sprintf "unknown request %S" v))

(* --- number readers ---

   The inverses of [add_int] / [add_hex] below, over a token
   [s.[pos .. stop-1]] read in place, so a scanner walks a whole text
   without cutting it into lines or tokens. The spellings those writers
   print are read directly; any other token is copied out and handed to
   [int_of_string] / [float_of_string], so every reader accepts exactly
   what those accept, gives the same value and raises the same
   [Failure]. *)

let check_span what s pos stop =
  if pos < 0 || stop < pos || stop > String.length s then
    invalid_arg (Printf.sprintf "Protocol.%s: bad span %d..%d" what pos stop)

let slow_int s pos stop = int_of_string (String.sub s pos (stop - pos))

(* The digits of [s.[first .. stop-1]] after [acc]; the whole token
   [s.[pos .. stop-1]] goes the slow way at the first non-digit. *)
let rec digits s pos first stop i acc =
  if i = stop then if first = pos then acc else -acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        digits s pos first stop (i + 1) ((10 * acc) + Char.code c - 48)
    | _ -> slow_int s pos stop

(* [-]<1 to 18 decimal digits>: too few digits to overflow. *)
let read_int s pos stop =
  check_span "read_int" s pos stop;
  let first =
    if pos < stop && String.unsafe_get s pos = '-' then pos + 1 else pos
  in
  if stop - first < 1 || stop - first > 18 then slow_int s pos stop
  else digits s pos first stop first 0

(* The value of each lower-case hex digit, -1 for every other byte. *)
let hex_values =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - 48
      | 'a' .. 'f' -> c - 87
      | _ -> -1)

let slow_hex s pos stop = float_of_string (String.sub s pos (stop - pos))

(* [%h] of a normal float: [-]0x1[.<1 to 13 nibbles>]p<sign><digits>
   with the exponent in [-1022, 1023]. The 53-bit significand is an
   exact integer and the scaled result a normal float, so [Float.ldexp]
   is exact and equals [float_of_string]. Subnormals (lead digit 0),
   zero and non-finite values take the copying path. *)
let read_hex s pos stop =
  check_span "read_hex" s pos stop;
  let neg = pos < stop && String.unsafe_get s pos = '-' in
  let i = if neg then pos + 1 else pos in
  if
    stop - i < 6
    || String.unsafe_get s i <> '0'
    || String.unsafe_get s (i + 1) <> 'x'
    || String.unsafe_get s (i + 2) <> '1'
  then slow_hex s pos stop
  else begin
    (* [j] walks the token; [frac] collects the fraction's nibbles. *)
    let j = ref (i + 3) and frac = ref 0 and nibbles = ref 0 in
    if String.unsafe_get s !j = '.' then begin
      incr j;
      let d = ref 0 in
      while
        !j < stop
        && !nibbles <= 13
        && begin
             d := hex_values.(Char.code (String.unsafe_get s !j));
             !d >= 0
           end
      do
        frac := (!frac lsl 4) lor !d;
        incr nibbles;
        incr j
      done
    end;
    let fraction_ok =
      !nibbles <= 13 && (!nibbles > 0 || String.unsafe_get s (i + 3) <> '.')
    in
    if
      (not fraction_ok)
      || stop - !j < 3
      || String.unsafe_get s !j <> 'p'
      || (String.unsafe_get s (!j + 1) <> '+'
         && String.unsafe_get s (!j + 1) <> '-')
      || stop - !j > 6
    then slow_hex s pos stop
    else begin
      let exp_neg = String.unsafe_get s (!j + 1) = '-' in
      let e = ref 0 and ok = ref true in
      for d = !j + 2 to stop - 1 do
        match String.unsafe_get s d with
        | '0' .. '9' as c -> e := (10 * !e) + Char.code c - 48
        | _ -> ok := false
      done;
      let e = if exp_neg then - !e else !e in
      if (not !ok) || e < -1022 || e > 1023 then slow_hex s pos stop
      else
        let m = (1 lsl 52) lor (!frac lsl (4 * (13 - !nibbles))) in
        let x = Float.ldexp (Float.of_int m) (e - 52) in
        if neg then -.x else x
    end
  end

(* Token scanning for the in-place readers: the characters [String.trim]
   drops, and the bounds of space-separated tokens. *)
let is_trim c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec skip_spaces s i stop =
  if i < stop && String.unsafe_get s i = ' ' then skip_spaces s (i + 1) stop
  else i

let rec token_end s i stop =
  if i < stop && String.unsafe_get s i <> ' ' then token_end s (i + 1) stop
  else i

(* A batch body line is "<key> <weight>" — same key/weight grammar and
   validation as INGEST, without re-tokenizing the verb and name n
   times. [line] (1-based body line index) stamps any diagnostic, so a
   NaN/infinite/negative weight deep inside a batch is reported with the
   offending body line, exactly like the single-line path reports the
   offending tokens. The line is read in place, as [parse] reads it: the
   trimmed text split at runs of spaces, which must give two tokens. *)
let parse_batch_record ?(line = 0) s =
  let stamp message = Error { Sampling.Io.line; message } in
  let a = ref 0 and b = ref (String.length s) in
  while !a < !b && is_trim s.[!a] do incr a done;
  while !b > !a && is_trim s.[!b - 1] do decr b done;
  let stop = !b in
  let k0 = !a in
  let k1 = token_end s k0 stop in
  let w0 = skip_spaces s k1 stop in
  let w1 = token_end s w0 stop in
  if k0 = k1 || w0 = w1 || skip_spaces s w1 stop <> stop then
    stamp "batch record takes: <key> <weight>"
  else
    match read_int s k0 k1 with
    | exception Failure _ ->
        stamp
          (Printf.sprintf "bad key %S (expected an integer)"
             (String.sub s k0 (k1 - k0)))
    | key -> (
        match read_hex s w0 w1 with
        | exception Failure _ ->
            stamp
              (Printf.sprintf "bad weight %S (expected a float)"
                 (String.sub s w0 (w1 - w0)))
        | weight ->
            if not (Float.is_finite weight) then
              stamp (Printf.sprintf "weight %g is not finite" weight)
            else if weight <= 0. then
              stamp (Printf.sprintf "weight %g must be > 0" weight)
            else Ok (key, weight))

(* --- number writers ---

   The per-record and per-key lines (INGESTN bodies, summary payloads)
   are written straight into a buffer: one [Printf.sprintf] per line
   cost more than everything else in writing them. Both writers print
   exactly what [%d] / [%h] print. *)

(* Each writer fills a small local byte string and appends it with one
   blit. Digits are taken on the non-positive side, where [min_int] has
   a magnitude; [-4611686018427387904] is the longest at 20 bytes. *)
let add_int buf n =
  let b = Bytes.create 20 in
  let i = ref 20 and m = ref (if n > 0 then -n else n) in
  if n = 0 then begin
    decr i;
    Bytes.unsafe_set b !i '0'
  end;
  while !m <> 0 do
    decr i;
    Bytes.unsafe_set b !i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then begin
    decr i;
    Bytes.unsafe_set b !i '-'
  end;
  Buffer.add_subbytes buf b !i (20 - !i)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

(* [%h] of a finite float: [-]0x<lead>[.<fraction>]p<exponent>, the
   lead digit 1 for normal numbers and 0 for subnormals and zero, the
   52-bit fraction in hex with its trailing zeros dropped, the exponent
   in signed decimal; [-0x1.fffffffffffffp-1022] is the longest at 24
   bytes. Non-finite values go through [%h] itself. *)
let add_hex buf x =
  if not (Float.is_finite x) then Buffer.add_string buf (Printf.sprintf "%h" x)
  else begin
    let b = Bytes.create 24 in
    (* The 63-bit [Int64.to_int] drops only the sign bit. *)
    let bits = Int64.to_int (Int64.bits_of_float x) in
    let biased = (bits lsr 52) land 0x7ff in
    let frac = bits land 0xF_FFFF_FFFF_FFFF in
    let p = if Float.sign_bit x then 1 else 0 in
    if p = 1 then Bytes.unsafe_set b 0 '-';
    Bytes.unsafe_set b p '0';
    Bytes.unsafe_set b (p + 1) 'x';
    Bytes.unsafe_set b (p + 2) (if biased > 0 then '1' else '0');
    let p = ref (p + 3) in
    if frac <> 0 then begin
      Bytes.unsafe_set b !p '.';
      let frac = ref frac and nibbles = ref 13 in
      while !frac land 0xf = 0 do
        frac := !frac lsr 4;
        decr nibbles
      done;
      for i = !nibbles downto 1 do
        Bytes.unsafe_set b (!p + i) (hex_digit (!frac land 0xf));
        frac := !frac lsr 4
      done;
      p := !p + !nibbles + 1
    end;
    let exp =
      if biased > 0 then biased - 1023 else if frac = 0 then 0 else -1022
    in
    Bytes.unsafe_set b !p 'p';
    Bytes.unsafe_set b (!p + 1) (if exp < 0 then '-' else '+');
    let e = ref (abs exp) in
    let digits =
      if !e >= 1000 then 4 else if !e >= 100 then 3 else if !e >= 10 then 2
      else 1
    in
    for i = !p + 1 + digits downto !p + 2 do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!e mod 10)));
      e := !e / 10
    done;
    Buffer.add_subbytes buf b 0 (!p + 2 + digits)
  end

(* Shared by Client.ingest_many, the CLI coalescer and the bench: the
   whole batch as one multi-line payload (header + body, no trailing
   newline) so a retry resends it atomically over one write. Weights are
   emitted as lossless hex literals — the server parses back the exact
   same float, so batched and line-at-a-time ingest are bit-identical. *)
let batch_payload ~name records =
  let n = Array.length records in
  if n < 1 || n > max_batch then
    invalid_arg
      (Printf.sprintf "Protocol.batch_payload: %d records out of [1,%d]" n
         max_batch);
  let buf = Buffer.create (24 + (24 * n)) in
  Buffer.add_string buf (Printf.sprintf "INGESTN %s %d" name n);
  Array.iter
    (fun (key, weight) ->
      Buffer.add_char buf '\n';
      add_int buf key;
      Buffer.add_char buf ' ';
      add_hex buf weight)
    records;
  Buffer.contents buf

(* --- response assembly --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""

let jfloat v =
  if Float.is_nan v then jstr "nan"
  else if v = infinity then jstr "inf"
  else if v = neg_infinity then jstr "-inf"
  else Printf.sprintf "%.17g" v

let jint = string_of_int

let ok_fields fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"ok\":true";
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf (json_escape k);
      Buffer.add_string buf "\":";
      Buffer.add_string buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Error responses optionally carry a machine-readable [kind] (e.g.
   "overloaded", "timeout", "line_too_long") and a retry hint, so
   clients can distinguish back-off-and-retry from fix-your-request
   without parsing prose. *)
let error ?kind ?retry_after_ms msg =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "{\"ok\":false,\"error\":";
  Buffer.add_string buf (jstr msg);
  (match kind with
  | Some k ->
      Buffer.add_string buf ",\"kind\":";
      Buffer.add_string buf (jstr k)
  | None -> ());
  (match retry_after_ms with
  | Some ms ->
      Buffer.add_string buf ",\"retry_after_ms\":";
      Buffer.add_string buf (jint ms)
  | None -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let greeting =
  ok_fields
    [ ("server", jstr "optsample-serve"); ("protocol", jint version) ]

(* Multi-line responses (PULL, SYNC): a JSON header whose ["lines"]
   field announces how many raw payload lines follow — the response
   direction's mirror of INGESTN's request framing. Payload lines are
   raw text (the snapshot / summary formats), never JSON. *)
let ok_block fields ~lines buf =
  let header = ok_fields (fields @ [ ("lines", jint lines) ]) in
  let hl = String.length header and bl = max 0 (Buffer.length buf - 1) in
  let out = Bytes.create (hl + 1 + bl) in
  Bytes.blit_string header 0 out 0 hl;
  Bytes.set out hl '\n';
  Buffer.blit buf 0 out (hl + 1) bl;
  Bytes.unsafe_to_string out

(* --- response inspection --- *)

let json_field key line =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle and llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      (* Scan the value: a string (quote-aware) or a scalar up to the
         next top-level ',' or '}'. Values this protocol emits never
         nest objects, so no brace counting is needed. *)
      if start < llen && line.[start] = '"' then begin
        let buf = Buffer.create 16 in
        let rec scan i =
          if i >= llen then None
          else
            match line.[i] with
            | '\\' when i + 1 < llen ->
                Buffer.add_char buf line.[i + 1];
                scan (i + 2)
            | '"' -> Some (Buffer.contents buf)
            | c ->
                Buffer.add_char buf c;
                scan (i + 1)
        in
        scan (start + 1)
      end
      else begin
        let stop = ref start in
        while
          !stop < llen && line.[!stop] <> ',' && line.[!stop] <> '}'
        do
          incr stop
        done;
        if !stop > start then Some (String.sub line start (!stop - start))
        else None
      end

let json_float_field key line =
  Option.bind (json_field key line) float_of_string_opt

let json_ok line = json_field "ok" line = Some "true"

(* --- connection I/O --- *)

module Conn = struct
  module F = Numerics.Faultify

  (* Reads go through the connection's own buffer ([buf.[pos .. len-1]]
     unread), so a multi-line payload can be cut out of it as one block;
     writes go through a channel. *)
  type t = {
    fd : Unix.file_descr;
    oc : out_channel;
    mutable buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
    mutable closed : bool;
  }

  let of_fd fd =
    {
      fd;
      oc = Unix.out_channel_of_descr fd;
      buf = Bytes.create 65536;
      pos = 0;
      len = 0;
      closed = false;
    }

  let close t =
    if not t.closed then begin
      t.closed <- true;
      (* One close for both directions: the channel owns the fd. *)
      try close_out t.oc with Sys_error _ -> ()
    end

  (* select-based sleep: the blocking sleep syscalls are banned under
     lib/server (they park a whole domain); a select with no fds is the
     same wait without tripping the discipline lint. *)
  let sleep_s s = ignore (Unix.select [] [] [] s)

  let read_fault t =
    match F.fire_io ~site:"conn.read" ~kinds:[ F.Io_drop; F.Io_delay ] with
    | Some F.Io_drop ->
        close t;
        true
    | Some F.Io_delay ->
        sleep_s 0.02;
        false
    | _ -> false

  (* Read more bytes after the unread ones, moving them to the front and
     doubling the buffer when it is full; [false] at EOF, on an error or
     a read timeout. *)
  let fill t =
    if t.closed then false
    else begin
      if t.pos > 0 then begin
        Bytes.blit t.buf t.pos t.buf 0 (t.len - t.pos);
        t.len <- t.len - t.pos;
        t.pos <- 0
      end;
      if t.len = Bytes.length t.buf then begin
        let nbuf = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf 0 nbuf 0 t.len;
        t.buf <- nbuf
      end;
      let rec go () =
        match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
        | 0 -> false
        | n ->
            t.len <- t.len + n;
            true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> false
      in
      go ()
    end

  (* The offset from [pos] of the next newline at or after offset [from],
     or -1. *)
  let newline t from =
    let rec go i =
      if i >= t.len then -1
      else if Bytes.unsafe_get t.buf i = '\n' then i - t.pos
      else go (i + 1)
    in
    go (t.pos + from)

  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  (* Cut the first [n] unread bytes out as a string. *)
  let take t n =
    let s = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let input_line_opt t =
    if read_fault t then None
    else
      let rec go from =
        match newline t from with
        | -1 ->
            let from = t.len - t.pos in
            if fill t then go from
            else if t.len > t.pos then Some (strip_cr (take t (t.len - t.pos)))
            else None
        | i ->
            let line = take t i in
            t.pos <- t.pos + 1;
            Some (strip_cr line)
      in
      go 0

  let input_block t n =
    if n < 0 then Error 0
    else if n = 0 then Ok ""
    else if read_fault t then Error 0
    else
      (* [cut]: the unread bytes holding the [found] whole lines seen. *)
      let rec go found cut =
        if found = n then Ok (take t cut)
        else
          match newline t cut with
          | -1 ->
              if fill t then go found cut
              else if t.len - t.pos > cut then
                if found + 1 = n then Ok (take t (t.len - t.pos))
                else Error (found + 1)
              else Error found
          | i -> go (found + 1) (i + 1)
      in
      go 0 0

  let output_line t line =
    match F.fire_io ~site:"conn.write" ~kinds:[ F.Io_drop ] with
    | Some F.Io_drop ->
        close t;
        raise (Sys_error "connection dropped (injected)")
    | _ ->
        output_string t.oc line;
        output_char t.oc '\n';
        flush t.oc
end
