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
  | Pull of string
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
          Ok (Pull name)
      | "PULL", _ -> err "PULL takes exactly one argument: the instance name"
      | "SYNC", [] -> Ok Sync
      | "SYNC", _ -> err "SYNC takes no arguments"
      | "QUIT", [] -> Ok Quit
      | "QUIT", _ -> err "QUIT takes no arguments"
      | "SHUTDOWN", [] -> Ok Shutdown
      | "SHUTDOWN", _ -> err "SHUTDOWN takes no arguments"
      | v, _ -> err (Printf.sprintf "unknown request %S" v))

(* A batch body line is "<key> <weight>" — same key/weight grammar and
   validation as INGEST, without re-tokenizing the verb and name n
   times. [line] (1-based body line index) stamps any diagnostic, so a
   NaN/infinite/negative weight deep inside a batch is reported with the
   offending body line, exactly like the single-line path reports the
   offending tokens. *)
let parse_batch_record ?(line = 0) s =
  let tokens =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun t -> t <> "")
  in
  (match tokens with
  | [ key; weight ] ->
      let* key = parse_int "key" key in
      let* weight = parse_float "weight" weight in
      if weight <= 0. then err (Printf.sprintf "weight %g must be > 0" weight)
      else Ok (key, weight)
  | _ -> err "batch record takes: <key> <weight>")
  |> Result.map_error (fun e -> { e with Sampling.Io.line })

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
      Buffer.add_string buf (Printf.sprintf "\n%d %h" key weight))
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
let ok_lines fields lines =
  String.concat "\n"
    (ok_fields (fields @ [ ("lines", jint (List.length lines)) ]) :: lines)

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

  type t = { ic : in_channel; oc : out_channel }

  let of_fd fd = { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

  let close t =
    (* One close for both channels: they share the fd. *)
    try close_out t.oc with Sys_error _ -> ()

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

  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  let input_line_opt t =
    if read_fault t then None
    else
      match input_line t.ic with
      | line -> Some (strip_cr line)
      | exception End_of_file -> None
      | exception Sys_error _ -> None
      | exception Sys_blocked_io -> None

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
