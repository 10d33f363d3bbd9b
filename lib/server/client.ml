type retry = {
  attempts : int;
  base_delay_ms : int;
  max_delay_ms : int;
  seed : int;
}

let default_retry =
  { attempts = 5; base_delay_ms = 10; max_delay_ms = 2000; seed = 42 }

type t = {
  addr : Unix.sockaddr;
  mutable conn : Protocol.Conn.t option;  (* [None] after a drop *)
}

let handshake addr conn =
  match Protocol.Conn.input_line_opt conn with
  | None -> Error "connection closed before greeting"
  | Some greeting ->
      if not (Protocol.json_ok greeting) then
        Error (Printf.sprintf "bad greeting %S" greeting)
      else (
        match Protocol.json_field "protocol" greeting with
        | Some v when v = string_of_int Protocol.version ->
            Ok { addr; conn = Some conn }
        | Some v ->
            Error
              (Printf.sprintf "server speaks protocol %s, this client %d" v
                 Protocol.version)
        | None -> Error (Printf.sprintf "greeting has no protocol field: %S" greeting))

let dial sockaddr =
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> Ok (Protocol.Conn.of_fd fd)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let connect sockaddr = Result.bind (dial sockaddr) (handshake sockaddr)

let connect_tcp ?(host = "127.0.0.1") ~port () =
  connect (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))

let connect_unix ~path = connect (Unix.ADDR_UNIX path)

(* Re-establish after a drop: fresh socket, fresh greeting. The
   greeting's protocol check already passed once; re-checking costs one
   comparison and guards against the server restarting as something
   else. *)
let reconnect t =
  match dial t.addr with
  | Error _ as e -> e
  | Ok conn -> (
      match Protocol.Conn.input_line_opt conn with
      | Some greeting
        when Protocol.json_ok greeting
             && Protocol.json_field "protocol" greeting
                = Some (string_of_int Protocol.version) ->
          t.conn <- Some conn;
          Ok conn
      | Some greeting ->
          Protocol.Conn.close conn;
          Error (Printf.sprintf "bad greeting on reconnect: %S" greeting)
      | None ->
          Protocol.Conn.close conn;
          Error "connection closed before greeting on reconnect")

let request t line =
  match t.conn with
  | None -> Error "connection closed"
  | Some conn -> (
      match
        Protocol.Conn.output_line conn line;
        Protocol.Conn.input_line_opt conn
      with
      | Some response -> Ok response
      | None ->
          Protocol.Conn.close conn;
          t.conn <- None;
          Error "connection closed"
      | exception Sys_error m ->
          Protocol.Conn.close conn;
          t.conn <- None;
          Error m)

(* Exponential backoff with full jitter: attempt [i] sleeps
   uniform[0, min(max_delay, base * 2^i)) milliseconds. Full jitter
   (rather than equal or decorrelated) desynchronizes a thundering herd
   fastest; the draw comes from a seeded Numerics.Prng stream so retry
   schedules are reproducible in tests. *)
let envelope_ms retry ~attempt =
  min (float_of_int retry.max_delay_ms)
    (float_of_int retry.base_delay_ms *. Float.of_int (1 lsl min attempt 20))

let backoff_ms rng retry ~attempt =
  int_of_float (Numerics.Prng.float rng *. envelope_ms retry ~attempt)

(* A server's retry_after_ms is advice, not authority: a NaN, infinite
   or negative hint (confused or malicious server) is discarded, and a
   valid one is clamped into the same envelope this attempt's jittered
   backoff draws from — a peer can speed our retry up, never stall us
   past our own schedule. The comparison happens in float space, so an
   absurd 1e300 never reaches int_of_float (whose result is undefined
   outside [min_int, max_int]). *)
let clamp_hint_ms retry ~attempt hint =
  if Float.is_finite hint && hint >= 0. then
    Some (int_of_float (Float.min hint (envelope_ms retry ~attempt)))
  else None

(* select-based sleep (the blocking sleep syscalls are banned under
   lib/server — they would park a pool domain if a client ever runs on
   one). *)
let default_sleep ms =
  if ms > 0 then ignore (Unix.select [] [] [] (float_of_int ms /. 1000.))

let retryable_response response =
  (not (Protocol.json_ok response))
  && Protocol.json_field "kind" response = Some "overloaded"

let request_retry ?(retry = default_retry) ?(sleep = default_sleep) t line =
  (* A fresh seeded stream per call: retry schedules are reproducible
     in tests, and distinct [retry.seed]s desynchronize distinct
     clients. *)
  let rng = Numerics.Prng.create ~seed:retry.seed () in
  let rec go attempt =
    let outcome =
      match t.conn with
      | Some _ -> request t line
      | None -> Result.bind (reconnect t) (fun _ -> request t line)
    in
    let retry_again hint =
      if attempt + 1 >= retry.attempts then outcome
      else begin
        let ms =
          match Option.bind hint (clamp_hint_ms retry ~attempt) with
          | Some ms -> ms
          | None -> backoff_ms rng retry ~attempt
        in
        sleep ms;
        go (attempt + 1)
      end
    in
    match outcome with
    | Ok response when retryable_response response ->
        (* The server shed the request: honor its retry_after_ms hint
           when present and sane (validated + clamped into this
           attempt's backoff envelope), jittered backoff otherwise. *)
        retry_again (Protocol.json_float_field "retry_after_ms" response)
    | Ok _ -> outcome
    | Error _ -> retry_again None
  in
  go 0

(* Multi-line responses (PULL, SYNC): the header's "lines" field says
   how many raw payload lines follow. *)
let drop t conn =
  Protocol.Conn.close conn;
  t.conn <- None

let read_payload t conn header =
  let announced =
    if Protocol.json_ok header then
      Option.bind (Protocol.json_field "lines" header) int_of_string_opt
    else None
  in
  match announced with
  | None -> Ok (header, [])
  | Some n ->
      let rec go i acc =
        if i = n then Ok (header, List.rev acc)
        else
          match Protocol.Conn.input_line_opt conn with
          | Some l -> go (i + 1) (l :: acc)
          | None ->
              drop t conn;
              Error
                (Printf.sprintf "connection closed after %d of %d payload lines"
                   i n)
      in
      go 0 []

(* Pipelining: every request line goes out in one write before any
   response is read. A drop before the first response header arrives
   left nothing half-read, so the connection is re-dialed once and the
   requests resent (a restarted backend is transparent, as with
   request_retry); a drop after it is an error — there is no way to
   resume a half-read response. *)
type pipeline = { p_client : t; p_lines : string list; p_sent : bool }

let write_lines t lines =
  match t.conn with
  | None -> false
  | Some conn -> (
      match Protocol.Conn.output_line conn (String.concat "\n" lines) with
      | () -> true
      | exception Sys_error _ ->
          drop t conn;
          false)

let pipeline_send t lines =
  { p_client = t; p_lines = lines; p_sent = (lines = [] || write_lines t lines) }

let read_responses t n =
  match t.conn with
  | None -> `Unread
  | Some conn ->
      let rec go i acc =
        if i = n then `Read (List.rev acc)
        else
          match Protocol.Conn.input_line_opt conn with
          | None ->
              drop t conn;
              if i = 0 then `Unread
              else
                `Failed
                  (Printf.sprintf "connection closed after %d of %d responses"
                     i n)
          | Some header -> (
              match read_payload t conn header with
              | Ok r -> go (i + 1) (r :: acc)
              | Error m -> `Failed m)
      in
      go 0 []

let pipeline_recv { p_client = t; p_lines = lines; p_sent } =
  let n = List.length lines in
  let first =
    if n = 0 then `Read [] else if p_sent then read_responses t n else `Unread
  in
  match first with
  | `Read rs -> Ok rs
  | `Failed m -> Error m
  | `Unread -> (
      match reconnect t with
      | Error _ as e -> e
      | Ok _ -> (
          if not (write_lines t lines) then Error "connection closed"
          else
            match read_responses t n with
            | `Read rs -> Ok rs
            | `Failed m -> Error m
            | `Unread -> Error "connection closed"))

let request_lines t line =
  match pipeline_recv (pipeline_send t [ line ]) with
  | Ok [ r ] -> Ok r
  | Ok rs ->
      Error (Printf.sprintf "%d responses to one request" (List.length rs))
  | Error _ as e -> e

(* Batched ingest: the whole batch travels as one multi-line payload
   through [request_retry] — [Protocol.Conn.output_line] writes the
   payload verbatim plus one newline, and the server answers exactly one
   response per batch. Retry semantics therefore match the single-op
   path for free: a shed (kind="overloaded") or dropped batch is resent
   {e whole} on a fresh payload write, and the server's all-or-nothing
   admission guarantees it was never half-applied. *)
let ingest_many ?retry ?sleep t ~name records =
  let n = Array.length records in
  if n = 0 then Ok (Protocol.ok_fields [ ("ingested", Protocol.jint 0) ])
  else begin
    let chunk = Protocol.max_batch in
    let rec go start acc =
      if start >= n then
        Ok (Protocol.ok_fields [ ("ingested", Protocol.jint acc) ])
      else
        let len = min chunk (n - start) in
        let payload =
          Protocol.batch_payload ~name (Array.sub records start len)
        in
        match request_retry ?retry ?sleep t payload with
        | Error _ as e -> e
        | Ok response when not (Protocol.json_ok response) -> Ok response
        | Ok response ->
            if start + len >= n && start = 0 then Ok response
            else go (start + len) (acc + len)
    in
    go 0 0
  end

let close t =
  match t.conn with
  | Some conn ->
      Protocol.Conn.close conn;
      t.conn <- None
  | None -> ()
