(** Line-protocol client for the daemon (tests, the [optsample client]
    subcommand, and the replay bench).

    [connect_*] checks the server greeting — wrong protocol version or a
    non-greeting first line is an [Error], per the versioning contract in
    {!Protocol}. *)

type t

val connect : Unix.sockaddr -> (t, string) result
val connect_tcp : ?host:string -> port:int -> unit -> (t, string) result
val connect_unix : path:string -> (t, string) result

val request : t -> string -> (string, string) result
(** Send one request line, read the one-line JSON response. [Error] on a
    closed connection (the client remembers the drop; a later
    {!request_retry} reconnects, {!request} does not). The response is
    returned verbatim — inspect it with {!Protocol.json_field} /
    {!Protocol.json_float_field} / {!Protocol.json_ok}. *)

val request_lines : t -> string -> (string * string list, string) result
(** Send a request whose response may be multi-line (PULL, SYNC): read
    the JSON header, then exactly as many raw payload lines as its
    [lines] field announces. A response without a [lines] field (an
    error object, or any single-line response) returns with an empty
    payload list. A dropped connection is re-dialed once before the
    request; a drop {e mid-payload} is an [Error] (a half-read payload
    cannot be resumed). *)

(** {2 Pipelining} *)

type pipeline

val pipeline_send : t -> string list -> pipeline
(** Write the request lines in one write, reading nothing: send to
    several servers, then {!pipeline_recv} from each, and they all work
    at once. For requests that may be sent twice (reads such as PULL). *)

val pipeline_recv : pipeline -> ((string * string list) list, string) result
(** The responses to a {!pipeline_send}, in order, each read like
    {!request_lines}. A connection that dropped before the first
    response header arrived is re-dialed once and the lines resent; a
    drop after it is an [Error]. *)

(** {2 Retry} *)

type retry = {
  attempts : int;  (** total tries, including the first *)
  base_delay_ms : int;
  max_delay_ms : int;
  seed : int;  (** jitter stream seed — fix it for reproducible schedules *)
}

val default_retry : retry
(** [attempts = 5], [base_delay_ms = 10], [max_delay_ms = 2000],
    [seed = 42]. *)

val backoff_ms : Numerics.Prng.t -> retry -> attempt:int -> int
(** Exponential backoff with {e full} jitter: a uniform draw from
    [\[0, min (max_delay_ms, base_delay_ms * 2^attempt))]. Full jitter
    desynchronizes a thundering herd fastest; exposed for the schedule
    tests. *)

val clamp_hint_ms : retry -> attempt:int -> float -> int option
(** Validate a server's [retry_after_ms] hint: [None] for NaN, infinite
    or negative values (the hint is discarded and jittered backoff
    used), otherwise the hint clamped to this attempt's backoff envelope
    [min (max_delay_ms, base_delay_ms * 2^attempt)] — a confused or
    malicious server can speed a retry up but never stall the client
    past its own schedule. Exposed for the validation tests. *)

val request_retry :
  ?retry:retry -> ?sleep:(int -> unit) -> t -> string -> (string, string) result
(** {!request} with retries: a dropped connection is re-dialed (fresh
    socket, greeting re-checked) and a structured [kind="overloaded"]
    response backs off and resends — honoring the server's
    [retry_after_ms] hint when present, jittered backoff otherwise.
    Non-retryable responses (ok, or any other error) return immediately.
    [sleep] (milliseconds; default a [select]-based wait) is injectable
    so tests can record the schedule instead of waiting it out. *)

val ingest_many :
  ?retry:retry ->
  ?sleep:(int -> unit) ->
  t ->
  name:string ->
  (int * float) array ->
  (string, string) result
(** Batched ingest: the records are sent as [INGESTN] payloads
    ({!Protocol.batch_payload}, chunks of at most {!Protocol.max_batch})
    with {!request_retry} semantics per chunk — a shed or dropped batch
    is retried {e whole} (the server's all-or-nothing admission
    guarantees it was never half-applied). A batch that fits one chunk
    returns the server's response verbatim; larger inputs return a
    synthesized [{"ok":true,"ingested":<total>}] on success, or the
    first failing chunk's response/error (records after it unsent). An
    empty array sends nothing and answers [ingested = 0]. *)

val close : t -> unit
