(** The optsample-serve wire protocol, version 1.

    Newline-delimited: every request is one text line, every response one
    JSON object on one line. On connect the server sends a greeting
    object [{"ok":true,"server":"optsample-serve","protocol":1}]; the
    client must check the [protocol] field before issuing requests.

    Requests (tokens separated by single spaces; [#]-comments and blank
    lines are ignored by the session loop):

    - [HELLO <version>] — optional version assertion; the server rejects
      a version it does not speak.
    - [CREATE <name> [tau=<float>] [k=<int>] [p=<float>]] — register an
      instance (id = creation order). Missing parameters take the store
      defaults.
    - [INGEST <name> <key> <weight>] — feed one record. Weights must be
      finite and positive (they accumulate per key, like repeated flows
      of one destination).
    - [INGESTN <name> <n>] followed by [n] body lines [<key> <weight>] —
      feed a batch of up to {!max_batch} records into one instance,
      answered by a {e single} response once all [n] body lines arrived
      (one parse of the header, one WAL frame, one mailbox push for the
      whole batch). A batch is applied atomically: any invalid body line
      or an overloaded shard rejects the {e whole} batch.
    - [QUERY max|or|distinct|dominance <name> <name> [...]] — estimate a
      multi-instance aggregate from the live summaries.
    - [QUERY jaccard|l1|union|intersection <name> <name> [...]] —
      similarity / distance queries served by the {!Estcore.Monotone} L*
      engine over coordinated PPS summaries. Shared-seed stores only
      ([serve --shared-seeds]); an independent-seed store answers a
      structured [kind="bad_request"] error, as does [l1] with r ≠ 2.
    - [SNAPSHOT <path>] — persist the full store.
    - [STATS] — per-instance and per-shard counters.
    - [FLUSH] — drain all shard mailboxes now.
    - [PULL <name> [since=<epoch>:<records>]] — export one instance's
      mergeable summary ({!Merge.payload} lines) for cluster-mode query
      merging. The response is {e multi-line}: a JSON header whose
      [lines] field announces how many raw payload lines follow (the
      response direction's mirror of INGESTN's request framing). The
      header carries the store's [epoch] (not SYNC's WAL epoch), drawn
      fresh whenever a store is created or restored; the payload header
      carries the instance's [records]. Together they are a cursor:
      with [since=] naming the current epoch, the payload holds the
      current totals but only the [w] lines of keys changed after that
      [records] count, and the header echoes it as [since]. A cursor
      from another epoch gets the full payload.
    - [SYNC] — ship the full store as snapshot text (same multi-line
      framing); with a WAL attached the server takes a
      {!Wal.checkpoint} first and reports the new [epoch] — how a
      follower receives checkpoints for failover.
    - [QUIT] — end the session (connection closes).
    - [SHUTDOWN] — end the session and stop the accept loop.

    Parsers are strict in the {!Sampling.Io} style: any malformed token
    yields a structured {!parse_error} carrying the offending input, and
    the session answers with an error object instead of dying. *)

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
      (** the INGESTN {e header} only — the [count] body lines are
          connection-level framing, collected by the transport (see
          {!parse_batch_record}) and executed through
          [Engine.handle_ingest_many] *)
  | Query of { kind : query_kind; names : string list }
  | Snapshot of string
  | Stats
  | Flush
  | Pull of { name : string; since : (int * int) option }
      (** export one instance's mergeable summary; [since] is an
          [(epoch, records)] cursor asking for the keys changed after it *)
  | Sync  (** checkpoint (when a WAL is attached) and ship the snapshot *)
  | Quit
  | Shutdown

val version : int
(** Protocol version spoken by this build (1). *)

val max_batch : int
(** Largest [n] an [INGESTN] header may declare (1024) — sized so one
    batch always encodes as one [Wal] frame under {!Wal.max_payload}. *)

val query_kind_name : query_kind -> string

val valid_name : string -> bool
(** Instance names are [[A-Za-z0-9_.-]+] — no escaping on the wire. *)

val parse : string -> (request, Sampling.Io.parse_error) result
(** Parse one request line. The [line] field of an error is 0 (sessions
    number their own requests). *)

val parse_batch_record :
  ?line:int -> string -> (int * float, Sampling.Io.parse_error) result
(** Parse one [INGESTN] body line [<key> <weight>] — same grammar and
    validation (finite, positive weight) as the INGEST tokens. [line]
    (1-based body line index, default 0 = unnumbered) stamps the error,
    so a bad weight inside a batch is diagnosed as ["line <n>: ..."]. *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal digits of an integer, as [%d] prints them. *)

val add_hex : Buffer.t -> float -> unit
(** Append a float as a lossless hex literal, byte for byte what [%h]
    prints. *)

val batch_payload : name:string -> (int * float) array -> string
(** The whole batch as one multi-line request payload (header plus body
    lines, no trailing newline) — what {!Client.ingest_many} writes in a
    single send so a retried batch is resent atomically. Weights are
    emitted as lossless [%h] hex literals. Raises [Invalid_argument]
    when the record count is outside [\[1, max_batch\]]. *)

(** {2 Response assembly}

    One JSON object per line, assembled field by field — same house
    style as the bench JSON, so responses stay awk/grep-friendly. *)

val greeting : string
val ok_fields : (string * string) list -> string
(** [ok_fields fields] is [{"ok":true,<fields>}]; field values must
    already be valid JSON fragments (use {!jstr}/{!jfloat}/{!jint}). *)

val ok_lines : (string * string) list -> string list -> string
(** Multi-line response: [ok_fields] header extended with a ["lines"]
    count, followed by the raw payload lines, newline-joined (the
    transport appends the final newline). Clients read the header, then
    exactly [lines] more lines — see {!Client.request_lines}. *)

val error : ?kind:string -> ?retry_after_ms:int -> string -> string
(** [{"ok":false,"error":<msg>}], optionally extended with a
    machine-readable ["kind"] (e.g. ["overloaded"], ["timeout"],
    ["line_too_long"]) and a ["retry_after_ms"] back-off hint — how
    clients distinguish back-off-and-retry from fix-your-request
    without parsing prose. *)

val jstr : string -> string
(** JSON string literal with escaping. *)

val jfloat : float -> string
(** Lossless float literal: decimal shortest round-trip via ["%.17g"]
    (JSON has no hex floats), with NaN/infinity mapped to strings. *)

val jint : int -> string

(** {2 Response inspection (client side)} *)

val json_field : string -> string -> string option
(** [json_field key line] extracts the raw value of a top-level
    ["key": value] pair from a one-line JSON object (sufficient for the
    flat objects this protocol emits — values never contain braces). *)

val json_float_field : string -> string -> float option
val json_ok : string -> bool

(** {2 Line-oriented connection I/O (client side)}

    Blocking buffered line I/O for {!Client} and the tests — the daemon
    itself speaks nonblocking [Unix.read]/[Unix.write] inside its event
    loop and never touches this module (enforced by [bench/lint.sh]);
    the shard-owned code paths (store, engine, snapshot) stay free of
    socket syscalls entirely. *)

module Conn : sig
  type t

  val of_fd : Unix.file_descr -> t

  val input_line_opt : t -> string option
  (** Next line ([None] at EOF, or on a read timeout — the caller cannot
      use a half-received line either way). Strips a trailing CR. *)

  val output_line : t -> string -> unit
  (** Write the line plus ['\n'] and flush. *)

  val close : t -> unit

  (** Both directions consult the {!Numerics.Faultify} I/O plane (sites
      ["conn.read"], ["conn.write"]): an injected [Io_drop] closes the
      connection mid-operation, an injected [Io_delay] stalls a read —
      the client retry and server timeout tests drive on these. *)
end
