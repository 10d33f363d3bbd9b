(** The serving loop: a readiness-driven multi-client TCP / Unix-socket
    daemon over {!Protocol} + {!Engine}, stdlib [Unix] only.

    All sockets are nonblocking and multiplexed through one
    [Unix.select] on a single domain — up to [max_conns] connections
    stay open at once, while request {e execution} remains sequential,
    which is exactly the store's single-producer ingest contract (the
    parallelism lives below, in the sharded flush, not in the serving
    loop). Each connection is a state machine: an incremental read
    buffer carrying the byte-bounded line discipline, a buffered write
    queue drained as the socket accepts bytes, and an optional in-flight
    [INGESTN] batch collecting body lines. A connection accepted over
    TCP has [TCP_NODELAY] set, so a response is not held back for the
    client's delayed ACK; Unix-socket connections are left as they are.

    Hardening, preserved from the sequential loop and extended:

    - an over-long request line (slowloris, binary garbage) answers a
      structured [kind="line_too_long"] error and closes, without
      unbounded buffering;
    - a connection idle past [read_timeout_s] answers [kind="timeout"]
      and closes (deadlines tracked in the loop; no [SO_RCVTIMEO]
      blocking reads anywhere);
    - a peer that stops consuming responses (write queue past
      [write_highwater]) stops being {e read} until it drains —
      backpressure per connection, never a stall for the others;
    - a malformed request or an engine exception answers an error object
      and keeps the daemon alive; only [SHUTDOWN] (or closing the
      listening socket) stops the loop, and the shutdown drains every
      connection's pending responses (bounded by a 5 s deadline) before
      closing. *)

type config = {
  backlog : int;  (** [Unix.listen] backlog (default 64) *)
  max_line_bytes : int;
      (** reject request lines longer than this (default 8192) *)
  read_timeout_s : float;
      (** idle deadline per connection; [0.] (default) = no timeout *)
  max_conns : int;
      (** accept at most this many simultaneous connections (default
          960 — [Unix.select] is FD_SETSIZE-bound at 1024); excess
          connections wait in the listen backlog *)
  write_highwater : int;
      (** stop reading from a connection whose pending output exceeds
          this many bytes, until it drains (default 256 KiB) *)
}

val default_config : config

val listen_tcp :
  ?host:string -> ?backlog:int -> port:int -> unit -> Unix.file_descr * int
(** Bind + listen on [host:port] (default host ["127.0.0.1"]); returns
    the listening socket and the bound port — pass [port:0] to let the
    kernel pick one (the in-process test harness does). *)

val listen_unix :
  ?backlog:int -> path:string -> unit -> (Unix.file_descr, string) result
(** Bind + listen on a Unix-domain socket path. A stale {e socket} file
    at the path is unlinked and reclaimed; any other kind of file is an
    [Error] — the daemon must never destroy a mistyped data file. *)

(** {2 Pluggable request handling}

    The event loop is transport + framing only; request {e meaning}
    lives behind these hooks. A storage daemon plugs in {!Engine}
    ({!serve}); the cluster {!Router} plugs in fan-out handlers over the
    same loop. INGESTN body collection stays in the loop (it is
    connection-level framing): [on_batch] receives whole, well-formed
    batches, with malformed body lines already answered as line-numbered
    errors. Handler exceptions answer as error objects, same as engine
    exceptions. *)
type handlers = {
  on_request : Protocol.request -> string * Engine.action;
  on_batch : name:string -> (int * float) array -> string;
}

val serve_handlers : ?config:config -> handlers -> Unix.file_descr -> unit
(** Run the event loop on the calling domain until a session issues
    [SHUTDOWN] (i.e. [on_request] returns {!Engine.Stop}). Closes every
    connection and the listening socket before returning. Instrumented
    with [server.accept] / [server.session.timeout] /
    [server.session.line_too_long] counters. *)

val serve : ?config:config -> Engine.t -> Unix.file_descr -> unit
(** {!serve_handlers} over {!Engine.handle_request} /
    {!Engine.handle_ingest_many}. *)

(** {2 In-process daemon (tests, bench)} *)

type t
(** A daemon running on its own domain. *)

val start : ?config:config -> Engine.t -> t
(** Bind [127.0.0.1:0], then run {!serve} on a fresh domain. The engine
    (and its store) must not be touched directly by other domains while
    the daemon runs — talk to it through a {!Client}. *)

val start_handlers : ?config:config -> handlers -> t
(** {!start} with custom {!handlers} (how tests run an in-process
    {!Router}). The handlers run on the daemon's domain — any state they
    close over must not be touched by other domains while it runs. *)

val port : t -> int

val join : t -> unit
(** Wait for the daemon domain to finish (send [SHUTDOWN] first). *)
