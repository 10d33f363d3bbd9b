(* Readiness-driven serving loop: the listening socket and every client
   socket are nonblocking and multiplexed through one [Unix.select]
   call, so many connections stay open at once while the store keeps its
   single-producer contract (all request execution happens on this one
   domain). Each connection is a small state machine — an incremental
   read buffer carrying the byte-bounded line discipline, an outgoing
   write queue drained as the socket accepts bytes, and an optional
   in-flight INGESTN batch collecting its body lines. A connection whose
   peer stops reading (write queue past the high-water mark) is simply
   dropped from the read set until it drains — backpressure that never
   stalls the other connections. *)

type config = {
  backlog : int;
  max_line_bytes : int;
  read_timeout_s : float;
  max_conns : int;
  write_highwater : int;
}

let default_config =
  {
    backlog = 64;
    max_line_bytes = 8192;
    read_timeout_s = 0.;
    (* OCaml's [Unix.select] is FD_SETSIZE-bound (1024 fds); 960 leaves
       room for the listener and the process's own files. *)
    max_conns = 960;
    write_highwater = 1 lsl 18;
  }

let listen_tcp ?(host = "127.0.0.1") ?(backlog = default_config.backlog) ~port
    () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock backlog;
  let bound =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (sock, bound)

(* Reclaiming the path is only safe when what sits there is a stale
   socket; unlinking whatever file the operator mistyped (a snapshot, a
   WAL segment, ...) would be data loss dressed up as convenience. *)
let listen_unix ?(backlog = default_config.backlog) ~path () =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) | { Unix.st_kind = Unix.S_SOCK; _ }
    -> (
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.bind sock (Unix.ADDR_UNIX path) with
      | () ->
          Unix.listen sock backlog;
          Ok sock
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)))
  | { Unix.st_kind = _; _ } ->
      Error
        (Printf.sprintf
           "refusing to unlink %s: it exists and is not a socket" path)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot stat %s: %s" path (Unix.error_message e))

(* --- per-connection state --- *)

(* An INGESTN header opens a batch; the next [b_want] lines are body
   records, collected (reversed) until the batch executes as one engine
   call. A malformed body line poisons the batch but the remaining body
   lines are still consumed — the framing stays in sync and the single
   error response covers the whole batch. *)
type batch = {
  b_name : string;
  b_want : int;
  mutable b_got : (int * float) list;
  mutable b_n : int;
  mutable b_err : string option;
}

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rpos : int;  (* consumed prefix of rbuf *)
  mutable rlen : int;  (* filled prefix of rbuf *)
  wq : string Queue.t;  (* outgoing, head partially written *)
  mutable woff : int;  (* bytes of the head already written *)
  mutable wbytes : int;  (* total queued outgoing bytes *)
  mutable batch : batch option;
  mutable closing : bool;  (* close once the write queue drains *)
  mutable last_read_ns : int64;  (* idle-deadline bookkeeping *)
}

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let ns_to_s ns = Int64.to_float ns /. 1e9

(* --- the event loop --- *)

(* The loop itself is transport + framing only; what a request *means*
   is behind these two hooks, so the same loop serves both a storage
   daemon (hooks into Engine) and the cluster router (hooks that fan out
   over the wire). The INGESTN body collection stays in the loop — it is
   connection-level framing — and hands the handler whole, well-formed
   batches. *)
type handlers = {
  on_request : Protocol.request -> string * Engine.action;
  on_batch : name:string -> (int * float) array -> string;
}

let serve_handlers ?(config = default_config) handlers sock =
  (* A peer that closes mid-response must surface as a write error on
     this connection, not as a process-fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Unix.set_nonblock sock;
  (* A response over TCP goes out at once: with Nagle's algorithm a
     write after a small one waits for the peer's delayed ACK. Unix
     sockets have no such delay. *)
  let tcp =
    match Unix.getsockname sock with
    | Unix.ADDR_INET _ -> true
    | Unix.ADDR_UNIX _ | (exception Unix.Unix_error _) -> false
  in
  let max_conns = max 1 config.max_conns in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let draining = ref false in
  let drain_deadline_ns = ref Int64.max_int in
  let destroy c =
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let enqueue c line =
    Queue.add (line ^ "\n") c.wq;
    c.wbytes <- c.wbytes + String.length line + 1
  in
  (* Write as much queued output as the socket accepts right now; EAGAIN
     leaves the rest for the next readiness round. *)
  let flush_writes c =
    let rec go () =
      match Queue.peek_opt c.wq with
      | None -> `Ok
      | Some head -> (
          let len = String.length head - c.woff in
          match Unix.write_substring c.fd head c.woff len with
          | n ->
              c.wbytes <- c.wbytes - n;
              if n = len then begin
                ignore (Queue.pop c.wq);
                c.woff <- 0;
                go ()
              end
              else begin
                c.woff <- c.woff + n;
                `Ok
              end
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              `Ok
          | exception Unix.Unix_error (_, _, _) -> `Dead)
    in
    go ()
  in
  let too_long c =
    Numerics.Obs.count "server.session.line_too_long";
    enqueue c
      (Protocol.error ~kind:"line_too_long"
         (Printf.sprintf "request line exceeds %d bytes" config.max_line_bytes));
    c.closing <- true
  in
  (* Execute one complete request line (or batch body line). All engine
     exceptions (strict-mode solver errors, invalid arguments) answer as
     error objects — a bad request must not take the daemon down. *)
  let handle_line c line =
    match c.batch with
    | Some b ->
        b.b_n <- b.b_n + 1;
        (* [~line] = 1-based body line index: a bad record deep in the
           batch is diagnosed as "line <n>: ...", so the client can find
           it without bisecting the payload. *)
        (match Protocol.parse_batch_record ~line:b.b_n line with
        | Ok r -> if b.b_err = None then b.b_got <- r :: b.b_got
        | Error e ->
            if b.b_err = None then
              b.b_err <- Some (Sampling.Io.parse_error_to_string e));
        if b.b_n = b.b_want then begin
          c.batch <- None;
          let response =
            match b.b_err with
            | Some m -> Protocol.error m
            | None -> (
                let records = Array.of_list (List.rev b.b_got) in
                try handlers.on_batch ~name:b.b_name records
                with
                | Numerics.Robust.Solver_error f ->
                    Protocol.error ("strict: " ^ Numerics.Robust.to_string f)
                | Invalid_argument m | Failure m -> Protocol.error m)
          in
          enqueue c response
        end
    | None -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then ()
        else
          match Protocol.parse line with
          | Ok (Protocol.Ingest_many { name; count }) ->
              c.batch <-
                Some
                  { b_name = name; b_want = count; b_got = []; b_n = 0;
                    b_err = None }
          | Ok req -> (
              let response, action =
                try handlers.on_request req with
                | Numerics.Robust.Solver_error f ->
                    ( Protocol.error
                        ("strict: " ^ Numerics.Robust.to_string f),
                      Engine.Continue )
                | Invalid_argument m | Failure m ->
                    (Protocol.error m, Engine.Continue)
              in
              enqueue c response;
              match action with
              | Engine.Continue -> ()
              | Engine.Close -> c.closing <- true
              | Engine.Stop ->
                  c.closing <- true;
                  draining := true;
                  drain_deadline_ns :=
                    Int64.add (Numerics.Obs.now_ns ()) 5_000_000_000L)
          | Error e ->
              (* Unknown verbs and malformed tokens answer a structured
                 bad_request and the session continues — a typo must not
                 cost the connection. *)
              enqueue c
                (Protocol.error ~kind:"bad_request"
                   (Sampling.Io.parse_error_to_string e)))
  in
  (* Consume every complete line in the read buffer, then compact. The
     leftover is always one partial line; longer than the bound means a
     slowloris/garbage peer and the structured error + close. *)
  let rec process_buffer c =
    if not c.closing then begin
      let nl = ref (-1) in
      (let i = ref c.rpos in
       while !nl < 0 && !i < c.rlen do
         if Bytes.unsafe_get c.rbuf !i = '\n' then nl := !i;
         incr i
       done);
      if !nl >= 0 then begin
        let line = Bytes.sub_string c.rbuf c.rpos (!nl - c.rpos) in
        c.rpos <- !nl + 1;
        if String.length line > config.max_line_bytes then too_long c
        else begin
          handle_line c (strip_cr line);
          process_buffer c
        end
      end
      else if c.rlen - c.rpos > config.max_line_bytes then too_long c
      else if c.rpos > 0 then begin
        Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
        c.rlen <- c.rlen - c.rpos;
        c.rpos <- 0
      end
    end
  in
  let read_conn c =
    (if c.rlen = Bytes.length c.rbuf then
       if c.rpos > 0 then begin
         Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
         c.rlen <- c.rlen - c.rpos;
         c.rpos <- 0
       end
       else begin
         (* Bounded growth: an unconsumed region past the line bound has
            already answered [line_too_long], so the buffer never doubles
            past ~2x [max_line_bytes]. *)
         let nbuf = Bytes.create (2 * Bytes.length c.rbuf) in
         Bytes.blit c.rbuf 0 nbuf 0 c.rlen;
         c.rbuf <- nbuf
       end);
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 ->
        (* EOF. A final unterminated line is still served (same behavior
           as the buffered line reader), then the connection drains out
           and closes. *)
        if c.rlen > c.rpos then begin
          let line = Bytes.sub_string c.rbuf c.rpos (c.rlen - c.rpos) in
          c.rpos <- c.rlen;
          if String.length line > config.max_line_bytes then too_long c
          else handle_line c (strip_cr line)
        end;
        c.closing <- true
    | n ->
        c.rlen <- c.rlen + n;
        c.last_read_ns <- Numerics.Obs.now_ns ();
        process_buffer c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) -> destroy c
  in
  let accept_ready () =
    let rec go () =
      if Hashtbl.length conns < max_conns then
        match Unix.accept sock with
        | fd, _ ->
            Numerics.Obs.count "server.accept";
            Unix.set_nonblock fd;
            (if tcp then
               try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
            let c =
              {
                fd;
                rbuf = Bytes.create 4096;
                rpos = 0;
                rlen = 0;
                wq = Queue.create ();
                woff = 0;
                wbytes = 0;
                batch = None;
                closing = false;
                last_read_ns = Numerics.Obs.now_ns ();
              }
            in
            Hashtbl.replace conns fd c;
            enqueue c Protocol.greeting;
            (match flush_writes c with `Ok -> () | `Dead -> destroy c);
            go ()
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
        | exception Unix.Unix_error (_, _, _) -> ()
    in
    go ()
  in
  let rec loop () =
    let now = Numerics.Obs.now_ns () in
    (* Idle deadlines: a connection silent past [read_timeout_s] answers
       a structured timeout error and closes. *)
    if config.read_timeout_s > 0. && not !draining then
      Hashtbl.iter
        (fun _ c ->
          if
            (not c.closing)
            && ns_to_s (Int64.sub now c.last_read_ns) > config.read_timeout_s
          then begin
            Numerics.Obs.count "server.session.timeout";
            enqueue c
              (Protocol.error ~kind:"timeout"
                 (Printf.sprintf "idle for more than %gs" config.read_timeout_s));
            c.closing <- true
          end)
        conns;
    (* Reap connections whose goodbyes are fully written; when draining
       (post-SHUTDOWN) a stuck peer is cut off at the drain deadline so
       the daemon always terminates. *)
    let dead =
      let expired = !draining && Int64.compare now !drain_deadline_ns > 0 in
      Hashtbl.fold
        (fun _ c acc ->
          if (c.wbytes = 0 && (c.closing || !draining)) || expired then
            c :: acc
          else acc)
        conns []
    in
    List.iter destroy dead;
    if not (!draining && Hashtbl.length conns = 0) then begin
      let reads = ref [] and writes = ref [] in
      if (not !draining) && Hashtbl.length conns < max_conns then
        reads := [ sock ];
      Hashtbl.iter
        (fun fd c ->
          if c.wbytes > 0 then writes := fd :: !writes;
          (* Backpressure: a connection whose peer is not consuming its
             responses (queue past the high-water mark) stops being
             read; the others keep their full readiness budget. *)
          if
            (not !draining) && (not c.closing)
            && c.wbytes < config.write_highwater
          then reads := fd :: !reads)
        conns;
      let timeout =
        if !draining then 0.05
        else if config.read_timeout_s > 0. && Hashtbl.length conns > 0 then begin
          let slack =
            Hashtbl.fold
              (fun _ c acc ->
                if c.closing then acc
                else
                  Float.min acc
                    (config.read_timeout_s
                    -. ns_to_s (Int64.sub now c.last_read_ns)))
              conns infinity
          in
          if Float.is_finite slack then Float.max 0.001 slack else -1.
        end
        else -1.
      in
      match Unix.select !reads !writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | rs, ws, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> (
                  match flush_writes c with `Ok -> () | `Dead -> destroy c)
              | None -> ())
            ws;
          List.iter
            (fun fd ->
              if fd = sock then accept_ready ()
              else
                match Hashtbl.find_opt conns fd with
                | Some c when not c.closing ->
                    read_conn c;
                    (* Opportunistic flush: the response usually fits the
                       socket buffer, so it goes out without waiting for
                       the next readiness round. *)
                    if Hashtbl.mem conns fd && c.wbytes > 0 then (
                      match flush_writes c with
                      | `Ok -> ()
                      | `Dead -> destroy c)
                | _ -> ())
            rs;
          loop ()
    end
  in
  loop ();
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  try Unix.close sock with Unix.Unix_error _ -> ()

let engine_handlers engine =
  {
    on_request = (fun req -> Engine.handle_request engine req);
    on_batch =
      (fun ~name records -> Engine.handle_ingest_many engine ~name records);
  }

let serve ?config engine sock =
  serve_handlers ?config (engine_handlers engine) sock

type t = { d_port : int; dom : unit Domain.t }

let start_handlers ?(config = default_config) handlers =
  let sock, port = listen_tcp ~backlog:config.backlog ~port:0 () in
  {
    d_port = port;
    dom = Domain.spawn (fun () -> serve_handlers ~config handlers sock);
  }

let start ?config engine = start_handlers ?config (engine_handlers engine)
let port t = t.d_port
let join t = Domain.join t.dom
