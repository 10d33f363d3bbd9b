(* Cluster front door: N daemons each own a hash slice of the key
   space; this process fans writes to owners and answers queries from a
   resident merged store: the merge (Merge) of every daemon's summary of
   the instances it has been asked about, kept across requests and run
   through the ordinary Engine. Summing per-daemon *estimates* would
   break bit-identity (float addition order differs per partition
   count); merging the *summaries* and estimating once reproduces the
   single-node float walk exactly.

   Each read first refreshes the resident store with one round of
   PULLs, written to every daemon before any reply is read. A daemon
   the router has followed before is asked only for the keys changed
   since the cursor of its last reply (PULL … since=<epoch>:<records>),
   and the delta is applied key by key. Partitions are key-disjoint, so
   a key's merged weight is its owner's weight; weights only grow, so
   the samples follow exactly. Anything else — a daemon restarted or
   restored (a new epoch), a key sent by a daemon that does not own it,
   a delta the store refuses — rebuilds the resident store from full
   PULLs, which is the from-scratch merge.

   The router never mutates a Store itself — every backend effect
   travels over the wire protocol, and the resident store changes only
   through Merge (both enforced by bench/lint.sh). *)

module P = Protocol

let ( let* ) = Result.bind

(* Where the resident store stands in one daemon's history of one
   instance: the store epoch and records count of the last reply
   applied. *)
type cursor = { c_epoch : int; c_records : int }

type t = {
  backends : Client.t array;
  retry : Client.retry;
  cfg : Store.config;  (* must match the daemons' master/mode *)
  pool : Numerics.Pool.t;
  mutable names : string list;  (* known instances, in creation order *)
  mutable resident : Store.t;  (* the merged view, kept across requests *)
  cursors : (string, cursor array) Hashtbl.t;
      (* per resident instance the router can follow by deltas: one
         cursor per backend *)
}

(* Placement: a fixed salt (independent of any store config) hashes the
   key; the top 63 bits reduce mod N. Deterministic across router
   restarts — a key's owner is a pure function of (key, N). *)
let placement_salt = 0x6f707473616d70L

let owner ~backends key =
  let h = Numerics.Hashing.hash_int ~salt:placement_salt key in
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int backends))

let backend_count t = Array.length t.backends
let resident t = t.resident

let close t =
  Array.iter Client.close t.backends;
  Numerics.Pool.shutdown t.pool

(* --- catalog bootstrap ---

   The router mirrors the instance catalog (it fans every CREATE), but a
   *restarted* router must relearn it: SYNC any backend and read the
   section headers ([summary <name> …]) out of the snapshot text.
   Backend 0 is as good as any — CREATE fans to all daemons in order, so
   every daemon holds the identical catalog. The snapshot header also
   carries the daemon's master seed and mode, checked against ours: a
   router merging under the wrong seed universe would answer garbage
   with full confidence. *)

let check_universe cfg ~master ~mode_s ~where =
  if master <> string_of_int cfg.Store.master then
    Error
      (Printf.sprintf "%s has master seed %s, router has %d" where master
         cfg.Store.master)
  else if mode_s <> Store.mode_name cfg.Store.mode then
    Error
      (Printf.sprintf "%s samples in %s mode, router in %s" where mode_s
         (Store.mode_name cfg.Store.mode))
  else Ok ()

let catalog_of_sync cfg (header, lines) =
  if not (P.json_ok header) then
    Error
      (Option.value ~default:header (P.json_field "error" header))
  else
    let* () =
      match (P.json_field "master" header, P.json_field "mode" header) with
      | Some master, Some mode_s ->
          check_universe cfg ~master ~mode_s ~where:"backend 0"
      | _ -> Error (Printf.sprintf "SYNC header without master/mode: %s" header)
    in
    let names =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | "summary" :: name :: _ -> Some name
          | _ -> None)
        lines
    in
    Ok names

let connect ?(retry = Client.default_retry) ~store_cfg addrs =
  match addrs with
  | [] -> Error "router needs at least one backend"
  | _ -> (
      let cfg = { store_cfg with Store.shards = 1 } in
      let rec dial acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | addr :: rest -> (
            match Client.connect addr with
            | Ok c -> dial (c :: acc) rest
            | Error m ->
                List.iter Client.close acc;
                Error
                  (Printf.sprintf "backend %d: %s" (List.length acc) m))
      in
      match dial [] addrs with
      | Error _ as e -> e
      | Ok backends -> (
          let pool = Numerics.Pool.create ~domains:1 () in
          let t =
            {
              backends;
              retry;
              cfg;
              pool;
              names = [];
              resident = Result.get_ok (Merge.materialize ~pool cfg []);
              cursors = Hashtbl.create 16;
            }
          in
          match
            Result.bind (Client.request_lines backends.(0) "SYNC")
              (catalog_of_sync cfg)
          with
          | Ok names ->
              t.names <- names;
              Ok t
          | Error m ->
              close t;
              Error (Printf.sprintf "catalog bootstrap: %s" m)))

(* --- fan-out plumbing --- *)

(* Sequential fan-out, first failure wins: a transport error answers a
   structured backend error; a backend's own error response passes
   through verbatim. *)
let fwd_all t line =
  let n = backend_count t in
  let rec go i acc =
    if i = n then Ok (List.rev acc)
    else
      match Client.request_retry ~retry:t.retry t.backends.(i) line with
      | Error m ->
          Error (P.error ~kind:"backend" (Printf.sprintf "backend %d: %s" i m))
      | Ok resp when not (P.json_ok resp) -> Error resp
      | Ok resp -> go (i + 1) (resp :: acc)
  in
  go 0 []

(* --- the resident store --- *)

let pull_line name = function
  | None -> "PULL " ^ name
  | Some c -> Printf.sprintf "PULL %s since=%d:%d" name c.c_epoch c.c_records

(* One backend's reply to one PULL: its summary (full, or the keys
   changed since the cursor sent), the cursor it leaves, and whether it
   is the delta asked for. *)
type reply = { summary : Store.summary; cursor : cursor option; delta : bool }

let parse_reply t i ~asked (header, lines) =
  if not (P.json_ok header) then
    Error
      (Printf.sprintf "backend %d: %s" i
         (Option.value ~default:header (P.json_field "error" header)))
  else
    let* () =
      match (P.json_field "master" header, P.json_field "mode" header) with
      | Some master, Some mode_s ->
          check_universe t.cfg ~master ~mode_s
            ~where:(Printf.sprintf "backend %d" i)
      | _ ->
          Error (Printf.sprintf "backend %d: PULL header without master/mode" i)
    in
    let* summary =
      Result.map_error
        (fun m -> Printf.sprintf "backend %d: bad summary payload: %s" i m)
        (Merge.of_lines lines)
    in
    let field f = Option.bind (P.json_field f header) int_of_string_opt in
    let epoch = field "epoch" in
    Ok
      {
        summary;
        cursor =
          Option.map
            (fun e -> { c_epoch = e; c_records = summary.Store.s_records })
            epoch;
        delta =
          (match asked with
          | Some c -> epoch = Some c.c_epoch && field "since" = Some c.c_records
          | None -> false);
      }

(* One round of PULLs: every backend gets all of the round's requests
   before any reply is read, so the daemons export and encode at the
   same time. [asked name i] is the cursor to send backend [i] for
   [name]. Every reply is read whatever fails; the first error in
   (name, backend) order is the round's. *)
let pull_round t names asked =
  let n = backend_count t in
  let sent =
    Array.init n (fun i ->
        Client.pipeline_send t.backends.(i)
          (List.map (fun name -> pull_line name (asked name i)) names))
  in
  let received =
    Array.map (fun p -> Result.map Array.of_list (Client.pipeline_recv p)) sent
  in
  let replies j name =
    let rec go i acc =
      if i = n then Ok (Array.of_list (List.rev acc))
      else
        let* r =
          match received.(i) with
          | Error m -> Error (Printf.sprintf "backend %d: %s" i m)
          | Ok rs -> parse_reply t i ~asked:(asked name i) rs.(j)
        in
        go (i + 1) (r :: acc)
    in
    Result.map (fun rs -> (name, rs)) (go 0 [])
  in
  let rec each j acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest ->
        let* r = replies j name in
        each (j + 1) (r :: acc) rest
  in
  each 0 [] names

let summaries replies = Array.to_list (Array.map (fun r -> r.summary) replies)

(* Whether every key came from its owner. An instance can follow
   deltas only while this holds: a key two partitions hold was summed by
   the merge, and a delta would overwrite the sum. *)
let all_owned t replies =
  let n = backend_count t in
  let owned i r =
    List.for_all
      (fun (key, _) -> owner ~backends:n key = i)
      r.summary.Store.s_weights
  in
  Array.for_all Fun.id (Array.mapi owned replies)

let follow t name replies ~owned =
  let cursors = Array.map (fun r -> r.cursor) replies in
  if owned && Array.for_all Option.is_some cursors then
    Hashtbl.replace t.cursors name (Array.map Option.get cursors)
  else Hashtbl.remove t.cursors name

(* Apply one instance's replies to the resident store; [false] when
   they cannot be applied as they are and the store must be rebuilt. *)
let advance t (name, replies) =
  let owned = all_owned t replies in
  let applied =
    match Store.find t.resident name with
    | None when Array.for_all (fun r -> not r.delta) replies ->
        Result.is_ok (Merge.install t.resident (summaries replies))
    | Some _ when owned && Array.for_all (fun r -> r.delta) replies ->
        Result.is_ok (Merge.apply_deltas t.resident (summaries replies))
    | _ -> false
  in
  if applied then follow t name replies ~owned;
  applied

(* From scratch: full PULLs of [names] into a fresh resident store,
   which drops every other instance (a later read installs it again).
   On failure the old store stays, still consistent with its cursors. *)
let rebuild t names =
  let* rounds = pull_round t names (fun _ _ -> None) in
  let* st = Merge.materialize ~pool:t.pool t.cfg [] in
  let rec install = function
    | [] -> Ok ()
    | (_, replies) :: rest ->
        let* () = Merge.install st (summaries replies) in
        install rest
  in
  let* () = install rounds in
  t.resident <- st;
  Hashtbl.reset t.cursors;
  List.iter
    (fun (name, replies) ->
      follow t name replies ~owned:(all_owned t replies))
    rounds;
  Ok ()

(* Bring the resident store's [names] up to date with the backends. A
   name the router had not seen (an instance created on the daemons
   directly) joins its catalog. *)
let refresh t names =
  let names =
    List.rev
      (List.fold_left
         (fun acc n -> if List.mem n acc then acc else n :: acc)
         [] names)
  in
  let asked name i =
    Option.map (fun cs -> cs.(i)) (Hashtbl.find_opt t.cursors name)
  in
  let* rounds = pull_round t names asked in
  let* () =
    if List.for_all (advance t) rounds then Ok () else rebuild t names
  in
  t.names <- t.names @ List.filter (fun n -> not (List.mem n t.names)) names;
  Ok ()

(* Every read (QUERY, PULL, SYNC, SNAPSHOT, STATS) is the Engine's
   answer over the refreshed resident store: what a single node holding
   the union would answer. *)
let read t names req =
  match refresh t names with
  | Error m -> (P.error m, Engine.Continue)
  | Ok () ->
      let response, _ = Engine.handle_request (Engine.create t.resident) req in
      (response, Engine.Continue)

(* --- request handling --- *)

let resolved_create t ~name ~tau ~k ~p =
  Printf.sprintf "CREATE %s tau=%h k=%d p=%h" name
    (Option.value tau ~default:t.cfg.Store.default_tau)
    (Option.value k ~default:t.cfg.Store.default_k)
    (Option.value p ~default:t.cfg.Store.default_p)

let on_request t (req : P.request) : string * Engine.action =
  match req with
  | P.Hello _ -> (P.ok_fields [ ("protocol", P.jint P.version) ], Engine.Continue)
  | P.Create { name; tau; k; p } -> (
      (* Defaults resolve against the *router's* config before fan-out,
         so every daemon registers identical parameters whatever its own
         defaults — the merge-compatibility invariant. *)
      match fwd_all t (resolved_create t ~name ~tau ~k ~p) with
      | Error resp -> (resp, Engine.Continue)
      | Ok responses ->
          t.names <- t.names @ [ name ];
          (* All backends answered identically (same resolved line, same
             creation order); relay backend 0's response. *)
          (List.hd responses, Engine.Continue))
  | P.Ingest { name; key; weight } -> (
      let b = owner ~backends:(backend_count t) key in
      match
        Client.request_retry ~retry:t.retry t.backends.(b)
          (Printf.sprintf "INGEST %s %d %h" name key weight)
      with
      | Ok resp -> (resp, Engine.Continue)
      | Error m ->
          ( P.error ~kind:"backend" (Printf.sprintf "backend %d: %s" b m),
            Engine.Continue ))
  | P.Ingest_many { count; _ } ->
      ( P.error
          (Printf.sprintf
             "INGESTN header without its %d body lines (batched framing is \
              connection-level)" count),
        Engine.Continue )
  | P.Query { names; _ } -> read t names req
  | P.Pull { name; _ } -> read t [ name ] req
  | P.Sync | P.Snapshot _ | P.Stats -> read t t.names req
  | P.Flush -> (
      match fwd_all t "FLUSH" with
      | Error resp -> (resp, Engine.Continue)
      | Ok responses ->
          let pending =
            List.fold_left
              (fun acc r ->
                acc
                + Option.value ~default:0
                    (Option.bind (P.json_field "pending" r) int_of_string_opt))
              0 responses
          in
          (P.ok_fields [ ("pending", P.jint pending) ], Engine.Continue))
  | P.Quit -> (P.ok_fields [ ("bye", P.jstr "quit") ], Engine.Close)
  | P.Shutdown ->
      (* Stops the router's loop only; the daemons are separate
         processes with their own lifecycles. *)
      (P.ok_fields [ ("bye", P.jstr "shutdown") ], Engine.Stop)

(* One batch, split by ownership: each daemon receives its records as
   one INGESTN (order within a partition preserved — per-key application
   order is what summaries depend on, and a key never spans partitions).
   All-or-nothing holds per partition; a failing partition reports the
   backend's response verbatim and leaves later partitions unsent. *)
let on_batch t ~name records =
  let nb = backend_count t in
  let parts = Array.make nb [] in
  Array.iter
    (fun ((key, _) as r) ->
      let o = owner ~backends:nb key in
      parts.(o) <- r :: parts.(o))
    records;
  let rec go i total =
    if i = nb then P.ok_fields [ ("ingested", P.jint total) ]
    else
      match parts.(i) with
      | [] -> go (i + 1) total
      | part -> (
          let sub = Array.of_list (List.rev part) in
          match Client.ingest_many ~retry:t.retry t.backends.(i) ~name sub with
          | Error m ->
              P.error ~kind:"backend" (Printf.sprintf "backend %d: %s" i m)
          | Ok resp when not (P.json_ok resp) -> resp
          | Ok _ -> go (i + 1) (total + Array.length sub))
  in
  go 0 0

let handlers t =
  {
    Daemon.on_request = (fun req -> on_request t req);
    on_batch = (fun ~name records -> on_batch t ~name records);
  }

let serve ?config t sock = Daemon.serve_handlers ?config (handlers t) sock
let start ?config t = Daemon.start_handlers ?config (handlers t)
