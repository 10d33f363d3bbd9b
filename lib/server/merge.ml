(* Bit-deterministic merge of instance summaries — the algebra cluster
   mode stands on.

   A summary is an instance's counters and weight map; every sample a
   query reads is a pure function of the weights and the recorded seeds,
   rebuilt by Store.install_summary. So merging two stores' summaries is
   only: weights summed pointwise (keys in one side copy through),
   records summed, volumes summed. Hence merge(ingest A, ingest B) ≡
   ingest(A ∪ B) whenever the per-key weight sums are themselves exact —
   trivially so when the key sets are disjoint, which is precisely what
   the router's hash placement guarantees (each key owned by one
   daemon). *)

let icfg_equal (a : Store.instance_config) (b : Store.instance_config) =
  Float.equal a.Store.tau b.Store.tau
  && a.Store.k = b.Store.k
  && Float.equal a.Store.p b.Store.p

(* Sorted-assoc sum of the weight maps. *)
let merge_weights wa wb =
  let rec go wa wb acc =
    match (wa, wb) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        if ka < kb then go ta wb ((ka, va) :: acc)
        else if kb < ka then go wa tb ((kb, vb) :: acc)
        else go ta tb ((ka, va +. vb) :: acc)
  in
  go wa wb []

(* [_seeds] is kept in the signature so callers state the seed universe
   the summaries share; the sum itself does not read it. *)
let merge _seeds (a : Store.summary) (b : Store.summary) =
  if a.Store.s_name <> b.Store.s_name then
    Error
      (Printf.sprintf "cannot merge instance %S with %S" a.Store.s_name
         b.Store.s_name)
  else if a.Store.s_id <> b.Store.s_id then
    Error
      (Printf.sprintf "instance %S has id %d on one side, %d on the other"
         a.Store.s_name a.Store.s_id b.Store.s_id)
  else if not (icfg_equal a.Store.s_cfg b.Store.s_cfg) then
    Error
      (Printf.sprintf
         "instance %S has different tau/k/p on the two sides (cluster \
          CREATE must fan identical parameters to every daemon)"
         a.Store.s_name)
  else
    Ok
      {
        a with
        Store.s_records = a.Store.s_records + b.Store.s_records;
        s_volume = a.Store.s_volume +. b.Store.s_volume;
        s_weights = merge_weights a.Store.s_weights b.Store.s_weights;
      }

let merge_all seeds = function
  | [] -> Error "cannot merge an empty list of summaries"
  | s :: rest ->
      List.fold_left
        (fun acc b -> Result.bind acc (fun a -> merge seeds a b))
        (Ok s) rest

(* --- wire payload ---

   Line-oriented, floats as lossless hex literals, weights ascending by
   key (the summary invariant), so the payload is byte-stable and parses
   back to the exact same summary:

     summary <name> <id> <tau> <k> <p> <records> <volume>
     w <key> <weight>      (ascending key)
     end

   It is the one codec for a summary: PULL ships it, and every instance
   section of a snapshot (file, WAL checkpoint, SYNC) is one. *)

let header_line (s : Store.summary) =
  let cfg = s.Store.s_cfg in
  Printf.sprintf "summary %s %d %h %d %h %d %h" s.Store.s_name s.Store.s_id
    cfg.Store.tau cfg.Store.k cfg.Store.p s.Store.s_records s.Store.s_volume

(* The per-key line, written without Printf: it is most of every PULL,
   checkpoint, SNAPSHOT and SYNC. *)
let add_weight_line buf key v =
  Buffer.add_string buf "w ";
  Protocol.add_int buf key;
  Buffer.add_char buf ' ';
  Protocol.add_hex buf v

let payload (s : Store.summary) =
  let buf = Buffer.create 48 in
  let[@tail_mod_cons] rec lines = function
    | [] -> [ "end" ]
    | (k, v) :: rest ->
        Buffer.clear buf;
        add_weight_line buf k v;
        let line = Buffer.contents buf in
        line :: lines rest
  in
  header_line s :: lines s.Store.s_weights

let add_payload buf (s : Store.summary) =
  Buffer.add_string buf (header_line s);
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      add_weight_line buf k v;
      Buffer.add_char buf '\n')
    s.Store.s_weights;
  Buffer.add_string buf "end\n"

let ( let* ) = Result.bind

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
  | Ok v when not (v > 0.) ->
      Error (Printf.sprintf "%s %g must be > 0" what v)
  | r -> r

let parse_header line =
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
        (* The volume is a sum of finite weights that can overflow to
           infinity; any value >= 0, infinity included, is one a store
           holds. *)
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
              s_weights = [];
            }
  | _ ->
      Error
        (Printf.sprintf
           "expected 'summary <name> <id> <tau> <k> <p> <records> <volume>', \
            got %S"
           line)

(* Strict parser: weights strictly ascending by key (the byte-stability
   contract doubles as a corruption and duplicate check). *)
let parse_section line items =
  match items with
  | [] -> Error "empty summary payload"
  | header :: rest ->
      let* base = parse_header (line header) in
      let rec go acc = function
        | [] -> Error "truncated summary payload (missing 'end')"
        | item :: rest -> (
            match String.split_on_char ' ' (line item) with
            | [ "end" ] ->
                Ok ({ base with Store.s_weights = List.rev acc }, rest)
            | [ "w"; key; v ] -> (
                (* Matches, not let*: this runs once per key of every
                   PULL and snapshot load. *)
                match int_field "weight key" key with
                | Error _ as e -> e
                | Ok key -> (
                    match pos_float_field "weight" v with
                    | Error _ as e -> e
                    | Ok v -> (
                        match acc with
                        | (prev, _) :: _ when key <= prev ->
                            Error
                              (Printf.sprintf "weight keys out of order at %d"
                                 key)
                        | _ -> go ((key, v) :: acc) rest)))
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

(* Build a queryable store from merged summaries: instances are
   installed under their recorded ids (seed derivations match the
   exporting daemons), so Engine.query over the result is bit-identical
   to a single node that ingested the union stream. *)
let materialize ?pool cfg summaries =
  let st = Store.create ?pool cfg in
  let rec go = function
    | [] -> Ok st
    | s :: rest -> (
        match Store.install_summary st s with
        | Ok _ -> go rest
        | Error m -> Error m)
  in
  go summaries

(* A resident store kept across queries (the router's) is advanced one
   PULL round at a time: an instance it does not hold yet is installed
   from the partitions' full payloads, one it holds is advanced by their
   deltas. Either way the partitions are merged first, so the store sees
   exactly what [materialize] of the merged full payloads would. *)
let install st parts =
  let* s = merge_all (Store.seeds st) parts in
  Result.map ignore (Store.install_summary st s)

let apply_deltas st parts =
  let* d = merge_all (Store.seeds st) parts in
  Result.map ignore (Store.apply_delta st d)
