(* Bit-deterministic merge of instance summaries — the algebra cluster
   mode stands on.

   A summary is an instance's counters and its weights as two ascending
   columns; every sample a query reads is a pure function of the
   weights and the recorded seeds,
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

(* The checks a merge makes on two sides' headers. *)
let compatible (a : Store.summary) (b : Store.summary) =
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
  else Ok ()

(* One k-way walk over the parts' ascending key columns: a key several
   parts hold gets their weights summed in part order, which is the
   left fold's ((w0 + w1) + w2); the counters are summed the same way.
   Disjoint parts (the router's placement) copy through. *)
let union (first : Store.summary) parts =
  let parts = Array.of_list parts in
  let np = Array.length parts in
  let total =
    Array.fold_left (fun acc s -> acc + Array.length s.Store.s_keys) 0 parts
  in
  let keys = Array.make total 0 and ws = Float.Array.create total in
  let at = Array.make np 0 in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    (* The least key any part has left, or none. *)
    let least = ref max_int and found = ref false in
    for p = 0 to np - 1 do
      let ks = parts.(p).Store.s_keys in
      if at.(p) < Array.length ks && ((not !found) || ks.(at.(p)) < !least)
      then begin
        least := ks.(at.(p));
        found := true
      end
    done;
    if not !found then continue := false
    else begin
      let w = ref 0. and started = ref false in
      for p = 0 to np - 1 do
        let s = parts.(p) in
        if at.(p) < Array.length s.Store.s_keys && s.Store.s_keys.(at.(p)) = !least
        then begin
          let v = Float.Array.get s.Store.s_weights at.(p) in
          w := if !started then !w +. v else v;
          started := true;
          at.(p) <- at.(p) + 1
        end
      done;
      keys.(!n) <- !least;
      Float.Array.set ws !n !w;
      incr n
    end
  done;
  let n = !n in
  {
    first with
    Store.s_records =
      Array.fold_left (fun acc s -> acc + s.Store.s_records) 0 parts;
    s_volume =
      Array.fold_left
        (fun acc s -> acc +. s.Store.s_volume)
        first.Store.s_volume
        (Array.sub parts 1 (np - 1));
    s_keys = (if n = total then keys else Array.sub keys 0 n);
    s_weights = (if n = total then ws else Float.Array.sub ws 0 n);
  }

(* [_seeds] is kept in the signature so callers state the seed universe
   the summaries share; the sum itself does not read it. *)
let merge_all _seeds = function
  | [] -> Error "cannot merge an empty list of summaries"
  | [ s ] -> Ok s
  | first :: rest as parts ->
      let rec check = function
        | [] -> Ok (union first parts)
        | b :: more -> Result.bind (compatible first b) (fun () -> check more)
      in
      check rest

let merge seeds a b = merge_all seeds [ a; b ]

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

let add_columns buf (s : Store.summary) keys ws n =
  Buffer.add_string buf (header_line s);
  Buffer.add_char buf '\n';
  for i = 0 to n - 1 do
    add_weight_line buf keys.(i) (Float.Array.get ws i);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "end\n";
  n + 2

let add_payload buf (s : Store.summary) =
  ignore
    (add_columns buf s s.Store.s_keys s.Store.s_weights
       (Array.length s.Store.s_keys))

let payload s =
  let buf = Buffer.create (64 + (32 * Array.length s.Store.s_keys)) in
  add_payload buf s;
  String.split_on_char '\n' (Buffer.sub buf 0 (Buffer.length buf - 1))

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
              s_keys = [||];
              s_weights = Float.Array.create 0;
            }
  | _ ->
      Error
        (Printf.sprintf
           "expected 'summary <name> <id> <tau> <k> <p> <records> <volume>', \
            got %S"
           line)

(* --- reading a payload ---

   A payload is read one line at a time, in place: a snapshot walks its
   whole text without cutting it into lines, and a PULL reply hands over
   its lines as they came. The weights are strictly ascending by key
   (the byte-stability contract doubles as a corruption and duplicate
   check). A weight is a float > 0: +infinity included, since finite
   records can sum past [max_float] as the volume can, and NaN refused. *)

type section = {
  base : Store.summary;
  mutable keys : int array;
  mutable ws : floatarray;
  mutable n : int;
}

type step = More | Done of Store.summary | Bad of string

(* The columns start at [capacity] entries, or the header's records if
   fewer (a key needs a record), and double as lines come: a caller that
   knows the line count, or a restore whose records are its key count,
   reads the payload with no copy. *)
let section ?(capacity = 16) header =
  Result.map
    (fun base ->
      let cap = max 1 (min capacity base.Store.s_records) in
      { base; keys = Array.make cap 0; ws = Float.Array.create cap; n = 0 })
    (parse_header header)

let push sec key v =
  if sec.n = Array.length sec.keys then begin
    let cap = 2 * sec.n in
    let keys = Array.make cap 0 and ws = Float.Array.create cap in
    Array.blit sec.keys 0 keys 0 sec.n;
    Float.Array.blit sec.ws 0 ws 0 sec.n;
    sec.keys <- keys;
    sec.ws <- ws
  end;
  sec.keys.(sec.n) <- key;
  Float.Array.set sec.ws sec.n v;
  sec.n <- sec.n + 1

let finish sec =
  let n = sec.n in
  {
    sec.base with
    Store.s_keys =
      (if n = Array.length sec.keys then sec.keys else Array.sub sec.keys 0 n);
    s_weights =
      (if n = Float.Array.length sec.ws then sec.ws
       else Float.Array.sub sec.ws 0 n);
  }

let bad_line s pos stop =
  Bad
    (Printf.sprintf
       "bad summary line %S (expected 'w <key> <weight>' or 'end')"
       (String.sub s pos (stop - pos)))

(* The line split at its spaces must be [end] or [w <key> <weight>]. *)
let section_line sec s pos stop =
  if stop - pos = 3 && s.[pos] = 'e' && s.[pos + 1] = 'n' && s.[pos + 2] = 'd'
  then Done (finish sec)
  else if stop - pos < 2 || s.[pos] <> 'w' || s.[pos + 1] <> ' ' then
    bad_line s pos stop
  else
    let k0 = pos + 2 in
    let k1 = Protocol.token_end s k0 stop in
    if k1 = stop || Protocol.token_end s (k1 + 1) stop < stop then
      bad_line s pos stop
    else
      match Protocol.read_int s k0 k1 with
      | exception Failure _ ->
          Bad
            (Printf.sprintf "bad weight key %S (expected an integer)"
               (String.sub s k0 (k1 - k0)))
      | key -> (
          match Protocol.read_hex s (k1 + 1) stop with
          | exception Failure _ ->
              Bad
                (Printf.sprintf "bad weight %S (expected a hex float)"
                   (String.sub s (k1 + 1) (stop - k1 - 1)))
          | v when Float.is_nan v || v = neg_infinity ->
              Bad (Printf.sprintf "weight %g is not finite" v)
          | v when v <= 0. -> Bad (Printf.sprintf "weight %g must be > 0" v)
          | v ->
              if sec.n > 0 && key <= sec.keys.(sec.n - 1) then
                Bad (Printf.sprintf "weight keys out of order at %d" key)
              else begin
                push sec key v;
                More
              end)

let of_lines = function
  | [] -> Error "empty summary payload"
  | header :: lines ->
      let* sec = section ~capacity:(List.length lines - 1) header in
      let rec go = function
        | [] -> Error "truncated summary payload (missing 'end')"
        | l :: rest -> (
            match section_line sec l 0 (String.length l) with
            | More -> go rest
            | Bad m -> Error m
            | Done s when rest = [] -> Ok s
            | Done _ -> Error "trailing garbage after 'end'")
      in
      go lines

(* A payload as the client hands it over: one block of newline-ended
   lines (the last may lack its newline), each read as a span of the
   block with one trailing CR dropped — the lines {!of_lines} would be
   given, never cut out. The reply header's line count sizes the
   columns exactly. *)
let of_block ~lines s =
  let len = String.length s in
  let rec eol i =
    if i = len || String.unsafe_get s i = '\n' then i else eol (i + 1)
  in
  let span_end pos e = if e > pos && s.[e - 1] = '\r' then e - 1 else e in
  if len = 0 then Error "empty summary payload"
  else
    let first = eol 0 in
    (* A line takes a byte at least, whatever [lines] says. *)
    let* sec =
      section ~capacity:(min (lines - 2) len) (String.sub s 0 (span_end 0 first))
    in
    let rec go pos =
      if pos >= len then Error "truncated summary payload (missing 'end')"
      else
        let e = eol pos in
        match section_line sec s pos (span_end pos e) with
        | More -> go (e + 1)
        | Bad m -> Error m
        | Done sum when e + 1 >= len -> Ok sum
        | Done _ -> Error "trailing garbage after 'end'"
    in
    go (first + 1)

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
   from the union of the partitions' full payloads; one it holds is
   advanced by their deltas, each partition's columns applied as they
   are, since the router's placement makes them key-disjoint. Either
   way the store sees exactly what [materialize] of the merged full
   payloads would. *)
let install st parts =
  let* s = merge_all (Store.seeds st) parts in
  Result.map ignore (Store.install_summary st s)

let apply_deltas ~owner st parts =
  Result.map ignore (Store.apply_delta ~owner st parts)
