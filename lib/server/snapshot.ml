let magic = "optsample-snapshot 1"

type parse_error = Sampling.Io.parse_error = { line : int; message : string }

let err line message = Error { line; message }

let mode_name = function
  | Sampling.Seeds.Shared -> "shared"
  | Sampling.Seeds.Independent -> "independent"

let mode_of_name = function
  | "shared" -> Some Sampling.Seeds.Shared
  | "independent" -> Some Sampling.Seeds.Independent
  | _ -> None

let to_string st =
  Store.flush st;
  let cfg = Store.config st in
  let insts = Store.instances st in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %s %h %d %h %d %d\n" magic cfg.Store.master
       (mode_name cfg.Store.mode) cfg.Store.default_tau cfg.Store.default_k
       cfg.Store.default_p cfg.Store.flush_every (List.length insts));
  List.iter
    (fun inst ->
      let s = Store.export_summary inst in
      let icfg = s.Store.s_cfg in
      Buffer.add_string buf
        (Printf.sprintf "instance %s %d %h %d %h\n" s.Store.s_name
           s.Store.s_id icfg.Store.tau icfg.Store.k icfg.Store.p);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%d %h\n" k v))
        s.Store.s_weights;
      Buffer.add_string buf "end\n")
    insts;
  Buffer.contents buf

(* Same line discipline as Sampling.Io: number lines before filtering
   comments/blanks, accept CRLF. *)
let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let lines_of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim (strip_cr l)))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let ( let* ) = Result.bind

let parse_int n what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> err n (Printf.sprintf "bad %s %S (expected an integer)" what s)

let parse_pos_float n what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v && v > 0. -> Ok v
  | Some v -> err n (Printf.sprintf "%s %g must be finite and > 0" what v)
  | None -> err n (Printf.sprintf "bad %s %S (expected a hex float)" what s)

let parse_header n header =
  match String.split_on_char ' ' header with
  | a :: b :: rest when a ^ " " ^ b = magic -> (
      match rest with
      | [ master; mode; tau; k; p; flush_every; count ] -> (
          let* master = parse_int n "master seed" master in
          match mode_of_name mode with
          | None ->
              err n
                (Printf.sprintf
                   "bad seed mode %S (expected shared or independent)" mode)
          | Some mode ->
              let* default_tau = parse_pos_float n "default tau" tau in
              let* default_k = parse_int n "default k" k in
              let* default_p = parse_pos_float n "default p" p in
              let* flush_every = parse_int n "flush_every" flush_every in
              let* count = parse_int n "instance count" count in
              if count < 0 then
                err n (Printf.sprintf "negative instance count %d" count)
              else
                Ok (master, mode, default_tau, default_k, default_p,
                    flush_every, count))
      | fields ->
          err n
            (Printf.sprintf
               "truncated snapshot header: %d field(s) after %S, expected 7"
               (List.length fields) magic))
  | _ ->
      err n
        (Printf.sprintf "not an optsample snapshot (header %S, expected %S …)"
           header magic)

let parse_instance_header n line =
  match String.split_on_char ' ' line with
  | [ "instance"; name; id; tau; k; p ] ->
      let* id = parse_int n "instance id" id in
      let* tau = parse_pos_float n "tau" tau in
      let* k = parse_int n "k" k in
      let* p = parse_pos_float n "p" p in
      Ok (name, id, { Store.tau; k; p })
  | _ ->
      err n
        (Printf.sprintf
           "expected 'instance <name> <id> <tau> <k> <p>', got %S" line)

(* The restore rule: an instance comes back as the summary of its
   weights — [records] is the key count and [volume] the weights summed
   in ascending key order — installed by the same path a merged PULL
   takes, so its samples are rebuilt exactly. *)
let of_string_r ?pool ?shards s =
  match lines_of_string s with
  | [] -> err 0 "empty input"
  | (n, header) :: rest ->
      let* master, mode, default_tau, default_k, default_p, flush_every, count
          =
        parse_header n header
      in
      let cfg =
        {
          Store.shards =
            Option.value shards ~default:Store.default_config.Store.shards;
          master;
          mode;
          default_tau;
          default_k;
          default_p;
          flush_every;
          max_inflight = Store.default_config.Store.max_inflight;
        }
      in
      let st = Store.create ?pool cfg in
      (* One instance section at a time: header, entries, 'end'. *)
      let rec instances seen lines =
        if seen = count then
          match lines with
          | [] -> Ok st
          | (n, l) :: _ ->
              err n (Printf.sprintf "trailing garbage after %d instance(s): %S"
                       count l)
        else
          match lines with
          | [] ->
              err 0
                (Printf.sprintf "truncated snapshot: %d of %d instance(s)"
                   seen count)
          | (n, l) :: lines ->
              let* name, id, s_cfg = parse_instance_header n l in
              if id <> seen then
                err n
                  (Printf.sprintf
                     "instance id %d out of order (expected %d)" id seen)
              else entries (n, name, id, s_cfg) [] lines
      and entries ((n, name, id, s_cfg) as inst) acc lines =
        match lines with
        | [] -> err 0 (Printf.sprintf "missing 'end' for instance %S" name)
        | (_, "end") :: lines -> (
            let s_weights = List.rev acc in
            let summary =
              {
                Store.s_name = name;
                s_id = id;
                s_cfg;
                s_records = List.length s_weights;
                s_volume =
                  List.fold_left (fun v (_, w) -> v +. w) 0. s_weights;
                s_weights;
              }
            in
            match Store.install_summary st summary with
            | Error m -> err n m
            | Ok _ -> instances (id + 1) lines)
        | (ln, l) :: lines -> (
            match String.split_on_char ' ' l with
            | [ k; v ] -> (
                let* key = parse_int ln "key" k in
                let* weight = parse_pos_float ln "weight" v in
                match acc with
                | (prev, _) :: _ when key = prev ->
                    err ln (Printf.sprintf "duplicate key %d" key)
                | (prev, _) :: _ when key < prev ->
                    err ln
                      (Printf.sprintf "key %d out of order (after %d)" key prev)
                | _ -> entries inst ((key, weight) :: acc) lines)
            | _ ->
                err ln "expected two fields '<int-key> <hex-float>' or 'end'")
      in
      instances 0 rest

(* All snapshot bytes go through Durable: the write is atomic (tmp +
   fsync + rename — a crash mid-write never damages the previous file)
   and the I/O fault plane applies, so the crash-recovery suite can tear
   snapshot writes too. *)
let write st ~path =
  let s = to_string st in
  match Durable.write_file_atomic ~site:"snapshot.write" ~path s with
  | Ok () -> Ok (List.length (Store.instances st))
  | Error m -> Error m

let load ?pool ?shards path =
  match Durable.read_file path with
  | Ok s -> of_string_r ?pool ?shards s
  | Error m -> err 0 m
