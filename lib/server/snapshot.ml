let magic = "optsample-snapshot 2"

type parse_error = Sampling.Io.parse_error = { line : int; message : string }

let err line message = Error { line; message }

(* The restore rule, applied when the text is written: [records] is the
   key count and [volume] the weights summed in ascending key order. A
   loader installs each section exactly as parsed, so the rule is what a
   restart restores and a round trip is byte-identical. *)
let restore_rule (s : Store.summary) =
  {
    s with
    Store.s_records = List.length s.Store.s_weights;
    s_volume = List.fold_left (fun v (_, w) -> v +. w) 0. s.Store.s_weights;
  }

let header (cfg : Store.config) count =
  Printf.sprintf "%s %d %s %h %d %h %d %d" magic cfg.Store.master
    (Store.mode_name cfg.Store.mode)
    cfg.Store.default_tau cfg.Store.default_k cfg.Store.default_p
    cfg.Store.flush_every count

(* Every instance section is the PULL payload of its summary. *)
let lines cfg summaries =
  header cfg (List.length summaries)
  :: List.concat_map (fun s -> Merge.payload (restore_rule s)) summaries

(* The same lines as [lines], written straight into the text so a large
   store's text never also exists as a list of lines. *)
let to_string st =
  Store.flush st;
  let insts = Store.instances st in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header (Store.config st) (List.length insts));
  Buffer.add_char buf '\n';
  List.iter
    (fun i -> Merge.add_payload buf (restore_rule (Store.export_summary i)))
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

let parse_header n header =
  let field r = Result.map_error (fun message -> { line = n; message }) r in
  match String.split_on_char ' ' header with
  | a :: b :: rest when a ^ " " ^ b = magic -> (
      match rest with
      | [ master; mode; tau; k; p; flush_every; count ] -> (
          let* master = field (Merge.int_field "master seed" master) in
          match Store.mode_of_name mode with
          | None ->
              err n
                (Printf.sprintf
                   "bad seed mode %S (expected shared or independent)" mode)
          | Some mode ->
              let* default_tau =
                field (Merge.pos_float_field "default tau" tau)
              in
              let* default_k = field (Merge.int_field "default k" k) in
              let* default_p = field (Merge.pos_float_field "default p" p) in
              let* flush_every =
                field (Merge.int_field "flush_every" flush_every)
              in
              let* count = field (Merge.int_field "section count" count) in
              if count < 0 then
                err n (Printf.sprintf "negative section count %d" count)
              else
                Ok (master, mode, default_tau, default_k, default_p,
                    flush_every, count))
      | fields ->
          err n
            (Printf.sprintf
               "truncated snapshot header: %d field(s) after %S, expected 7"
               (List.length fields) magic))
  | "optsample-snapshot" :: version :: _ ->
      err n
        (Printf.sprintf
           "snapshot format version %s is not readable (this build reads %S)"
           version magic)
  | _ ->
      err n
        (Printf.sprintf "not an optsample snapshot (header %S, expected %S …)"
           header magic)

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
      (* One section per instance, in id order; an error names the line
         its section starts on. *)
      let rec sections seen = function
        | [] when seen < count ->
            err 0
              (Printf.sprintf "truncated snapshot: %d of %d instance(s)" seen
                 count)
        | [] -> Ok st
        | (n, l) :: _ when seen = count ->
            err n
              (Printf.sprintf "trailing garbage after %d instance(s): %S" count
                 l)
        | ((n, _) :: _) as lines -> (
            match Merge.parse_section snd lines with
            | Error m -> err n m
            | Ok (s, _) when s.Store.s_id <> seen ->
                err n
                  (Printf.sprintf "summary id %d out of order (expected %d)"
                     s.Store.s_id seen)
            | Ok (s, rest) -> (
                match Store.install_summary st s with
                | Error m -> err n m
                | Ok _ -> sections (seen + 1) rest))
      in
      sections 0 rest

(* All snapshot bytes go through Durable: the write is atomic (tmp +
   fsync + rename — a crash mid-write never damages the previous file)
   and the I/O fault plane applies, so the crash-recovery suite can tear
   snapshot writes too. *)
let write st ~path =
  Result.map
    (fun () -> List.length (Store.instances st))
    (Durable.write_file_atomic ~site:"snapshot.write" ~path (to_string st))

let load ?pool ?shards path =
  match Durable.read_file path with
  | Ok s -> of_string_r ?pool ?shards s
  | Error m -> err 0 m
