let magic = "optsample-snapshot 2"

type parse_error = Sampling.Io.parse_error = { line : int; message : string }

let err line message = Error { line; message }

let header (cfg : Store.config) count =
  Printf.sprintf "%s %d %s %h %d %h %d %d" magic cfg.Store.master
    (Store.mode_name cfg.Store.mode)
    cfg.Store.default_tau cfg.Store.default_k cfg.Store.default_p
    cfg.Store.flush_every count

(* Every instance section is the PULL payload of its summary, written
   straight from the export's columns under the restore rule: [records]
   is the key count and [volume] the weights summed in ascending key
   order. A loader installs each section exactly as parsed, so the rule
   is what a restart restores and a round trip is byte-identical. *)
let add_text buf st =
  let insts = Store.instances st in
  Buffer.add_string buf (header (Store.config st) (List.length insts));
  Buffer.add_char buf '\n';
  let scratch = Store.scratch () in
  List.fold_left
    (fun lines i ->
      Store.export_into ~scratch i (fun s keys ws n ->
          let volume = ref 0. in
          for j = 0 to n - 1 do
            volume := !volume +. Float.Array.get ws j
          done;
          lines
          + Merge.add_columns buf
              { s with Store.s_records = n; s_volume = !volume }
              keys ws n))
    1 insts

let to_string st =
  Store.flush st;
  let buf = Buffer.create 4096 in
  ignore (add_text buf st);
  Buffer.contents buf

(* The text is walked in place, one line at a time, with the line
   discipline of Sampling.Io: lines are numbered before blank and
   [#]-comment lines are skipped, and each line is trimmed (which also
   drops the CR of a CRLF ending). The current line is [s.[lo .. hi-1]]
   and [line] its 1-based number; [next] is where the following line
   starts. *)
type cursor = {
  s : string;
  mutable next : int;
  mutable line : int;
  mutable lo : int;
  mutable hi : int;
}

let cursor s = { s; next = 0; line = 0; lo = 0; hi = 0 }

(* Move to the next line that is neither blank nor a comment; [false]
   at the end of the text. *)
let rec advance c =
  let n = String.length c.s in
  if c.next > n then false
  else begin
    let eol =
      match String.index_from c.s c.next '\n' with
      | i -> i
      | exception Not_found -> n
    in
    let lo = ref c.next and hi = ref eol in
    while !lo < !hi && Protocol.is_trim c.s.[!lo] do incr lo done;
    while !hi > !lo && Protocol.is_trim c.s.[!hi - 1] do decr hi done;
    c.next <- eol + 1;
    c.line <- c.line + 1;
    c.lo <- !lo;
    c.hi <- !hi;
    if !lo = !hi || c.s.[!lo] = '#' then advance c else true
  end

let current c = String.sub c.s c.lo (c.hi - c.lo)

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

(* One section per instance, in id order, each read line by line and
   then installed; an error names the line its section starts on. *)
let read_section c =
  (* A key line takes at least 6 bytes, which bounds the columns a
     corrupt records count can ask for. *)
  let capacity = (String.length c.s - c.next) / 6 in
  match Merge.section ~capacity (current c) with
  | Error _ as e -> e
  | Ok sec ->
      let rec body () =
        if not (advance c) then
          Error "truncated summary payload (missing 'end')"
        else
          match Merge.section_line sec c.s c.lo c.hi with
          | Merge.More -> body ()
          | Merge.Done s -> Ok s
          | Merge.Bad m -> Error m
      in
      body ()

let of_string_r ?pool ?shards s =
  let c = cursor s in
  if not (advance c) then err 0 "empty input"
  else
    let* master, mode, default_tau, default_k, default_p, flush_every, count
        =
      parse_header c.line (current c)
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
    let rec sections seen =
      if not (advance c) then
        if seen < count then
          err 0
            (Printf.sprintf "truncated snapshot: %d of %d instance(s)" seen
               count)
        else Ok st
      else if seen = count then
        err c.line
          (Printf.sprintf "trailing garbage after %d instance(s): %S" count
             (current c))
      else
        let n = c.line in
        match read_section c with
        | Error m -> err n m
        | Ok s when s.Store.s_id <> seen ->
            err n
              (Printf.sprintf "summary id %d out of order (expected %d)"
                 s.Store.s_id seen)
        | Ok s -> (
            match Store.install_summary st s with
            | Error m -> err n m
            | Ok _ -> sections (seen + 1))
    in
    sections 0

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
