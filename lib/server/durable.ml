(* The one module allowed to push bytes at WAL / snapshot files.

   Every durability-plane write in lib/server funnels through here (the
   lint in bench/lint.sh enforces it): this is where CRCs are computed,
   where fsync policy is honored, and — crucially — where the
   Numerics.Faultify I/O plane is consulted, so torn writes, short
   writes and failed fsyncs hit every durable path identically. *)

module F = Numerics.Faultify

(* --- CRC-32 (IEEE 802.3, reflected), table-driven ------------------- *)

(* The running register is a native int holding 32 bits, so the loop
   allocates nothing; only the result is boxed. Eight bytes are folded
   per step ("slicing-by-8"): [tables.(k * 256 + b)] is the CRC update of
   byte [b] followed by [k] zero bytes, so the eight bytes' lookups are
   independent and their results xor together. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let prev = t.(((k - 1) * 256) + b) in
      t.((k * 256) + b) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let table k b = Array.unsafe_get tables ((k * 256) + (b land 0xFF))
let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let crc32_update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Durable.crc32_update";
  let c = ref ((Int32.to_int crc land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    let lo = !c lxor word s !i and hi = word s (!i + 4) in
    c :=
      table 7 lo
      lxor table 6 (lo lsr 8)
      lxor table 5 (lo lsr 16)
      lxor table 4 (lo lsr 24)
      lxor table 3 hi
      lxor table 2 (hi lsr 8)
      lxor table 1 (hi lsr 16)
      lxor table 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := table 0 (!c lxor Char.code (String.unsafe_get s j)) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s = crc32_update 0l s 0 (String.length s)

(* --- fault-aware append writer -------------------------------------- *)

type writer = {
  w_path : string;
  w_fd : Unix.file_descr;
  mutable w_offset : int;  (* bytes durably framed so far *)
  mutable w_closed : bool;
}

let openw ~path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 with
  | fd ->
      let offset = (Unix.fstat fd).Unix.st_size in
      Ok { w_path = path; w_fd = fd; w_offset = offset; w_closed = false }
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot open %s: %s" path (Unix.error_message e))

let offset w = w.w_offset
let path w = w.w_path

let write_all fd s pos len =
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd s (pos + !written) (len - !written)
  done

(* Append [s] as one unit. The fault plane can cut the buffer: a torn
   write puts a prefix on disk and kills the "process" (raises Crash); a
   short write puts a prefix on disk, then the writer restores the old
   tail with ftruncate and reports the error — the record was never
   acknowledged and the file stays consistent. *)
let append ~site w s =
  if w.w_closed then Error (Printf.sprintf "%s: writer closed" w.w_path)
  else
    let len = String.length s in
    match F.fire_io ~site ~kinds:[ F.Io_torn_write; F.Io_short_write ] with
    | Some F.Io_torn_write ->
        write_all w.w_fd s 0 (len / 2);
        raise (F.Crash site)
    | Some F.Io_short_write ->
        write_all w.w_fd s 0 (len / 2);
        Unix.ftruncate w.w_fd w.w_offset;
        Error (Printf.sprintf "%s: short write (injected), tail restored" w.w_path)
    | _ -> (
        match write_all w.w_fd s 0 len with
        | () ->
            w.w_offset <- w.w_offset + len;
            Ok ()
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "%s: write failed: %s" w.w_path (Unix.error_message e)))

(* An injected fsync failure models the nastiest real case: the bytes
   were handed to the OS (they may well be on disk) but durability was
   never confirmed. Per the fsync-gate discipline the caller must treat
   the store as crashed — so the injection raises Crash rather than
   limping on with an unknown tail. *)
let fsync ~site w =
  if w.w_closed then Error (Printf.sprintf "%s: writer closed" w.w_path)
  else
    match F.fire_io ~site ~kinds:[ F.Io_fsync_fail ] with
    | Some F.Io_fsync_fail -> raise (F.Crash site)
    | _ -> (
        match Unix.fsync w.w_fd with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "%s: fsync failed: %s" w.w_path (Unix.error_message e)))

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    try Unix.close w.w_fd with Unix.Unix_error _ -> ()
  end

(* Best-effort physical truncation — how recovery drops a torn tail it
   has already decided to ignore. Failure is harmless (the tail is
   re-detected and re-dropped on the next recovery). *)
let truncate_file ~path len =
  match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
  | fd ->
      (try Unix.ftruncate fd len with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* --- whole-file helpers --------------------------------------------- *)

let read_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | s -> Ok s
  | exception Sys_error m -> Error m

(* Atomic replace: write a sibling tmp file, fsync it, rename over the
   target. A crash mid-write leaves only the tmp behind — the previous
   good file is never touched — which is what lets recovery fall back to
   the last durable checkpoint. *)
let write_file_atomic ~site ~path s =
  let tmp = path ^ ".tmp" in
  match openw ~path:tmp with
  | Error _ as e -> e
  | Ok w -> (
      let result =
        match append ~site w s with
        | Error _ as e -> e
        | Ok () -> fsync ~site w
      in
      match result with
      | Error m ->
          close w;
          (try Sys.remove tmp with Sys_error _ -> ());
          Error m
      | Ok () -> (
          close w;
          match Unix.rename tmp path with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
              (try Sys.remove tmp with Sys_error _ -> ());
              Error
                (Printf.sprintf "rename %s -> %s failed: %s" tmp path
                   (Unix.error_message e))))
