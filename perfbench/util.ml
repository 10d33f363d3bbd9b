(* Clock, sample statistics, file helpers and the result printer. *)

let now () = Int64.to_float (Numerics.Obs.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sleep_s s = if s > 0. then ignore (Unix.select [] [] [] s)

(* --- samples --- *)

type samples = { mutable xs : float list; mutable n : int }

let samples () = { xs = []; n = 0 }

let add s x =
  s.xs <- x :: s.xs;
  s.n <- s.n + 1

let sorted s =
  let a = Array.of_list s.xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, q in (0, 1]. *)
let percentile s q =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Median of an odd or even count: the mean of the two middle values. *)
let median s =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum s = List.fold_left ( +. ) 0. s.xs

(* --- files (all paths relative to the run directory) --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun e ->
      let p = Filename.concat src e in
      if (Unix.lstat p).Unix.st_kind = Unix.S_REG then
        write_file (Filename.concat dst e) (read_file p))
    (Sys.readdir src)

let file_size path = (Unix.stat path).Unix.st_size

(* --- output --- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "non-finite metric value %g" x)

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (json_number m.m_value) m.m_unit)
          metrics))
