(* Server processes: spawn the built optsample binary, wait until it
   answers, read its peak memory, and make sure none outlives the run. *)

let bin = ref "optsample"
let live : int list ref = ref []
let spawned = ref 0

(* Every server runs single-domain: [-j 1] for serve, OPTSAMPLE_JOBS=1
   for route (which sizes its pool from the environment). *)
let env () =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"OPTSAMPLE_JOBS=" kv))
          (Array.to_list (Unix.environment ()))))
    [| "OPTSAMPLE_JOBS=1" |]

let spawn args =
  incr spawned;
  let log =
    Unix.openfile
      (Printf.sprintf "server-%d.log" !spawned)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process_env !bin
      (Array.of_list (!bin :: args))
      (env ()) Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  pid

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (fun p -> p <> pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Poll the socket until the server greets; fails if the process exits
   or does not answer within [timeout] seconds. *)
let connect ?(timeout = 60.) ~pid path =
  let deadline = Util.now () +. timeout in
  let rec go () =
    match Server.Client.connect_unix ~path with
    | Ok c -> c
    | Error m ->
        if not (alive pid) then begin
          live := List.filter (fun p -> p <> pid) !live;
          failwith (Printf.sprintf "server for %s exited: %s" path m)
        end
        else if Util.now () > deadline then
          failwith (Printf.sprintf "server for %s not answering: %s" path m)
        else begin
          Util.sleep_s 0.002;
          go ()
        end
  in
  go ()

(* VmHWM (peak resident set) in MiB, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let lines =
    String.split_on_char '\n'
      (Util.read_file (Printf.sprintf "/proc/%d/status" pid))
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> failwith "VmHWM missing from /proc status"
  | Some l ->
      let kb =
        List.filter_map int_of_string_opt
          (String.split_on_char ' '
             (String.trim (String.sub l 6 (String.length l - 6))))
      in
      (match kb with k :: _ -> float_of_int k /. 1024. | [] -> failwith l)

(* Fresh socket name per spawn, relative to the run directory (keeps
   paths short whatever the checkout's location). *)
let sockets = ref 0

let sock_name prefix =
  incr sockets;
  Printf.sprintf "%s%d.sock" prefix !sockets
