(* Load generator of the serving benchmark. Usage:

     perfgen --workload ingest|query|cluster --seed N --seconds S
             --trace 0|1 --bin PATH --dir DIR

   Runs whole cycles of the workload until S seconds have passed, checks
   every answer, and prints the metrics; the last line of standard
   output is one JSON object. DIR is the run's scratch directory (all
   sockets, logs, WALs and snapshots live there); PATH is the built
   optsample binary. *)

let usage () =
  prerr_endline
    "usage: perfgen --workload ingest|query|cluster --seed N --seconds S --trace 0|1 --bin PATH --dir DIR";
  exit 2

let e2e_metrics () =
  let m = Workloads.m in
  let ms s q = Util.percentile s q in
  [ Util.metric "setup_s" "s" (Util.median m.setup);
    Util.metric "ingest_rps" "records/s" (float_of_int m.records /. (Util.sum m.ingest_ms /. 1000.));
    Util.metric "ingest_p50_ms" "ms" (ms m.ingest_ms 0.5);
    Util.metric "ingest_p90_ms" "ms" (ms m.ingest_ms 0.9);
    Util.metric "query_qps" "queries/s" (float_of_int m.query_ms.Util.n /. (Util.sum m.query_ms /. 1000.));
    Util.metric "query_p50_ms" "ms" (ms m.query_ms 0.5);
    Util.metric "recover_s" "s" (Util.median m.recover);
    Util.metric "peak_rss_mb" "MB" (Util.median m.rss) ]

(* HELLO round trips on a daemon started as the workload starts its own. *)
let hello_rtt args =
  let pid, _, c = Srv.Remote.start_daemon args in
  for _ = 1 to 1000 do
    let r, dt = Util.timed (fun () -> Server.Client.request c "HELLO 1") in
    if Result.is_error r then failwith "HELLO failed";
    Layer.call_ms "daemon.rtt_ms" dt
  done;
  Srv.Remote.shutdown c pid

(* Aggregate CPU ticks from /proc/stat: (steal, total). On a virtual
   machine, steal is time the host gave the vCPUs to someone else. *)
let cpu_ticks () =
  match String.split_on_char '\n' (Util.read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
      | (_ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _) as fields ->
          (steal, List.fold_left ( + ) 0 fields)
      | _ -> (0, 0))
  | [] -> (0, 0)

let steal_share (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let bin = ref "" and dir = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | "--seconds" :: v :: rest -> seconds := Option.value ~default:0 (int_of_string_opt v); parse rest
    | "--trace" :: v :: rest -> trace := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | "--bin" :: v :: rest -> bin := v; parse rest
    | "--dir" :: v :: rest -> dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let make =
    match List.assoc_opt !workload Workloads.all with Some w -> w | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !bin = "" || !dir = "" then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Proc.bin := !bin;
  Unix.chdir !dir;
  at_exit Proc.kill_all;
  let run = { Workloads.seed = !seed; seconds = float_of_int !seconds; traced = !trace = 1 } in
  if run.traced then begin
    match !workload with
    | "ingest" -> hello_rtt [ "--wal"; "hello-wal"; "--fsync"; "never" ]
    | "query" -> hello_rtt [ "--shared-seeds" ]
    | _ -> ()
  end;
  let cycle = make run in
  (* the run's own preparation is not a cycle *)
  Hashtbl.reset Layer.current;
  Workloads.m.all_ingest_s <- 0.;
  Workloads.m.all_query_s <- 0.;
  let steal0 = cpu_ticks () in
  let t0 = Util.now () in
  let n = ref 0 in
  (* Whole cycles only: start another while it is expected to end
     within the run's time. *)
  let fits () =
    let elapsed = Util.now () -. t0 in
    elapsed +. (elapsed /. float_of_int !n) <= run.seconds
  in
  while !n = 0 || fits () do
    cycle !n;
    Layer.end_cycle ();
    incr n
  done;
  let elapsed = Util.now () -. t0 in
  let metrics = if run.traced then Layer.report () else e2e_metrics () in
  let m = Workloads.m and per_cycle s = Util.sum s /. 1000. /. float_of_int !n in
  Printf.printf
    "workload %s seed %d: %d cycle(s) in %.2f s; per cycle %d batch(es) in %.3f s and %d \
     query(ies) in %.3f s timed; all INGESTN %.3f s, all QUERY and STATS %.3f s; host \
     steal %.1f%% of CPU time\n"
    !workload !seed !n elapsed (m.ingest_ms.Util.n / !n) (per_cycle m.ingest_ms)
    (m.query_ms.Util.n / !n) (per_cycle m.query_ms)
    (m.all_ingest_s /. float_of_int !n) (m.all_query_s /. float_of_int !n)
    (steal_share steal0);
  List.iter (fun mt -> Printf.printf "  %-26s %14.6g %s\n" mt.Util.m_name mt.Util.m_value mt.Util.m_unit) metrics;
  print_endline ("  " ^ Ops.summary ());
  print_endline
    (Util.result_line ~correct:(Ops.correct ()) ~attempted:Ops.v.Ops.attempted ~failed:(Ops.failed ()) metrics)
