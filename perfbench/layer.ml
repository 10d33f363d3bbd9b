(* Per-layer metrics of the traced run: time spent in, and work done by,
   calls into one layer's public functions, timed from the benchmark's
   own code. Totals are kept per cycle and reported as the median over
   the run's cycles; [_ms] metrics are medians over single calls. *)

let kinds = [ "max"; "or"; "distinct"; "dominance"; "jaccard"; "l1"; "union"; "intersection" ]

(* name, unit, aggregation *)
type agg = Cycle_total | Call_median

let metrics =
  [ ("daemon.rtt_ms", "ms", Call_median);
    ("protocol.parse_s", "s", Cycle_total);
    ("engine.admit_s", "s", Cycle_total);
    ("wal.append_s", "s", Cycle_total);
    ("wal.bytes", "bytes", Cycle_total);
    ("wal.checkpoint_s", "s", Cycle_total);
    ("wal.recover_s", "s", Cycle_total);
    ("wal.replayed", "count", Cycle_total);
    ("snapshot.write_s", "s", Cycle_total);
    ("snapshot.load_s", "s", Cycle_total);
    ("snapshot.bytes", "bytes", Cycle_total);
    ("store.publish_s", "s", Cycle_total);
    ("store.apply_s", "s", Cycle_total);
    ("store.applied", "count", Cycle_total) ]
  @ List.map (fun k -> ("engine.query." ^ k ^ "_ms", "ms", Call_median)) kinds
  @ [ ("router.pull_s", "s", Cycle_total);
      ("router.pull_bytes", "bytes", Cycle_total);
      ("merge.parse_s", "s", Cycle_total);
      ("merge.merge_s", "s", Cycle_total);
      ("merge.materialize_s", "s", Cycle_total);
      ("router.forward_ms", "ms", Call_median) ]

let current : (string, float) Hashtbl.t = Hashtbl.create 32
let cycles : (string, Util.samples) Hashtbl.t = Hashtbl.create 32
let calls : (string, Util.samples) Hashtbl.t = Hashtbl.create 32

let check name =
  if not (List.exists (fun (n, _, _) -> n = name) metrics) then
    invalid_arg ("unknown layer metric " ^ name)

let add name x =
  check name;
  Hashtbl.replace current name (x +. Option.value ~default:0. (Hashtbl.find_opt current name))

let span name f =
  let r, dt = Util.timed f in
  add name dt;
  r

let call_ms name seconds =
  check name;
  let s =
    match Hashtbl.find_opt calls name with
    | Some s -> s
    | None ->
        let s = Util.samples () in
        Hashtbl.replace calls name s;
        s
  in
  Util.add s (seconds *. 1000.)

let end_cycle () =
  List.iter
    (fun (name, _, agg) ->
      if agg = Cycle_total then begin
        let s =
          match Hashtbl.find_opt cycles name with
          | Some s -> s
          | None ->
              let s = Util.samples () in
              Hashtbl.replace cycles name s;
              s
        in
        Util.add s (Option.value ~default:0. (Hashtbl.find_opt current name))
      end)
    metrics;
  Hashtbl.reset current

(* A layer the workload never calls reports 0. *)
let report () =
  List.map
    (fun (name, unit, agg) ->
      let tbl = if agg = Cycle_total then cycles else calls in
      let v =
        match Hashtbl.find_opt tbl name with
        | Some s when s.Util.n > 0 -> Util.median s
        | _ -> 0.
      in
      Util.metric name unit v)
    metrics
