(* optsample — command-line front end.

   Subcommands:
     repro    — run the paper-reproduction experiments (all or named)
     distinct — estimate a distinct count over two synthetic sets
     maxdom   — estimate max dominance over synthetic traffic
     derive   — machine-derive an estimator with the designer engine
     exists   — query the LP existence oracle *)

open Cmdliner

let ppf = Format.std_formatter

(* Shared -j/--jobs option: 0 = auto (OPTSAMPLE_JOBS env var, else
   Domain.recommended_domain_count). The pool only affects wall-clock
   time; every result is identical to a sequential run. *)
let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of domains for parallel sections (default: the \
           $(b,OPTSAMPLE_JOBS) environment variable, else the recommended \
           domain count). Results are independent of N.")

let pool_of_jobs jobs =
  if jobs > 0 then Numerics.Pool.create ~domains:jobs ()
  else Numerics.Pool.create ()

(* Shared --strict flag: degradations (solver fallbacks, jittered
   retries) abort with a structured diagnostic instead of being recovered
   and logged. *)
let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Treat any solver degradation (fallback chain, jittered retry) \
           as an error: the first one aborts with its structured \
           diagnostic and exit code 2, instead of being recovered and \
           reported on stderr.")

(* Shared observability options: --trace FILE turns full tracing on and
   writes a Chrome trace_event JSON at exit; --metrics prints the
   counter/histogram/cache dump to stderr. Both default to off, leaving
   the instrumentation at its single-branch disabled cost. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans for the whole run and write a Chrome trace_event \
           JSON document to $(docv) (open in chrome://tracing or \
           Perfetto). Implies $(b,--metrics)-level counters.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect counters and latency histograms during the run and \
           print them to stderr at exit.")

let with_obs ~trace ~metrics body =
  (match (trace, metrics) with
  | Some _, _ -> Numerics.Obs.set_level Numerics.Obs.Trace
  | None, true -> Numerics.Obs.set_level Numerics.Obs.Metrics
  | None, false -> ());
  body ();
  (match trace with
  | Some path ->
      Numerics.Obs.write_chrome_trace ~path;
      Format.eprintf "trace written to %s@." path
  | None -> ());
  if metrics || trace <> None then
    Format.eprintf "%a@." Numerics.Obs.pp_metrics ()

let with_strict strict body =
  Numerics.Robust.set_mode
    (if strict then Numerics.Robust.Strict else Numerics.Robust.Graceful);
  Numerics.Robust.reset_degradations ();
  match body () with
  | () ->
      let ds = Numerics.Robust.degradations () in
      if ds <> [] then begin
        Format.eprintf "note: %d solver degradation(s) recovered:@."
          (List.length ds);
        List.iter
          (fun d -> Format.eprintf "  %a@." Numerics.Robust.pp_degradation d)
          ds
      end
  | exception Numerics.Robust.Solver_error f ->
      Format.eprintf "solver error: %a@." Numerics.Robust.pp f;
      exit 2

(* ---------- repro ---------- *)

let experiments =
  [
    ("fig1", Experiments.Fig1.run);
    ("table41", Experiments.Table41.run);
    ("table42", Experiments.Table42.run);
    ("fig2", Experiments.Fig2.run);
    ("fig3", Experiments.Fig3.run);
    ("fig4", Experiments.Fig4.run);
    ("fig5", Experiments.Fig5.run);
    ("fig6", Experiments.Fig6.run);
    ("fig7", Experiments.Fig7.run);
    ("table51", Experiments.Table51.run);
    ("thm61", Experiments.Thm61.run);
    ("coeffs", Experiments.Coeffs.run);
    ("coord", Experiments.Coord.run);
    ("bottomk", Experiments.Bottomk.run);
    ("quantiles", Experiments.Quantiles.run);
    ("multiperiod", Experiments.Multiperiod.run);
  ]

let repro_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to run (default: all). One of "
            ^ String.concat " " (List.map fst experiments)
            ^ "."))
  in
  let run names jobs strict trace metrics =
    let todo = if names = [] then List.map fst experiments else names in
    match List.filter (fun n -> not (List.mem_assoc n experiments)) todo with
    | _ :: _ as unknown ->
        List.iter
          (fun n -> Format.eprintf "unknown experiment %S@." n)
          unknown;
        exit 1
    | [] ->
        with_obs ~trace ~metrics @@ fun () ->
        with_strict strict @@ fun () ->
        let pool = pool_of_jobs jobs in
        let outputs =
          Numerics.Pool.parallel_list_map pool
            (fun n ->
              let f = List.assoc n experiments in
              Numerics.Obs.span ~cat:"experiment" ("repro." ^ n) @@ fun () ->
              let b = Buffer.create 4096 in
              let bf = Format.formatter_of_buffer b in
              f bf;
              Format.pp_print_flush bf ();
              Buffer.contents b)
            todo
        in
        List.iter (fun out -> Format.fprintf ppf "%s@." out) outputs;
        Numerics.Pool.shutdown pool
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce the paper's tables and figures")
    Term.(const run $ names $ jobs_arg $ strict_arg $ trace_arg $ metrics_arg)

(* ---------- distinct ---------- *)

let distinct_cmd =
  let n =
    Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Per-instance set size.")
  in
  let jaccard =
    Arg.(
      value & opt float 0.5
      & info [ "j"; "jaccard" ] ~doc:"Jaccard coefficient of the two sets.")
  in
  let p =
    Arg.(value & opt float 0.05 & info [ "p" ] ~doc:"Sampling probability.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed.") in
  let run n jaccard p seed =
    let a, b = Workload.Setpairs.pair ~n ~jaccard in
    let seeds = Sampling.Seeds.create ~master:seed Sampling.Seeds.Independent in
    let s1 = Aggregates.Distinct.sample_binary seeds ~p ~instance:0 a in
    let s2 = Aggregates.Distinct.sample_binary seeds ~p ~instance:1 b in
    let c =
      Aggregates.Distinct.classify seeds ~p1:p ~p2:p ~s1 ~s2
        ~select:(fun _ -> true)
    in
    let truth = Workload.Setpairs.union_size a b in
    Format.fprintf ppf "truth = %d, sampled %d + %d keys@." truth
      (List.length s1) (List.length s2);
    Format.fprintf ppf "OR^(L)  = %.1f@."
      (Aggregates.Distinct.l_estimate c ~p1:p ~p2:p);
    Format.fprintf ppf "OR^(U)  = %.1f@."
      (Aggregates.Distinct.u_estimate c ~p1:p ~p2:p);
    Format.fprintf ppf "OR^(HT) = %.1f@."
      (Aggregates.Distinct.ht_estimate c ~p1:p ~p2:p);
    let d = float_of_int truth in
    Format.fprintf ppf "exact stddev: L %.1f, HT %.1f@."
      (sqrt (Aggregates.Distinct.var_l ~d ~jaccard ~p1:p ~p2:p))
      (sqrt (Aggregates.Distinct.var_ht ~d ~p1:p ~p2:p))
  in
  Cmd.v
    (Cmd.info "distinct" ~doc:"Distinct count over two sampled sets")
    Term.(const run $ n $ jaccard $ p $ seed)

(* ---------- maxdom ---------- *)

let maxdom_cmd =
  let percent =
    Arg.(
      value & opt float 5.
      & info [ "percent" ] ~doc:"Expected percentage of keys sampled.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Use the full-size Section 8.2 workload.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed.") in
  let run percent full seed strict trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_strict strict @@ fun () ->
    let params =
      if full then Workload.Traffic.default
      else
        {
          Workload.Traffic.default with
          Workload.Traffic.n_shared = 2_200;
          n_only = 2_700;
          total_per_hour = 1.1e5;
        }
    in
    let ((a, b) as pair) = Workload.Traffic.generate params in
    Format.fprintf ppf "workload: %a@." Workload.Traffic.pp_stats
      (Workload.Traffic.stats pair);
    let instances = [ a; b ] in
    let truth = Sampling.Instance.max_dominance instances in
    let k inst =
      percent /. 100. *. float_of_int (Sampling.Instance.cardinality inst)
    in
    let taus =
      [|
        Sampling.Poisson.tau_for_expected_size a (k a);
        Sampling.Poisson.tau_for_expected_size b (k b);
      |]
    in
    let seeds = Sampling.Seeds.create ~master:seed Sampling.Seeds.Independent in
    let samples = Aggregates.Sum_agg.sample_pps seeds ~taus instances in
    let all _ = true in
    Format.fprintf ppf "truth    = %.4e@." truth;
    Format.fprintf ppf "max^(L)  = %.4e@."
      (Aggregates.Dominance.max_dominance_l samples ~select:all);
    Format.fprintf ppf "max^(HT) = %.4e@."
      (Aggregates.Dominance.max_dominance_ht samples ~select:all);
    let vht, vl =
      Aggregates.Dominance.exact_variances ~taus ~instances ~select:all
    in
    Format.fprintf ppf "exact se: L %.2f%%, HT %.2f%% (Var ratio %.2f)@."
      (100. *. sqrt vl /. truth)
      (100. *. sqrt vht /. truth)
      (vht /. vl)
  in
  Cmd.v
    (Cmd.info "maxdom" ~doc:"Max dominance over two-hour traffic")
    Term.(const run $ percent $ full $ seed $ strict_arg $ trace_arg
          $ metrics_arg)

(* ---------- derive ---------- *)

let derive_cmd =
  let fn =
    Arg.(
      value
      & opt (enum [ ("max", `Max); ("or", `Or); ("min", `Min) ]) `Max
      & info [ "f" ] ~doc:"Function to estimate: max, or, min.")
  in
  let probs =
    Arg.(
      value & opt (list float) [ 0.5; 0.5 ]
      & info [ "p" ] ~doc:"Per-instance sampling probabilities.")
  in
  let grid =
    Arg.(
      value & opt (list float) [ 0.; 1. ]
      & info [ "grid" ] ~doc:"Value grid per entry.")
  in
  let order =
    Arg.(
      value
      & opt (enum [ ("dense", `L); ("sparse", `U) ]) `L
      & info [ "order" ]
          ~doc:"dense = order-based L (Algorithm 1); sparse = partition U \
                (Algorithm 2).")
  in
  let run fn probs grid order strict trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_strict strict @@ fun () ->
    let probs = Array.of_list probs in
    let f =
      match fn with
      | `Max -> fun v -> Array.fold_left Float.max 0. v
      | `Min -> fun v -> Array.fold_left Float.min infinity v
      | `Or -> fun v -> if Array.exists (fun x -> x > 0.5) v then 1. else 0.
    in
    let module D = Estcore.Designer in
    let problem = D.Problems.oblivious ~probs ~grid ~f () in
    let result =
      match order with
      | `L ->
          Result.map
            (fun est -> (est, None))
            (D.solve_order (D.Problems.sort_data D.Problems.order_l problem))
      | `U -> (
          let batches =
            D.Problems.batches_by
              (fun v ->
                Array.fold_left (fun a x -> if x > 0. then a + 1 else a) 0 v)
              problem.D.data
          in
          match D.solve_partition_robust ~batches ~f ~dist:problem.D.dist () with
          | Error fl -> Error (Numerics.Robust.to_string fl)
          | Ok { D.estimator; provenance } -> Ok (estimator, Some provenance))
    in
    match result with
    | Error e -> Format.fprintf ppf "no estimator: %s@." e
    | Ok (est, provenance) ->
        Format.fprintf ppf
          "derived estimator (unbiased: %b, min estimate: %.4f):@."
          (D.is_unbiased problem est)
          (D.min_estimate est);
        List.iter
          (fun (k, v) ->
            Format.fprintf ppf "  (%s) -> %.6f@."
              (String.concat ", "
                 (Array.to_list
                    (Array.map
                       (function
                         | None -> "·" | Some x -> Printf.sprintf "%g" x)
                       k)))
              v)
          (List.sort compare (D.bindings est));
        Option.iter
          (fun (p : D.provenance) ->
            Format.fprintf ppf
              "provenance: %d batch(es), %d by clean QP, %d degraded@."
              p.D.batches p.D.qp_clean
              (List.length p.D.degraded);
            List.iter
              (fun b -> Format.fprintf ppf "  %a@." D.pp_batch_outcome b)
              p.D.degraded)
          provenance
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Machine-derive an optimal estimator (Algorithms 1/2)")
    Term.(const run $ fn $ probs $ grid $ order $ strict_arg $ trace_arg
          $ metrics_arg)

(* ---------- catalog ---------- *)

let catalog_cmd =
  let run () = Estcore.Catalog.print ppf in
  Cmd.v
    (Cmd.info "catalog" ~doc:"List the estimators, their models and properties")
    Term.(const run $ const ())

(* ---------- plots ---------- *)

let plots_cmd =
  let dir =
    Arg.(value & opt string "plots" & info [ "dir" ] ~doc:"Output directory.")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-size Figure 7 workload.")
  in
  let run dir full jobs strict trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_strict strict @@ fun () ->
    let pool = pool_of_jobs jobs in
    let paths =
      if full then
        Experiments.Figures.write_all ~pool
          ~fig7_params:Workload.Traffic.default ~dir ()
      else Experiments.Figures.write_all ~pool ~dir ()
    in
    List.iter (fun p -> Format.fprintf ppf "%s@." p) paths;
    Numerics.Pool.shutdown pool
  in
  Cmd.v
    (Cmd.info "plots" ~doc:"Render the paper's figures to SVG files")
    Term.(const run $ dir $ full $ jobs_arg $ strict_arg $ trace_arg
          $ metrics_arg)

(* ---------- sample / estimate: the persisted-sample pipeline ---------- *)

let gen_cmd =
  let n = Arg.(value & opt int 5_000 & info [ "n" ] ~doc:"Number of keys.") in
  let zipf = Arg.(value & opt float 0.8 & info [ "zipf" ] ~doc:"Value skew.") in
  let total = Arg.(value & opt float 1e5 & info [ "total" ] ~doc:"Total value.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let out = Arg.(required & opt (some string) None & info [ "o"; "out" ] ~doc:"Output file.") in
  let run n zipf total seed out =
    let insts =
      Workload.Changes.generate
        { Workload.Changes.default with Workload.Changes.n_keys = n; r = 1;
          zipf_s = zipf; total; seed }
    in
    Sampling.Io.write_instance ~path:out (List.hd insts);
    Format.fprintf ppf "wrote %d-key instance to %s@." n out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic instance file")
    Term.(const run $ n $ zipf $ total $ seed $ out)

let sample_cmd =
  let input = Arg.(required & opt (some file) None & info [ "i"; "input" ] ~doc:"Instance file.") in
  let out = Arg.(required & opt (some string) None & info [ "o"; "out" ] ~doc:"Sample output file.") in
  let k = Arg.(value & opt float 500. & info [ "k" ] ~doc:"Expected sample size.") in
  let master = Arg.(value & opt int 42 & info [ "master" ] ~doc:"Master hash seed (must be shared with `estimate`).") in
  let instance = Arg.(value & opt int 0 & info [ "instance" ] ~doc:"Instance id (position in the later estimate).") in
  let run input out k master instance =
    let inst =
      match Sampling.Io.read_instance_opt ~path:input with
      | Ok i -> i
      | Error e ->
          Format.eprintf "cannot read instance %s: %a@." input
            Sampling.Io.pp_parse_error e;
          exit 1
    in
    if k <= 0. then begin
      Format.eprintf "expected sample size k = %g must be positive@." k;
      exit 1
    end;
    (* k beyond the instance size means "keep everything": tau = 0. *)
    let k = Float.min k (float_of_int (Sampling.Instance.cardinality inst)) in
    let tau = Sampling.Poisson.tau_for_expected_size inst k in
    let seeds = Sampling.Seeds.create ~master Sampling.Seeds.Independent in
    let s = Sampling.Poisson.pps_sample seeds ~instance ~tau inst in
    Sampling.Io.write_pps ~path:out s;
    Format.fprintf ppf
      "sampled %d of %d keys (tau = %g) into %s — the instance can now be        discarded@."
      (List.length s.Sampling.Poisson.entries)
      (Sampling.Instance.cardinality inst)
      tau out
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"PPS-sample an instance file (what a data source would retain)")
    Term.(const run $ input $ out $ k $ master $ instance)

let estimate_cmd =
  let s1 = Arg.(required & opt (some file) None & info [ "s1" ] ~doc:"Sample of instance 0.") in
  let s2 = Arg.(required & opt (some file) None & info [ "s2" ] ~doc:"Sample of instance 1.") in
  let master = Arg.(value & opt int 42 & info [ "master" ] ~doc:"Master hash seed used when sampling.") in
  let run s1 s2 master strict trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_strict strict @@ fun () ->
    let read path =
      match Sampling.Io.read_pps_opt ~path with
      | Ok s -> s
      | Error e ->
          Format.eprintf "cannot read sample %s: %a@." path
            Sampling.Io.pp_parse_error e;
          exit 1
    in
    let a = read s1 in
    let b = read s2 in
    let seeds = Sampling.Seeds.create ~master Sampling.Seeds.Independent in
    let samples =
      {
        Aggregates.Sum_agg.seeds;
        taus = [| a.Sampling.Poisson.tau; b.Sampling.Poisson.tau |];
        samples = [| a; b |];
      }
    in
    let all _ = true in
    Format.fprintf ppf "max-dominance  max^(L)  = %.6e@."
      (Aggregates.Dominance.max_dominance_l samples ~select:all);
    Format.fprintf ppf "max-dominance  max^(HT) = %.6e@."
      (Aggregates.Dominance.max_dominance_ht samples ~select:all);
    Format.fprintf ppf "min-dominance  min^(HT) = %.6e@."
      (Aggregates.Dominance.min_dominance_ht samples ~select:all)
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate multi-instance aggregates from two persisted samples")
    Term.(const run $ s1 $ s2 $ master $ strict_arg $ trace_arg $ metrics_arg)

let outcome_cmd =
  let s1 = Arg.(required & opt (some file) None & info [ "s1" ] ~doc:"Sample of the first instance.") in
  let s2 = Arg.(required & opt (some file) None & info [ "s2" ] ~doc:"Sample of the second instance.") in
  let key = Arg.(required & opt (some int) None & info [ "key" ] ~doc:"Key to reconstruct the outcome of.") in
  let master = Arg.(value & opt int 42 & info [ "master" ] ~doc:"Master hash seed used when sampling.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc:"Persist the outcome to this file.") in
  let run s1 s2 key master out =
    let read path =
      match Sampling.Io.read_pps_opt ~path with
      | Ok s -> s
      | Error e ->
          Format.eprintf "cannot read sample %s: %a@." path
            Sampling.Io.pp_parse_error e;
          exit 1
    in
    let a = read s1 in
    let b = read s2 in
    let seeds = Sampling.Seeds.create ~master Sampling.Seeds.Independent in
    let samples =
      {
        Aggregates.Sum_agg.seeds;
        taus = [| a.Sampling.Poisson.tau; b.Sampling.Poisson.tau |];
        samples = [| a; b |];
      }
    in
    let o = Aggregates.Sum_agg.key_outcome samples key in
    Array.iteri
      (fun i v ->
        match v with
        | Some v ->
            Format.fprintf ppf
              "instance %d: sampled, v = %g (tau = %g, seed = %g)@." i v
              o.Sampling.Outcome.Pps.taus.(i) o.Sampling.Outcome.Pps.seeds.(i)
        | None ->
            Format.fprintf ppf
              "instance %d: not sampled, v < %g (tau = %g, seed = %g)@." i
              (Sampling.Outcome.Pps.upper_bound o i)
              o.Sampling.Outcome.Pps.taus.(i) o.Sampling.Outcome.Pps.seeds.(i))
      o.Sampling.Outcome.Pps.values;
    Format.fprintf ppf "max^(L)  = %.6e@." (Estcore.Max_pps.l o);
    Format.fprintf ppf "max^(HT) = %.6e@." (Estcore.Ht.max_pps o);
    match out with
    | Some path ->
        Sampling.Io.write_outcome ~path o;
        Format.fprintf ppf "outcome written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "outcome"
       ~doc:
         "Reconstruct (and optionally persist) a single key's outcome from \
          two persisted samples")
    Term.(const run $ s1 $ s2 $ key $ master $ out)

(* ---------- serve / client: the streaming summary service ---------- *)

let port_arg =
  (* A bare int would let out-of-range ports truncate inside htons and
     bind somewhere unrelated. *)
  let port_conv =
    let parse s =
      match int_of_string_opt s with
      | Some p when p >= 1 && p <= 65535 -> Ok p
      | _ -> Error (`Msg (Printf.sprintf "port %s not in 1..65535" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt port_conv 7411 & info [ "port" ] ~doc:"TCP port (1-65535).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Bind/connect address.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (overrides $(b,--host)/$(b,--port)).")

let serve_cmd =
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ]
          ~doc:
            "Store shard (mailbox) count; 0 = the $(b,-j) pool size. \
             Summaries and answers never depend on it.")
  in
  let master = Arg.(value & opt int 42 & info [ "master" ] ~doc:"Master hash seed.") in
  let shared =
    Arg.(
      value & flag
      & info [ "shared-seeds" ]
          ~doc:
            "Coordinated sampling: all instances share one seed per key \
             (required by the jaccard/l1/union/intersection queries).")
  in
  let tau = Arg.(value & opt float 100. & info [ "tau" ] ~doc:"Default PPS threshold.") in
  let k = Arg.(value & opt int 64 & info [ "k" ] ~doc:"Default bottom-k / VarOpt size.") in
  let p = Arg.(value & opt float 0.05 & info [ "p" ] ~doc:"Default binary sampling probability.") in
  let flush_every =
    Arg.(value & opt int 8192 & info [ "flush-every" ] ~doc:"Auto-flush threshold (pending records).")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Warm start: load this snapshot if it exists (write one back \
             with the SNAPSHOT request).")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Durable op log: recover from the newest checkpoint + log in \
             $(docv) (created if missing), then log every mutating \
             request. SNAPSHOT requests roll the log over as a \
             checkpoint. Excludes $(b,--snapshot).")
  in
  let fsync =
    Arg.(
      value & opt string "always"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: $(b,always) (no acknowledged record is \
             ever lost), $(b,interval=N) (fsync every N appends), or \
             $(b,never).")
  in
  let max_inflight =
    Arg.(
      value & opt int 65536
      & info [ "max-inflight" ]
          ~doc:
            "Admission limit: shed ingest (structured overloaded error \
             with a retry_after_ms hint) when a shard has this many \
             records pending.")
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ]
          ~doc:
            "Per-session idle timeout in milliseconds; 0 = none. The event \
             loop tracks each connection's last read: a session idle past \
             the timeout is answered a structured timeout error and \
             closed.")
  in
  let backlog =
    Arg.(value & opt int 16 & info [ "backlog" ] ~doc:"Listen backlog.")
  in
  let max_line_bytes =
    Arg.(
      value & opt int 8192
      & info [ "max-line-bytes" ]
          ~doc:
            "Reject request lines longer than this (structured error, \
             connection closed).")
  in
  let max_conns =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.max_conns
      & info [ "max-conns" ]
          ~doc:
            "Maximum simultaneous connections in the event loop (select \
             is FD_SETSIZE-bound, so at most ~960); excess connections \
             wait in the listen backlog.")
  in
  let run host port socket shards master shared tau k p flush_every snapshot
      wal fsync max_inflight timeout_ms backlog max_line_bytes max_conns jobs
      strict trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_strict strict @@ fun () ->
    let pool = pool_of_jobs jobs in
    let shards = if shards > 0 then shards else Numerics.Pool.size pool in
    let cfg =
      {
        Server.Store.shards;
        master;
        mode =
          (if shared then Sampling.Seeds.Shared else Sampling.Seeds.Independent);
        default_tau = tau;
        default_k = k;
        default_p = p;
        flush_every;
        max_inflight;
      }
    in
    if wal <> None && snapshot <> None then begin
      Format.eprintf
        "--wal and --snapshot are exclusive: the WAL directory holds its \
         own checkpoints@.";
      exit 1
    end;
    let store, wal_handle =
      match wal with
      | Some dir -> (
          let fsync =
            match Server.Wal.fsync_policy_of_string fsync with
            | Ok p -> p
            | Error m ->
                Format.eprintf "%s@." m;
                exit 1
          in
          let wcfg = { (Server.Wal.default_config ~dir) with fsync } in
          match Server.Wal.recover ~pool ~store_cfg:cfg wcfg with
          | Error m ->
              Format.eprintf "cannot recover from WAL %s: %s@." dir m;
              exit 1
          | Ok r ->
              Format.fprintf ppf
                "wal recovery: %d instance(s), %d op(s) replayed%s%s%s%s@."
                (List.length (Server.Store.instances r.Server.Wal.store))
                r.Server.Wal.replayed
                (match r.Server.Wal.checkpoint_epoch with
                | Some e -> Printf.sprintf " on checkpoint epoch %d" e
                | None -> " (cold start)")
                (if r.Server.Wal.skipped_creates > 0 then
                   Printf.sprintf ", %d refused CREATE(s) skipped"
                     r.Server.Wal.skipped_creates
                 else "")
                (if r.Server.Wal.truncated_bytes > 0 then
                   Printf.sprintf ", %d torn byte(s) dropped"
                     r.Server.Wal.truncated_bytes
                 else "")
                (match r.Server.Wal.skipped_checkpoints with
                | [] -> ""
                | q ->
                    Printf.sprintf ", %d checkpoint(s) quarantined"
                      (List.length q));
              (r.Server.Wal.store, Some r.Server.Wal.wal))
      | None -> (
          match snapshot with
          | Some path when Sys.file_exists path -> (
              match Server.Snapshot.load ~pool ~shards path with
              | Ok st ->
                  Format.fprintf ppf "warm start: %d instance(s) from %s@."
                    (List.length (Server.Store.instances st))
                    path;
                  (st, None)
              | Error e ->
                  Format.eprintf "cannot load snapshot %s: %a@." path
                    Sampling.Io.pp_parse_error e;
                  exit 1)
          | _ -> (Server.Store.create ~pool cfg, None))
    in
    let engine = Server.Engine.create ?wal:wal_handle store in
    let dcfg =
      {
        Server.Daemon.default_config with
        Server.Daemon.backlog;
        max_line_bytes;
        read_timeout_s = float_of_int timeout_ms /. 1000.;
        max_conns;
      }
    in
    let sock =
      match socket with
      | Some path -> (
          match Server.Daemon.listen_unix ~backlog ~path () with
          | Ok sock ->
              Format.fprintf ppf "listening on %s (%d shard(s))@." path shards;
              sock
          | Error m ->
              Format.eprintf "%s@." m;
              exit 1)
      | None ->
          let sock, bound = Server.Daemon.listen_tcp ~host ~backlog ~port () in
          Format.fprintf ppf "listening on %s:%d (%d shard(s))@." host bound
            shards;
          sock
    in
    Server.Daemon.serve ~config:dcfg engine sock;
    Option.iter Server.Wal.close wal_handle;
    Format.fprintf ppf "shutdown@.";
    Numerics.Pool.shutdown pool
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the streaming summary daemon (line protocol, v1)")
    Term.(
      const run $ host_arg $ port_arg $ socket_arg $ shards $ master $ shared
      $ tau $ k $ p $ flush_every $ snapshot $ wal $ fsync $ max_inflight
      $ timeout_ms $ backlog $ max_line_bytes $ max_conns $ jobs_arg
      $ strict_arg $ trace_arg $ metrics_arg)

let client_cmd =
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Requests to send (quote each one, e.g. 'QUERY max a b' or \
             'QUERY jaccard a b'). With none, requests are read from stdin, \
             one per line.")
  in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ]
          ~doc:
            "Retry attempts for dropped connections and overloaded \
             responses (exponential backoff with full jitter, honoring \
             the server's retry_after_ms hint); 1 = fail fast.")
  in
  let retry_base_ms =
    Arg.(
      value & opt int 10
      & info [ "retry-base-ms" ] ~doc:"Base backoff delay in milliseconds.")
  in
  let batch =
    Arg.(
      value & opt int 0
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Coalesce consecutive INGEST requests for one instance into \
             INGESTN batches of up to $(docv) records (one response per \
             batch). Other requests flush the pending batch first. 0 = \
             send every request as-is.")
  in
  let run host port socket retries retry_base_ms batch requests =
    let conn =
      match socket with
      | Some path -> Server.Client.connect_unix ~path
      | None -> Server.Client.connect_tcp ~host ~port ()
    in
    let retry =
      {
        Server.Client.default_retry with
        attempts = max 1 retries;
        base_delay_ms = retry_base_ms;
      }
    in
    match conn with
    | Error m ->
        Format.eprintf "cannot connect: %s@." m;
        exit 1
    | Ok c ->
        let print_response = function
          | Ok response ->
              Format.fprintf ppf "%s@." response;
              Server.Protocol.json_ok response
          | Error m ->
              Format.eprintf "connection error: %s@." m;
              exit 1
        in
        (* PULL / SYNC answer a header plus payload lines — read them
           through request_lines so the payload never desynchronizes the
           connection (left-over lines would be mistaken for the next
           response). *)
        let multiline line =
          match Server.Protocol.parse line with
          | Ok (Server.Protocol.Pull _ | Server.Protocol.Sync) -> true
          | _ -> false
        in
        let send_raw line =
          if multiline line then (
            match Server.Client.request_lines c line with
            | Ok (header, payload) ->
                Format.fprintf ppf "%s@." header;
                List.iter (fun l -> Format.fprintf ppf "%s@." l) payload;
                Server.Protocol.json_ok header
            | Error m ->
                Format.eprintf "connection error: %s@." m;
                exit 1)
          else print_response (Server.Client.request_retry ~retry c line)
        in
        (* --batch coalescer: consecutive INGESTs into one instance pile
           up until the batch is full or a different request (or a
           different instance) flushes them as one INGESTN. *)
        let pending_name = ref "" in
        let pending = ref [] in
        let npending = ref 0 in
        let flush_batch () =
          if !npending = 0 then true
          else begin
            let name = !pending_name in
            let records = Array.of_list (List.rev !pending) in
            pending := [];
            npending := 0;
            print_response (Server.Client.ingest_many ~retry c ~name records)
          end
        in
        let send line =
          if batch <= 0 then send_raw line
          else
            match Server.Protocol.parse line with
            | Ok (Server.Protocol.Ingest { name; key; weight }) ->
                let switched =
                  if !npending > 0 && !pending_name <> name then flush_batch ()
                  else true
                in
                pending_name := name;
                pending := (key, weight) :: !pending;
                incr npending;
                let full = if !npending >= batch then flush_batch () else true in
                switched && full
            | _ -> (
                match flush_batch () with
                | flushed -> send_raw line && flushed)
        in
        let ok =
          if requests <> [] then
            List.fold_left (fun acc r -> send r && acc) true requests
          else begin
            let acc = ref true in
            (try
               while true do
                 let line = input_line stdin in
                 if String.trim line <> "" then acc := send line && !acc
               done
             with End_of_file -> ());
            !acc
          end
        in
        let ok = flush_batch () && ok in
        Server.Client.close c;
        if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running optsample daemon and print responses")
    Term.(
      const run $ host_arg $ port_arg $ socket_arg $ retries $ retry_base_ms
      $ batch $ requests)

(* ---------- route: the cluster front door ---------- *)

let route_cmd =
  let backends =
    Arg.(
      value & opt_all string []
      & info [ "backend" ] ~docv:"ADDR"
          ~doc:
            "A storage daemon to route over: $(i,HOST:PORT), $(i,PORT) \
             (localhost), or a Unix-socket path (anything containing a \
             '/'). Repeatable; backend order is the placement order and \
             must be identical across router restarts.")
  in
  let master = Arg.(value & opt int 42 & info [ "master" ] ~doc:"Master hash seed; must match every backend.") in
  let shared =
    Arg.(
      value & flag
      & info [ "shared-seeds" ]
          ~doc:"Coordinated sampling mode; must match every backend.")
  in
  let tau = Arg.(value & opt float 100. & info [ "tau" ] ~doc:"Default PPS threshold for CREATE without one.") in
  let k = Arg.(value & opt int 64 & info [ "k" ] ~doc:"Default bottom-k / VarOpt size.") in
  let p = Arg.(value & opt float 0.05 & info [ "p" ] ~doc:"Default binary sampling probability.") in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ]
          ~doc:
            "Retry attempts per backend request (dropped connections, \
             overloaded responses); 1 = fail fast.")
  in
  let retry_base_ms =
    Arg.(
      value & opt int 10
      & info [ "retry-base-ms" ] ~doc:"Base backoff delay in milliseconds.")
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ]
          ~doc:"Per-session read timeout in milliseconds; 0 = none.")
  in
  let backlog =
    Arg.(value & opt int 16 & info [ "backlog" ] ~doc:"Listen backlog.")
  in
  let max_line_bytes =
    Arg.(
      value & opt int 8192
      & info [ "max-line-bytes" ]
          ~doc:"Reject request lines longer than this.")
  in
  let max_conns =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.max_conns
      & info [ "max-conns" ]
          ~doc:"Maximum simultaneous connections in the event loop.")
  in
  let parse_backend s =
    if String.contains s '/' then Ok (Unix.ADDR_UNIX s)
    else
      let mk host port =
        match int_of_string_opt port with
        | Some p when p >= 1 && p <= 65535 -> (
            match Unix.inet_addr_of_string host with
            | addr -> Ok (Unix.ADDR_INET (addr, p))
            | exception Failure _ ->
                Error (Printf.sprintf "bad backend host %S" host))
        | _ -> Error (Printf.sprintf "bad backend port %S" port)
      in
      match String.rindex_opt s ':' with
      | Some i ->
          mk (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))
      | None -> mk "127.0.0.1" s
  in
  let run host port socket backends master shared tau k p retries retry_base_ms
      timeout_ms backlog max_line_bytes max_conns trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    if backends = [] then begin
      Format.eprintf "route needs at least one --backend@.";
      exit 1
    end;
    let addrs =
      List.map
        (fun s ->
          match parse_backend s with
          | Ok a -> a
          | Error m ->
              Format.eprintf "%s@." m;
              exit 1)
        backends
    in
    let cfg =
      {
        Server.Store.shards = 1;
        master;
        mode =
          (if shared then Sampling.Seeds.Shared else Sampling.Seeds.Independent);
        default_tau = tau;
        default_k = k;
        default_p = p;
        flush_every = 8192;
        max_inflight = 65536;
      }
    in
    let retry =
      {
        Server.Client.default_retry with
        attempts = max 1 retries;
        base_delay_ms = retry_base_ms;
      }
    in
    match Server.Router.connect ~retry ~store_cfg:cfg addrs with
    | Error m ->
        Format.eprintf "cannot start router: %s@." m;
        exit 1
    | Ok t ->
        let dcfg =
          {
            Server.Daemon.default_config with
            Server.Daemon.backlog;
            max_line_bytes;
            read_timeout_s = float_of_int timeout_ms /. 1000.;
            max_conns;
          }
        in
        let sock =
          match socket with
          | Some path -> (
              match Server.Daemon.listen_unix ~backlog ~path () with
              | Ok sock ->
                  Format.fprintf ppf "routing %d backend(s) on %s@."
                    (Server.Router.backend_count t)
                    path;
                  sock
              | Error m ->
                  Format.eprintf "%s@." m;
                  exit 1)
          | None ->
              let sock, bound =
                Server.Daemon.listen_tcp ~host ~backlog ~port ()
              in
              Format.fprintf ppf "routing %d backend(s) on %s:%d@."
                (Server.Router.backend_count t)
                host bound;
              sock
        in
        Server.Router.serve ~config:dcfg t sock;
        Server.Router.close t;
        Format.fprintf ppf "shutdown@."
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster router: fan writes to key owners, answer queries \
          from merged summaries (bit-identical to a single node)")
    Term.(
      const run $ host_arg $ port_arg $ socket_arg $ backends $ master $ shared
      $ tau $ k $ p $ retries $ retry_base_ms $ timeout_ms $ backlog
      $ max_line_bytes $ max_conns $ trace_arg $ metrics_arg)

(* ---------- exists ---------- *)

let exists_cmd =
  let fn =
    Arg.(
      value
      & opt (enum [ ("or", `Or); ("xor", `Xor) ]) `Or
      & info [ "f" ] ~doc:"Function: or, xor.")
  in
  let p1 = Arg.(value & opt float 0.3 & info [ "p1" ] ~doc:"Probability 1.") in
  let p2 = Arg.(value & opt float 0.3 & info [ "p2" ] ~doc:"Probability 2.") in
  let known =
    Arg.(value & flag & info [ "known-seeds" ] ~doc:"Seeds available.")
  in
  let run fn p1 p2 known =
    let feasible =
      match (fn, known) with
      | `Or, false -> Estcore.Existence.or_unknown_seeds ~p1 ~p2
      | `Or, true -> Estcore.Existence.or_known_seeds ~p1 ~p2
      | `Xor, false -> Estcore.Existence.xor_unknown_seeds ~p1 ~p2
      | `Xor, true ->
          Estcore.Existence.exists
            (Estcore.Designer.Problems.binary_known_seeds ~probs:[| p1; p2 |]
               ~f:(fun v ->
                 if (v.(0) > 0.5) <> (v.(1) > 0.5) then 1. else 0.)
               ())
    in
    Format.fprintf ppf
      "nonnegative unbiased estimator %s (p = %.2f, %.2f, %s seeds)@."
      (if feasible then "EXISTS" else "DOES NOT EXIST")
      p1 p2
      (if known then "known" else "unknown")
  in
  Cmd.v
    (Cmd.info "exists" ~doc:"LP existence oracle (Theorem 6.1)")
    Term.(const run $ fn $ p1 $ p2 $ known)

let () =
  let info =
    Cmd.info "optsample" ~version:"1.0.0"
      ~doc:
        "Optimal unbiased estimators over sampled instances (Cohen & \
         Kaplan, PODS 2011)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            repro_cmd; distinct_cmd; maxdom_cmd; derive_cmd; exists_cmd;
            gen_cmd; sample_cmd; estimate_cmd; outcome_cmd; serve_cmd;
            route_cmd; client_cmd; plots_cmd; catalog_cmd;
          ]))
