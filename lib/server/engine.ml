module P = Protocol
module Designer = Estcore.Designer
module Distinct = Aggregates.Distinct

type t = { t_store : Store.t; t_wal : Wal.t option }

let create ?wal s = { t_store = s; t_wal = wal }
let store t = t.t_store
let wal t = t.t_wal

type action = Continue | Close | Stop

(* Derived OR^(L) tables, memoized under the problem fingerprint. The
   cache is monomorphic in the outcome key, so the engine owns one for
   the binary-known-seeds key type. *)
let or_cache : (bool array * bool array) Designer.cache =
  Designer.cache ~name:"server.or" ()

let or2 v = if v.(0) > 0.5 || v.(1) > 0.5 then 1. else 0.

(* [~fname]/[~tag] give the problem a precomputed fingerprint key, so
   the per-query cache lookup is a cheap string build instead of the
   structural MD5 walk over the whole 16-vector domain. *)
let or_problem ~p1 ~p2 =
  Designer.Problems.binary_known_seeds ~fname:"or2" ~probs:[| p1; p2 |] ~f:or2
    ()
  |> Designer.Problems.sort_data ~tag:"order-l" Designer.Problems.order_l

(* Flattened 16-cell copies of the served OR^(L) tables, keyed by the
   probability pair. [Or_weighted.Table.of_estimator] copies the derived
   cell values verbatim, so the flat path returns bit-identical sums. *)
let or_table_cache : (float * float, Estcore.Or_weighted.Table.t) Numerics.Memo.t
    =
  Numerics.Memo.create ~capacity:64 ~name:"server.or_table"
    ~hash:(fun (p1, p2) ->
      (* bit-pattern hash, consistent with Float.equal on the validated
         domain p ∈ (0,1] (no -0. or nan to distinguish) *)
      Int64.to_int (Int64.bits_of_float p1)
      lxor (Int64.to_int (Int64.bits_of_float p2) * 0x9e3779b1))
    ~equal:(fun (a1, a2) (b1, b2) -> Float.equal a1 b1 && Float.equal a2 b2)
    ()

let or_table ~p1 ~p2 table =
  Numerics.Memo.find_or_add or_table_cache (p1, p2) (fun () ->
      Estcore.Or_weighted.Table.of_estimator table)

let or_flat_tables ~p1 ~p2 =
  match Designer.solve_order_cached ~cache:or_cache (or_problem ~p1 ~p2) with
  | Ok table -> Ok (table, or_table ~p1 ~p2 table)
  | Error e -> Error e

module ISet = Set.Make (Int)

(* Serving path of [QUERY or]: an ascending walk over the union of the
   two samples, left-to-right accumulation. The outcome key of key h is
   its (below, sampled) indicator pair, with seeds recomputed at the
   instances' recorded ids; each key costs one cell index and one
   unboxed load in the flattened table. *)
let eval_or_flat flat seeds ~ids:(id1, id2) ~p1 ~p2 ~s1 ~s2 =
  let set1 = ISet.of_list s1 and set2 = ISet.of_list s2 in
  let acc = Float.Array.make 1 0. in
  ISet.iter
    (fun h ->
      let u1 = Sampling.Seeds.seed seeds ~instance:id1 ~key:h in
      let u2 = Sampling.Seeds.seed seeds ~instance:id2 ~key:h in
      let code =
        Estcore.Or_weighted.Table.code ~b0:(u1 <= p1) ~b1:(u2 <= p2)
          ~s0:(ISet.mem h set1) ~s1:(ISet.mem h set2)
      in
      Estcore.Or_weighted.Table.add_into flat ~code acc)
    (ISet.union set1 set2);
  Float.Array.get acc 0

let select_all _ = true

let pps_samples_of st insts =
  {
    Aggregates.Sum_agg.seeds = Store.seeds st;
    taus =
      Array.of_list
        (List.map (fun i -> (Store.instance_config i).Store.tau) insts);
    samples = Array.of_list (List.map Store.pps_sample insts);
  }

let names_field insts =
  "[" ^ String.concat "," (List.map (fun i -> P.jstr (Store.name i)) insts) ^ "]"

let head estimate estimator =
  [ ("estimate", P.jfloat estimate); ("estimator", P.jstr estimator) ]

(* Σmax over independent PPS samples: the HT sum for any r, and for
   r = 2 the paper's max^(L) closed form, which is preferred. The
   max-dominance norm is this sum aggregate, so [max] and [dominance]
   answer from the same pair. *)
let max_sums ps ~r =
  let ht =
    Aggregates.Sum_agg.estimate_flat ps ~est:`Max_ht ~select:select_all
  in
  let l =
    if r = 2 then
      Some (Aggregates.Sum_agg.estimate_flat ps ~est:`Max_l ~select:select_all)
    else None
  in
  (ht, l)

let preferred (ht, l) ~l:l_name ~ht:ht_name =
  match l with Some l -> head l l_name | None -> head ht ht_name

(* The binary support samples every [or] / [distinct] row reads. *)
type binary = {
  seeds : Sampling.Seeds.t;
  probs : float array;
  ids : int array;
  samples : int list array;
}

let binary_of st insts =
  {
    seeds = Store.seeds st;
    probs =
      Array.of_list
        (List.map (fun i -> (Store.instance_config i).Store.p) insts);
    ids = Array.of_list (List.map Store.id insts);
    samples = Array.of_list (List.map Store.binary_sample insts);
  }

let classify b =
  Distinct.classify ~ids:(b.ids.(0), b.ids.(1)) b.seeds ~p1:b.probs.(0)
    ~p2:b.probs.(1) ~s1:b.samples.(0) ~s2:b.samples.(1) ~select:select_all

(* OR^(L) over two independent binary samples. Degradation ladder: the
   machine-derived table first, the closed form when Algorithm 1 fails
   on this probability pair. *)
let or_pair b =
  let p1 = b.probs.(0) and p2 = b.probs.(1) in
  let classes = classify b in
  let closed = Distinct.l_estimate classes ~p1 ~p2 in
  let ht = Distinct.ht_estimate classes ~p1 ~p2 in
  let estimate, provenance =
    match Designer.solve_order_cached ~cache:or_cache (or_problem ~p1 ~p2) with
    | Ok table ->
        let flat = or_table ~p1 ~p2 table in
        ( eval_or_flat flat b.seeds ~ids:(b.ids.(0), b.ids.(1)) ~p1 ~p2
            ~s1:b.samples.(0) ~s2:b.samples.(1),
          "designer" )
    | Error cause ->
        Numerics.Robust.note_degradation ~site:"server.query.or"
          ~fallback:"closed-form"
          (Numerics.Robust.fail Numerics.Robust.Designer
             (Numerics.Robust.Invalid_input cause));
        (closed, "closed-form")
  in
  head estimate "or-l"
  @ [ ("provenance", P.jstr provenance); ("closed_form", P.jfloat closed);
      ("ht", P.jfloat ht) ]

(* The L / U / HT distinct counts and the five outcome classes (§8.1). *)
let distinct_pair b =
  let p1 = b.probs.(0) and p2 = b.probs.(1) in
  let c = classify b in
  head (Distinct.l_estimate c ~p1 ~p2) "distinct-l"
  @ [ ("u", P.jfloat (Distinct.u_estimate c ~p1 ~p2));
      ("ht", P.jfloat (Distinct.ht_estimate c ~p1 ~p2));
      ("f1q", P.jint c.Distinct.f1q); ("fq1", P.jint c.Distinct.fq1);
      ("f11", P.jint c.Distinct.f11); ("f10", P.jint c.Distinct.f10);
      ("f01", P.jint c.Distinct.f01) ]

(* OR^(L) over r independent binary samples (the Theorem 4.1 solver)
   and its HT baseline: [or] and [distinct] answer from the same pair. *)
let or_multi b =
  let m = Distinct.Multi.create ~probs:b.probs in
  let l =
    Distinct.Multi.estimate ~ids:b.ids m b.seeds ~samples:b.samples
      ~select:select_all
  in
  let ht =
    Distinct.Multi.ht_estimate ~ids:b.ids ~probs:b.probs b.seeds
      ~samples:b.samples ~select:select_all
  in
  (l, ht)

(* |∪ S_i| / p over shared-seed binary samples: a key present in any
   instance is in the union of the samples iff its one seed is ≤ p. That
   needs one p across the instances; unequal p is refused, never
   guessed. *)
let coordinated insts estimator =
  let p_of i = (Store.instance_config i).Store.p in
  match insts with
  | [] -> Ok (head 0. estimator)
  | first :: rest -> (
      match
        List.find_opt (fun i -> not (Float.equal (p_of i) (p_of first))) rest
      with
      | Some other ->
          Error
            (Printf.sprintf
               "%s needs one sampling probability across its instances: %s \
                has p=%s, %s has p=%s"
               estimator (Store.name first)
               (Float.to_string (p_of first))
               (Store.name other)
               (Float.to_string (p_of other)))
      | None ->
          let samples = Array.of_list (List.map Store.binary_sample insts) in
          Ok
            (head
               (Distinct.coordinated_estimate ~p:(p_of first) ~samples
                  ~select:select_all)
               estimator))

(* The union and intersection sums of one {!Aggregates.Similarity.sums_flat}
   walk (the Monotone L* max and min), reported with every L* answer. *)
let lstar st insts estimator pick =
  let s =
    Aggregates.Similarity.sums_flat (pps_samples_of st insts) ~select:select_all
  in
  Ok
    (head (pick s) estimator
    @ [ ("union", P.jfloat s.Aggregates.Similarity.union_hat);
        ("intersection", P.jfloat s.Aggregates.Similarity.inter_hat) ])

let union_hat s = s.Aggregates.Similarity.union_hat
let inter_hat s = s.Aggregates.Similarity.inter_hat

(* The query table, and the one place the engine reads the seed mode.
   Each row names its estimator and returns the response fields; [Error]
   is a structured refusal. Shared seeds reveal each key through one
   seed, so Σmax (max, dominance, union), Σmin (intersection) and the
   distinct count have their coordinated estimators; independent seeds
   keep the paper's §5/§8 estimators. Under independent seeds the joint
   inclusion law is a product, not the diagonal the L* forms integrate
   over, so the similarity kinds refuse rather than serve a silently
   biased answer. *)
let answer st kind insts =
  let r = List.length insts in
  match (kind, (Store.config st).Store.mode) with
  | P.Max, Sampling.Seeds.Shared -> lstar st insts "max-lstar" union_hat
  | P.Dominance, Shared -> lstar st insts "maxdom-lstar" union_hat
  | P.Union, Shared -> lstar st insts "union-lstar" union_hat
  | P.Intersection, Shared -> lstar st insts "intersection-lstar" inter_hat
  | P.Jaccard, Shared ->
      lstar st insts "jaccard-lstar" Aggregates.Similarity.jaccard
  | P.L1, Shared when r > 2 ->
      Error (Printf.sprintf "l1 takes exactly two instances (got %d)" r)
  | P.L1, Shared -> lstar st insts "l1-lstar" Aggregates.Similarity.l1
  | P.Or, Shared -> coordinated insts "or-coordinated"
  | P.Distinct, Shared -> coordinated insts "distinct-coordinated"
  | P.Max, Independent ->
      let sums = max_sums (pps_samples_of st insts) ~r in
      Ok
        (preferred sums ~l:"max-l" ~ht:"max-ht"
        @ [ ("ht", P.jfloat (fst sums)) ])
  | P.Dominance, Independent ->
      let ps = pps_samples_of st insts in
      let sums = max_sums ps ~r in
      let min_ht = Aggregates.Dominance.min_dominance_ht ps ~select:select_all in
      Ok
        (preferred sums ~l:"maxdom-l" ~ht:"maxdom-ht"
        @ [ ("max_ht", P.jfloat (fst sums)); ("min_ht", P.jfloat min_ht) ])
  | P.Or, Independent when r = 2 -> Ok (or_pair (binary_of st insts))
  | P.Distinct, Independent when r = 2 ->
      Ok (distinct_pair (binary_of st insts))
  | P.Or, Independent ->
      let l, ht = or_multi (binary_of st insts) in
      Ok
        (head l "or-multi-l"
        @ [ ("provenance", P.jstr "general-solver"); ("ht", P.jfloat ht) ])
  | P.Distinct, Independent ->
      let l, ht = or_multi (binary_of st insts) in
      Ok (head l "distinct-multi-l" @ [ ("ht", P.jfloat ht) ])
  | (P.Union | P.Intersection | P.Jaccard | P.L1), Independent ->
      Error
        "similarity queries need coordinated samples: restart with shared \
         seeds (serve --shared-seeds)"

let query t kind names =
  let st = t.t_store in
  let resolve name =
    match Store.find st name with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown instance %S" name)
  in
  let rec resolve_all = function
    | [] -> Ok []
    | n :: rest ->
        Result.bind (resolve n) (fun i ->
            Result.map (fun is -> i :: is) (resolve_all rest))
  in
  match resolve_all names with
  | Error _ as e -> e
  | Ok insts ->
      let kind_name = P.query_kind_name kind in
      Numerics.Obs.span ~cat:"server" ("server.query/" ^ kind_name)
      @@ fun () ->
      Store.flush st;
      let before = Numerics.Robust.degradation_count () in
      Result.map
        (fun fields ->
          let degraded = Numerics.Robust.degradation_count () - before in
          P.ok_fields
            (("kind", P.jstr kind_name)
            :: ("instances", names_field insts)
            :: ("r", P.jint (List.length insts))
            :: fields
            @ [ ("degradations", P.jint degraded) ]))
        (answer st kind insts)

let instance_stats inst =
  let cfg = Store.instance_config inst in
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> P.jstr k ^ ":" ^ v)
         [ ("name", P.jstr (Store.name inst)); ("id", P.jint (Store.id inst));
           ("records", P.jint (Store.records inst));
           ("volume", P.jfloat (Store.volume inst));
           ("cardinality", P.jint (Store.cardinality inst));
           ("tau", P.jfloat cfg.Store.tau); ("k", P.jint cfg.Store.k);
           ("p", P.jfloat cfg.Store.p);
           ( "pps_size",
             P.jint (List.length (Store.pps_sample inst).Sampling.Poisson.entries)
           );
           ( "bk_size",
             P.jint
               (List.length (Store.bottom_k inst).Sampling.Bottom_k.entries) );
           ("binary_size", P.jint (List.length (Store.binary_sample inst))) ])
  ^ "}"

let shard_stats_json st =
  let items =
    List.map
      (fun (s : Store.shard_stats) ->
        Printf.sprintf "{\"shard\":%d,\"queue_depth\":%d,\"applied\":%d}"
          s.Store.shard s.Store.queue_depth s.Store.applied)
      (Store.shard_stats st)
  in
  "[" ^ String.concat "," items ^ "]"

let run_stats st =
  Store.flush st;
  let insts = Store.instances st in
  P.ok_fields
    [ ("instances",
       "[" ^ String.concat "," (List.map instance_stats insts) ^ "]");
      ("shards", shard_stats_json st);
      ("pending", P.jint (Store.pending st));
      ("degradations", P.jint (Numerics.Robust.degradation_count ())) ]

(* Mutating requests follow the write-ahead discipline: validate (no
   side effect), log to the WAL, then apply. An op that fails to log is
   answered as an error and never applied — the log is always a superset
   of acknowledged state, so replay reproduces it exactly. *)
let log_op t op =
  match t.t_wal with None -> Ok () | Some wal -> Wal.append wal op

(* Back-off hint: proportional to how deep the shard backlog is — a
   drain pass clears thousands of records per millisecond, so the
   constant is deliberately small. *)
let overloaded_response depth limit =
  P.error ~kind:"overloaded"
    ~retry_after_ms:(1 + (depth / 1024))
    (Printf.sprintf "overloaded: %d records pending on shard (limit %d)" depth
       limit)

(* One batch = one admission check, one WAL frame (group commit), one
   mailbox CAS — same write-ahead discipline as single INGEST, amortized
   over the whole batch. All-or-nothing end to end: a rejected or
   overloaded batch applies no record and logs no frame. *)
let handle_ingest_many t ~name records =
  let st = t.t_store in
  match Store.check_ingest_many st ~name ~records with
  | Error (Store.Overloaded { depth; limit }) -> overloaded_response depth limit
  | Error (Store.Rejected m) -> P.error m
  | Ok () -> (
      match log_op t (Wal.Ingest_batch { name; records }) with
      | Error m -> P.error ~kind:"wal" m
      | Ok () -> (
          match Store.ingest_many st ~name ~records with
          | Ok () ->
              P.ok_fields [ ("ingested", P.jint (Array.length records)) ]
          | Error e -> P.error (Store.ingest_error_to_string e)))

let handle_request t req =
  let st = t.t_store in
  match req with
  | P.Hello _ -> (P.ok_fields [ ("protocol", P.jint P.version) ], Continue)
  | P.Create { name; tau; k; p } -> (
      (* Pre-resolve defaults and run the store's own check so the logged
         op is self-contained (replay is independent of server defaults)
         and logging cannot be followed by a failing apply. *)
      let cfg = Store.config st in
      let tau = Option.value tau ~default:cfg.Store.default_tau in
      let k = Option.value k ~default:cfg.Store.default_k in
      let p = Option.value p ~default:cfg.Store.default_p in
      match Store.check_create st ~name { Store.tau; k; p } with
      | Error m -> (P.error m, Continue)
      | Ok () -> (
          match log_op t (Wal.Create { name; tau; k; p }) with
          | Error m -> (P.error ~kind:"wal" m, Continue)
          | Ok () -> (
              match Store.create_instance st ~name ~tau ~k ~p () with
              | Ok inst ->
                  ( P.ok_fields
                      [ ("name", P.jstr name); ("id", P.jint (Store.id inst));
                        ("tau", P.jfloat tau); ("k", P.jint k);
                        ("p", P.jfloat p) ],
                    Continue )
              | Error m -> (P.error m, Continue))))
  | P.Ingest { name; key; weight } -> (
      match Store.check_ingest st ~name ~weight with
      | Error (Store.Overloaded { depth; limit }) ->
          (overloaded_response depth limit, Continue)
      | Error (Store.Rejected m) -> (P.error m, Continue)
      | Ok () -> (
          match log_op t (Wal.Ingest { name; key; weight }) with
          | Error m -> (P.error ~kind:"wal" m, Continue)
          | Ok () -> (
              match Store.ingest st ~name ~key ~weight with
              | Ok () -> (P.ok_fields [], Continue)
              | Error e -> (P.error (Store.ingest_error_to_string e), Continue))))
  | P.Ingest_many { name = _; count } ->
      (* The header alone is not executable — the [count] body lines are
         connection-level framing, collected by the daemon's event loop
         (or any transport) and executed via [handle_ingest_many]. *)
      ( P.error
          (Printf.sprintf
             "INGESTN header without its %d body lines (batched framing is \
              connection-level)" count),
        Continue )
  | P.Query { kind; names } -> (
      match query t kind names with
      | Ok response -> (response, Continue)
      | Error m ->
          (* Every query failure is a fix-your-request condition (unknown
             instance, wrong arity, wrong seed mode) — say so in a
             machine-readable way. *)
          (P.error ~kind:"bad_request" m, Continue))
  | P.Snapshot path -> (
      Store.flush st;
      match Snapshot.write st ~path with
      | Error m -> (P.error m, Continue)
      | Ok n -> (
          let base = [ ("path", P.jstr path); ("instances", P.jint n) ] in
          (* With a WAL attached, a manual SNAPSHOT doubles as a
             checkpoint: the log rolls over and replay-on-restart
             shortens to the delta since this point. *)
          match t.t_wal with
          | None -> (P.ok_fields base, Continue)
          | Some wal -> (
              match Wal.checkpoint wal st with
              | Ok epoch ->
                  (P.ok_fields (base @ [ ("epoch", P.jint epoch) ]), Continue)
              | Error m -> (P.error ~kind:"wal" m, Continue))))
  | P.Pull { name; since } -> (
      match Store.find st name with
      | None ->
          (P.error (Printf.sprintf "unknown instance %S" name), Continue)
      | Some inst ->
          Store.flush st;
          let cfg = Store.config st in
          let epoch = Store.epoch st in
          (* A cursor of this store's history gets the keys changed
             after it; any other (a restart or a restore since) gets
             everything. *)
          let since =
            match since with
            | Some (e, records) when e = epoch && records <= Store.records inst
              ->
                Some records
            | _ -> None
          in
          let lines = Merge.payload (Store.export_summary ?since inst) in
          let echo =
            match since with Some r -> [ ("since", P.jint r) ] | None -> []
          in
          ( P.ok_lines
              ([ ("name", P.jstr name); ("id", P.jint (Store.id inst));
                 ("master", P.jint cfg.Store.master);
                 ("mode", P.jstr (Store.mode_name cfg.Store.mode));
                 ("epoch", P.jint epoch) ]
              @ echo)
              lines,
            Continue ))
  | P.Sync -> (
      Store.flush st;
      (* Checkpoint-then-ship: with a WAL attached the shipped lines are
         exactly the new checkpoint's content (Snapshot.to_string is
         Snapshot.lines of the same flushed store), so a follower holding
         the payload holds the checkpoint. *)
      let extra =
        match t.t_wal with
        | None -> Ok []
        | Some wal -> (
            match Wal.checkpoint wal st with
            | Ok epoch -> Ok [ ("epoch", P.jint epoch) ]
            | Error m -> Error m)
      in
      match extra with
      | Error m -> (P.error ~kind:"wal" m, Continue)
      | Ok extra ->
          let cfg = Store.config st in
          let insts = Store.instances st in
          let lines =
            Snapshot.lines cfg (List.map Store.export_summary insts)
          in
          ( P.ok_lines
              (("instances", P.jint (List.length insts))
               :: ("master", P.jint cfg.Store.master)
               :: ("mode", P.jstr (Store.mode_name cfg.Store.mode))
               :: extra)
              lines,
            Continue ))
  | P.Stats -> (run_stats st, Continue)
  | P.Flush -> (
      match log_op t Wal.Flush with
      | Error m -> (P.error ~kind:"wal" m, Continue)
      | Ok () ->
          Store.flush st;
          (P.ok_fields [ ("pending", P.jint (Store.pending st)) ], Continue))
  | P.Quit -> (P.ok_fields [ ("bye", P.jstr "quit") ], Close)
  | P.Shutdown -> (P.ok_fields [ ("bye", P.jstr "shutdown") ], Stop)

let handle_line t line =
  match P.parse line with
  | Ok req -> handle_request t req
  | Error e ->
      (* Structured kind so a client that sent an unknown verb or a
         malformed token can tell fix-your-request from back-off — and a
         regression test can pin that the session survives it. *)
      ( P.error ~kind:"bad_request" (Sampling.Io.parse_error_to_string e),
        Continue )
