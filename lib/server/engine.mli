(** Query execution over live {!Store} summaries.

    The engine turns parsed {!Protocol.request}s into one-line JSON
    responses. Every query flushes the store first (so answers reflect
    all ingested records), then answers from one table keyed by (query
    kind, the store's seed mode). The table is the only place the
    engine reads the seed mode. Each row names its estimator (the
    [estimator] field) and the fields it returns next to [estimate]:

    {v
    kind          shared seeds                  independent seeds
    ------------  ----------------------------  -------------------------------
    max           max-lstar: union sum          max-l (r = 2) / max-ht; ht
    dominance     maxdom-lstar: union sum;      maxdom-l (r = 2) / maxdom-ht;
                  min is the intersection sum   max_ht, min_ht
    union         union-lstar                   refused (bad_request)
    intersection  intersection-lstar            refused
    jaccard       jaccard-lstar                 refused
    l1            l1-lstar (r = 2 only)         refused
    or            or-coordinated: |∪S_i|/p      or-l (r = 2): provenance,
                                                closed_form, ht; or-multi-l
    distinct      distinct-coordinated          distinct-l (r = 2): u, ht,
                                                f1q fq1 f11 f10 f01;
                                                distinct-multi-l: ht
    v}

    Every row reads the instances' resident key-sorted sample columns
    ({!Store.pps_column}, {!Store.binary_column}) in one
    {!Aggregates.Column.walk} over their union, computing all of the
    row's fields in that walk: no sort, key set or list copy of a sample
    per query, and no allocation per key.

    - {b Shared seeds, L* rows.} The six PPS kinds come from one
      {!Aggregates.Similarity.sums_columns} walk over the PPS columns:
      the {!Estcore.Monotone} L* max and min summed per key. Σmax is the
      weighted union, so [max] and [dominance] answer the union sum;
      jaccard is their ratio and l1 their difference (exactly two
      instances). Every L* row also reports [union] and [intersection].
    - {b Shared seeds, or / distinct.} A key present in any instance is
      in the union of the binary samples iff its one seed is [≤ p], so
      [|∪ S_i| / p] ({!Aggregates.Distinct.coordinated_columns}) is
      unbiased for any r. That needs one [p] across the instances:
      unequal [p] is refused with [kind="bad_request"] naming both
      values, never guessed.
    - {b Independent seeds, max / dominance.} Per-key [max^(L)]
      ({!Estcore.Max_pps.l}, the paper's closed form) for r = 2, the
      [max^(HT)] baseline for any r; dominance adds the HT min-dominance
      (Section 8.2). One {!Aggregates.Sum_agg.max_columns} walk gives
      all three sums.
    - {b Independent seeds, or / distinct.} For r = 2, [or] walks the
      per-key OR^(L) table machine-derived by Algorithm 1 on
      {!Estcore.Designer.Problems.binary_known_seeds} (memoized under the
      problem's fingerprint) and flattened into an
      {!Estcore.Or_weighted.Table} (memoized per probability pair); when
      derivation fails it degrades to the closed-form [OR^(L)]
      ({!Aggregates.Distinct.l_estimate}) and says so in [provenance]
      — the {!Numerics.Robust} ladder pattern. [distinct] reports the
      L / U / HT estimates with the five outcome-class counts (Section
      8.1). Both come from one {!Aggregates.Distinct.classify_columns}
      walk (the table sum and the classes). For r > 2 both answer from
      one {!Aggregates.Distinct.Multi.estimates} walk (the Theorem 4.1
      solver and its HT baseline).
    - {b Independent seeds, similarity kinds.} The joint inclusion law
      is a product, not the diagonal the L* forms integrate over, so the
      engine answers [kind="bad_request"] instead of a silently biased
      estimate.

    Every query refusal (unknown instance, wrong arity, wrong seed mode,
    unequal [p], unknown verb at the parse layer) carries
    [kind="bad_request"] and leaves the session open. Responses carry a
    [degradations] field — the number of {!Numerics.Robust} fallbacks
    consumed while answering — so clients see degraded answers without
    scraping logs. Each query runs under an {!Numerics.Obs} span named
    [server.query/<kind>]. *)

type t

val or_flat_tables : p1:float -> p2:float -> ((bool array * bool array) Estcore.Designer.estimator * Estcore.Or_weighted.Table.t, string) result
(** Derive (memoized) the served OR^(L) table for a probability pair and
    its flattened copy — the exact pair [QUERY or] uses; for tests. *)

val create : ?wal:Wal.t -> Store.t -> t
(** With [?wal], mutating requests (CREATE / INGEST / FLUSH) follow the
    write-ahead discipline — validate, log, apply — so the log is always
    a superset of acknowledged state; SNAPSHOT additionally rolls the
    log over as a {!Wal.checkpoint} (the response gains an [epoch]
    field). An overloaded store answers a structured error with
    [kind="overloaded"] and a [retry_after_ms] hint instead of queueing
    unboundedly. *)

val store : t -> Store.t
val wal : t -> Wal.t option

type action = Continue | Close | Stop

val handle_ingest_many : t -> name:string -> (int * float) array -> string
(** Execute one whole [INGESTN] batch: one admission check
    ({!Store.check_ingest_many}), one {!Wal.Ingest_batch} frame (the
    group commit), one {!Store.ingest_many} push — all-or-nothing, same
    write-ahead discipline and structured [overloaded] / [wal] errors as
    single INGEST. Returns the single JSON response for the batch. *)

val handle_request : t -> Protocol.request -> string * action
(** Execute one request; returns the response and what the session
    should do next ([Close] after QUIT, [Stop] after SHUTDOWN). Most
    responses are one JSON line. [PULL] answers {!Protocol.ok_block}
    with the instance's payload ({!Merge.add_payload}) and the store's {!Store.epoch}
    in the header; given a [since=] cursor of this epoch, the payload is
    that of {!Store.export_into}[ ~since] and the header echoes the
    cursor's records as [since]. [SYNC] answers the full snapshot text
    the same way (taking a {!Wal.checkpoint} first when a WAL is
    attached — the response then carries the new WAL [epoch], a number
    unrelated to the store's, and the shipped payload {e is} the
    checkpoint's content, which is how a follower receives checkpoints
    for failover). *)

val handle_line : t -> string -> string * action
(** {!Protocol.parse} + {!handle_request}; malformed requests produce an
    error response and [Continue]. *)

val query :
  t -> Protocol.query_kind -> string list -> (string, string) result
(** The query path alone (flush + estimate + response assembly), exposed
    so tests and the bench can compare server answers against the batch
    pipeline without a transport. *)
