(** Sharded in-memory registry of named instances with live coordinated
    summaries.

    The state of an instance is its counters ([records], [volume]) and
    its per-key accumulated weight map. On top of the weights it keeps
    the Section 7.1 samples the queries read, each a pure function of
    the accumulated weights and the recorded seeds, maintained live as
    records arrive:

    - a {b PPS Poisson} sample under a fixed threshold [tau]: key [h]
      enters the sample the moment its accumulated weight crosses
      [u(h)·tau] and never leaves (weights only grow), so the resident
      sample always equals {!Sampling.Poisson.pps_sample} of the
      accumulated instance, bit for bit;
    - a {b bottom-k} (priority) sample: the [k+1] smallest current
      [(rank, key)] pairs are maintained under updates. Ranks are
      monotone decreasing in the accumulated weight, so the running
      [(k+1)]-max never grows and eviction is exact — the final structure
      equals {!Sampling.Bottom_k.sample} of the accumulated instance;
    - a {b binary support} sample ([u(h) ≤ p]) for the distinct-count
      estimators.

    Because the samples follow from the weights, a {!summary} carries
    only counters and weights, and {!install_summary} rebuilds the
    samples with the same per-key code the ingest path runs.

    Seeds are recorded {!Sampling.Seeds} seeds — shared or independent
    mode — so estimator-side seed recomputation works unchanged and
    summaries are reproducible from [(master, instance id)].

    {2 Sharding}

    Instances are assigned round-robin to [shards] mailboxes. The ingest
    hot path only pushes onto the owning shard's lock-free mailbox (one
    CAS, no syscall, no lock); {!flush} drains all mailboxes across the
    {!Numerics.Pool}, one task per shard, each applying its backlog in
    arrival order. Per-instance application order therefore equals
    stream order whatever the shard or domain count — summaries are
    {e bit-identical} across [shards ∈ {1, 2, 4, …}] (tested). Reads
    ({!pps_sample} etc.) are only meaningful after a {!flush}; the
    {!Engine} flushes before every query. *)

type config = {
  shards : int;  (** mailbox count (≥ 1); summaries never depend on it *)
  master : int;  (** master hash seed for {!Sampling.Seeds} *)
  mode : Sampling.Seeds.mode;
  default_tau : float;  (** PPS threshold for instances created without one *)
  default_k : int;  (** bottom-k size default *)
  default_p : float;  (** binary-sample probability default *)
  flush_every : int;  (** auto-flush when this many records are pending *)
  max_inflight : int;
      (** admission limit: shed (structured {!Overloaded} error) when a
          record's target shard already holds this many pending records *)
}

val default_config : config
(** [shards = 1], [master = 42], [Independent], [tau = 100.], [k = 64],
    [p = 0.05], [flush_every = 8192], [max_inflight = 65536]. *)

val mode_name : Sampling.Seeds.mode -> string
(** ["shared"] / ["independent"]: the spelling of {!config}[.mode] in
    PULL / SYNC headers and the snapshot header. *)

val mode_of_name : string -> Sampling.Seeds.mode option
(** Inverse of {!mode_name}. *)

type instance_config = { tau : float; k : int; p : float }

type instance
type t

val create : ?pool:Numerics.Pool.t -> config -> t
(** Fresh empty store. [pool] defaults to a lazily-created pool of
    [config.shards] domains. *)

val config : t -> config

val epoch : t -> int
(** A non-negative number drawn when the store is created (a restore
    creates one too): two stores of one process never share it, and a
    restarted process draws a new one. With an instance's {!records} it
    names a point in that instance's history — the cursor of
    [PULL … since=], see {!export_summary}. *)

val seeds : t -> Sampling.Seeds.t
val pool : t -> Numerics.Pool.t

val validate_config : instance_config -> (unit, string) result
(** The one range check on instance parameters: [tau] finite and [> 0],
    [1 ≤ k < max_int] (the bottom-k working set holds [k + 1] pairs) and
    [0 < p ≤ 1]. *)

val check_create : t -> name:string -> instance_config -> (unit, string) result
(** Whether an instance [name] with these parameters could be created,
    with no side effect: the name must be valid and free and
    {!validate_config} must pass. {!create_instance} and
    {!install_summary} run this same check; the engine runs it before
    logging a CREATE, so a logged CREATE always applies. *)

val create_instance :
  t ->
  name:string ->
  ?tau:float ->
  ?k:int ->
  ?p:float ->
  unit ->
  (instance, string) result
(** Register a named instance (id = creation order, which is also the
    instance id used for seed derivation). Omitted parameters take the
    store's defaults. [Error] when {!check_create} fails. *)

val find : t -> string -> instance option
val instances : t -> instance list
(** All instances in id order (for a store built by CREATE, the
    creation order). *)

type ingest_error =
  | Overloaded of { depth : int; limit : int }
      (** the target shard's mailbox is at [max_inflight]; the record was
          shed (not queued) and the client should back off and retry *)
  | Rejected of string  (** invalid record: bad weight or unknown instance *)

val ingest_error_to_string : ingest_error -> string

val check_ingest : t -> name:string -> weight:float -> (unit, ingest_error) result
(** Validation + admission with {e no} side effect — the write-ahead
    gate: the engine checks first, then logs to the WAL, then calls
    {!ingest}, so a record is never logged-then-shed or shed-then-logged.
    Under the single-producer contract a passing check cannot turn into
    a shed by the time the matching {!ingest} runs. *)

val ingest : t -> name:string -> key:int -> weight:float -> (unit, ingest_error) result
(** Push one record onto the owning shard's mailbox. Lock-free; the
    record is applied at the next {!flush} (or automatically once
    [flush_every] records are pending). [weight] must be finite and
    positive; a full shard sheds with {!Overloaded}. Single-producer:
    call from one session thread at a time. *)

val check_ingest_many :
  t -> name:string -> records:(int * float) array -> (unit, ingest_error) result
(** Batch form of {!check_ingest}: every weight validated, and the whole
    batch shed ({!Overloaded}) when [depth + n] would exceed
    [max_inflight] — all-or-nothing, same write-ahead role. An empty
    batch is {!Rejected}. *)

val ingest_many :
  t -> name:string -> records:(int * float) array -> (unit, ingest_error) result
(** Push a whole batch of [(key, weight)] records for one instance onto
    its shard's mailbox with a {e single} CAS (amortizing the dispatch
    that {!ingest} pays per record). Application order equals the array
    order — summaries are bit-identical to [n] single {!ingest} calls.
    All-or-nothing: an invalid weight or an overloaded shard rejects the
    batch without queueing any record. Single-producer, like {!ingest}. *)

val flush : t -> unit
(** Drain every shard mailbox across the pool and apply all pending
    records, in per-shard arrival order. Idempotent when nothing is
    pending. *)

val pending : t -> int
(** Records pushed but not yet applied (sum of mailbox depths). *)

(** {2 Reading an instance (flush first)} *)

val id : instance -> int
val name : instance -> string
val instance_config : instance -> instance_config
val records : instance -> int
(** Records applied so far. Every applied record stamps its key with
    the new count, so the count doubles as a cursor: the keys changed
    after a point are the keys stamped above its count. *)

val volume : instance -> float
(** Sum of all applied weights. *)

val cardinality : instance -> int
(** Distinct keys with positive accumulated weight. *)

val to_instance : instance -> Sampling.Instance.t
(** Materialize the accumulated weights (O(keys)). *)

val pps_sample : instance -> Sampling.Poisson.pps
(** The live PPS sample — equal to [Sampling.Poisson.pps_sample seeds
    ~instance:(id inst) ~tau] of the accumulated instance. *)

val bottom_k : instance -> Sampling.Bottom_k.t
(** The live bottom-k (PPS-rank) sample — equal to
    [Sampling.Bottom_k.sample] of the accumulated instance. *)

val binary_sample : instance -> int list
(** Support keys with [u(h) ≤ p], ascending — equal to
    [Aggregates.Distinct.sample_binary] of the accumulated instance. *)

(** {2 Mergeable summaries (cluster mode)}

    A [summary] is the complete, order-independent export of one
    instance: its counters and its weights, sorted by key, so
    serializing a summary is byte-stable whatever the ingestion order or
    hashtable state. {!Merge.payload} is its one serialization: PULL
    ships it, and every snapshot section is one. *)

type summary = {
  s_name : string;
  s_id : int;  (** recorded id — seed derivation keys off this *)
  s_cfg : instance_config;
  s_records : int;
  s_volume : float;
  s_weights : (int * float) list;  (** accumulated weights, ascending key *)
}

val export_summary : ?since:int -> instance -> summary
(** Export counters and weights (flush the store first). With
    [~since:records], only the keys stamped above that count — the keys
    changed after the instance had applied [records] records — with
    the counters still the current totals. *)

val install_summary : t -> summary -> (instance, string) result
(** Register an instance with the summary's counters and weights, under
    its {e recorded} id (so seed recomputation matches the exporting
    store). Its PPS, bottom-k and binary samples are rebuilt from the
    weights by the per-key code ingestion runs, so they equal the
    exporting instance's samples and the materialized store answers
    queries bit-identically. The weights must be positive with distinct
    keys. Every key is stamped with the summary's records. The
    instance takes its place in {!instances} by id. [Error] when
    {!check_create} fails or the id is negative. *)

val apply_delta : t -> summary -> (instance, string) result
(** Advance the instance named by a summary to it, key by key: the
    counters become the summary's, and each listed key's weight is
    replaced, stamped with the summary's records and fed through the
    per-key sample code again. For a summary that lists every key whose
    weight changed, the result equals {!install_summary} of the full
    summary, because weights only grow: PPS inclusion is monotone in the
    weight, binary membership is decided on the key's first appearance,
    and a key's bottom-k rank only falls. [Error], with nothing changed,
    when there is no such instance, the id or [tau]/[k]/[p] differ, or
    the records or a listed weight fall. *)

(** {2 Shard introspection (STATS)} *)

type shard_stats = {
  shard : int;
  queue_depth : int;  (** records currently waiting in the mailbox *)
  applied : int;  (** records applied by this shard so far *)
}

val shard_stats : t -> shard_stats list
