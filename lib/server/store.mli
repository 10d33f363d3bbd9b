(** Sharded in-memory registry of named instances with live coordinated
    summaries.

    The state of an instance is its counters ([records], [volume]) and
    its per-key accumulated weights, held as flat row columns: one row
    per key in arrival order (key, weight, stamp and PPS slot, each an
    unboxed column), found through an [int array] open-addressing index
    of row numbers. Keys are never removed, so rows only grow. Every
    int is a valid key. On top of the weights it keeps
    the Section 7.1 samples the queries read, each a pure function of
    the accumulated weights and the recorded seeds, maintained live as
    records arrive:

    - a {b PPS Poisson} sample under a fixed threshold [tau]: key [h]
      enters the sample the moment its accumulated weight crosses
      [u(h)·tau] and never leaves (weights only grow), so the resident
      sample always equals {!Sampling.Poisson.pps_sample} of the
      accumulated instance, bit for bit;
    - a {b binary support} sample ([u(h) ≤ p]) for the distinct-count
      estimators.

    No query reads a bottom-k (priority) sample, so the store keeps
    none: the sample is {!Sampling.Bottom_k.sample} of the exported
    weights ({!export_into}), and {!bottom_k_size}, which STATS
    reports, is [min k] and the key count.

    Applying a record to a key the instance already holds allocates
    nothing unless the key enters the PPS sample, nor does a record of a
    new key while the rows and the index have room: the key's row, the
    instance's counters and the seed (from the instance's salt, computed
    once) are all written in place.

    Because the samples follow from the weights, a {!summary} carries
    only counters and weights, and {!install_summary} rebuilds the
    samples with the same per-key code the ingest path runs.

    {2 Resident sample columns}

    The PPS and binary samples are kept as resident key-sorted columns
    ({!Aggregates.Column.t}), which every query walks as they are
    ({!pps_column}, {!binary_column}). Both samples only grow, so no
    membership table is needed: a key enters the PPS column exactly when
    its weight crosses [u·tau], and its sampled value is then always its
    current weight, written in place by each later record; a key enters
    the binary column on its first record when [u ≤ p]. Entrants go to a
    tail, which is sorted and merged into the sorted prefix — O(n +
    m log m), once per entering key, never per query — at the end of the
    shard task's drain that applied them (so by the shard's own domain,
    the instance's only writer), and at the end of {!install_summary}
    and {!apply_delta}. Reads after a {!flush} therefore see whole,
    sorted columns and never write. A restore appends its keys in
    ascending order, so its tail needs no sort.

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
    ({!pps_column} etc.) are only meaningful after a {!flush}; the
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
    [PULL … since=], see {!export_into}. *)

val seeds : t -> Sampling.Seeds.t
val pool : t -> Numerics.Pool.t

val validate_config : instance_config -> (unit, string) result
(** The one range check on instance parameters: [tau] finite and [> 0],
    [1 ≤ k < max_int] (a bottom-k sample reads the [(k+1)]-th rank) and
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

val apply_record : instance -> key:int -> weight:float -> unit
(** Apply one record to the instance in place, as a shard's drain does
    with each record it takes from the mailbox, then seal its columns:
    no admission check and no mailbox. [weight] must be finite and
    [> 0]. Call it only while no {!flush} runs, from the thread that
    owns the store. For a key the instance already holds that does not
    enter the PPS sample it allocates nothing. *)

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

val pps_column : instance -> Aggregates.Column.t
(** The live PPS sample as its resident column: keys ascending, each
    with its current weight — O(1), no copy. The arrays are the store's
    own: read them before the next {!flush}, never write them. *)

val binary_column : instance -> Aggregates.Column.t
(** The live binary support sample ([u(h) ≤ p]) as its resident
    key-only column, keys ascending — O(1), no copy, same terms as
    {!pps_column}. *)

val bottom_k_size : instance -> int
(** The size of the instance's bottom-k sample, in O(1): [min k] and
    {!cardinality}. *)

(** {2 Mergeable summaries (cluster mode)}

    A [summary] is the complete, order-independent export of one
    instance: its counters and its weights as two ascending unboxed
    columns, so serializing a summary is byte-stable whatever the
    ingestion order or row order. {!Merge.add_payload} is its one
    serialization: PULL ships it, and every snapshot section is one. *)

type summary = {
  s_name : string;
  s_id : int;  (** recorded id — seed derivation keys off this *)
  s_cfg : instance_config;
  s_records : int;
  s_volume : float;
  s_keys : int array;  (** the keys, strictly ascending *)
  s_weights : floatarray;
      (** [s_weights.(i)] is the accumulated weight of [s_keys.(i)];
          same length as [s_keys] *)
}

type scratch
(** Columns an export gathers and sorts in, grown to the largest export
    they serve. *)

val scratch : unit -> scratch
(** An empty scratch. *)

val export_into :
  ?scratch:scratch ->
  ?since:int ->
  instance ->
  (summary -> int array -> floatarray -> int -> 'a) ->
  'a
(** [export_into ?scratch ?since inst f]: export counters and weights
    (flush the store first), handed to [f s keys ws n] — [s] the
    instance's counters with no weights, and the first [n] entries of
    [keys] and [ws] the weights as ascending columns. With
    [~since:records], only the keys stamped above that count — the keys
    changed after the instance had applied [records] records, found by
    one scan of the stamp column — with the counters still the current
    totals. The keys are gathered into an
    [int array] and radix-sorted there, their weights moving with them
    in a [floatarray] (no list, no boxed pair). The columns are the scratch's (a fresh
    one when none is given): valid only during [f], and until the
    scratch's next export. How PULL, SYNC and snapshots write a
    payload; a writer of several passes one scratch to them all, so
    writing a whole store leaves no columns per instance behind. *)

val install_summary : t -> summary -> (instance, string) result
(** Register an instance with the summary's counters and weights, under
    its {e recorded} id (so seed recomputation matches the exporting
    store). Its PPS and binary samples are rebuilt from the weights by
    the per-key code ingestion runs, so they equal the
    exporting instance's samples and the materialized store answers
    queries bit-identically. The weights must be positive with distinct
    keys. Every key is stamped with the summary's records. The rows and
    the index are sized to the summary's keys, appended in their order.
    The instance takes its place in {!instances} by id. [Error] when
    {!check_create} fails or the id is negative. *)

val apply_delta :
  owner:(int -> int) -> t -> summary list -> (instance, string) result
(** Advance the instance the parts name by the partitions' deltas
    ([PULL … since=]), each carrying its partition's current totals and
    the keys it changed. The counters become the parts' totals: records
    summed, volumes added left to right as {!Merge.merge_all} adds them.
    Each listed key's weight is replaced, stamped with the new records
    and fed through the per-key sample code again, part by part, with
    no merged copy of the columns.

    Every key of the [i]-th part must satisfy [owner key = i] (one
    partition: [fun _ -> 0]), so the parts are key-disjoint and a key's weight is its owner's. For deltas that list
    every key whose weight changed, the result equals {!install_summary}
    of the merged full summaries, because weights only grow: PPS
    inclusion is monotone in the weight and binary membership is decided
    on the key's first appearance.

    One validation pass runs before anything changes; [Error], with
    nothing changed, when there is no part or no such instance, the
    parts disagree on the name, an id or [tau]/[k]/[p] differ from the
    instance's, the records fall, or a key is out of order, not its
    part's, not [> 0] or falls. Applying a delta over keys the instance
    holds allocates nothing per key (pinned by the allocation tests). *)

(** {2 Shard introspection (STATS)} *)

type shard_stats = {
  shard : int;
  queue_depth : int;  (** records currently waiting in the mailbox *)
  applied : int;  (** records applied by this shard so far *)
}

val shard_stats : t -> shard_stats list
