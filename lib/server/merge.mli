(** Bit-deterministic merge of instance summaries — the algebra behind
    cluster mode.

    A {!Store.summary} is an instance's counters and its accumulated
    per-key weights; every sample a query reads is a pure function of
    those weights and the recorded seeds, rebuilt when the summary is
    installed ({!Store.install_summary}). Merging therefore only sums:
    weights pointwise, records and volume as totals.

    Laws, tested in [test/test_merge.ml]: [merge] is commutative,
    associative up to bit-identity, has the empty summary as identity,
    and satisfies [merge (ingest A) (ingest B) ≡ ingest (A ∪ B)]
    bit-for-bit whenever the per-key weight sums are exact — trivially
    when the key sets are disjoint, which the {!Router}'s hash placement
    guarantees.

    The two sides of a merge must agree on instance name, id and
    [tau]/[k]/[p]; anything else is an [Error]. *)

val merge :
  Sampling.Seeds.t ->
  Store.summary ->
  Store.summary ->
  (Store.summary, string) result
(** The seeds name the universe both stores share (same master seed and
    mode); the sum does not read them, since samples are rebuilt at
    install time. *)

val merge_all :
  Sampling.Seeds.t -> Store.summary list -> (Store.summary, string) result
(** Left fold of {!merge}; [Error] on an empty list. *)

(** {2 Wire payload}

    Line-oriented, floats as lossless [%h] hex literals, weights sorted
    by key, so the bytes depend only on the summary:

    {v
    summary <name> <id> <tau> <k> <p> <records> <volume>
    w <key> <weight>      (ascending key)
    end
    v}

    This is the only codec for a summary. PULL ships one payload, and
    every instance section of a snapshot ({!Snapshot}: files, WAL
    checkpoints, SYNC) is one payload. *)

val payload : Store.summary -> string list
(** Serialize; [of_lines (payload s) = Ok s]. *)

val iter_payload : (string -> unit) -> Store.summary -> unit
(** [List.iter f (payload s)] without building the list: how a snapshot
    writes a large instance. *)

val of_lines : string list -> (Store.summary, string) result
(** Strict parse: parameters outside {!Store.validate_config}, keys not
    strictly ascending, non-finite or non-positive weights, a negative
    or NaN volume, a missing [end] and trailing garbage are all errors.
    An infinite volume is accepted: finite weights can sum past
    [max_float]. *)

val parse_section :
  ('a -> string) -> 'a list -> (Store.summary * 'a list, string) result
(** [parse_section line items]: the payload at the front of [items],
    each item read as a line by [line], through its [end]; returns the
    summary and the items after it. {!of_lines} is this plus a check
    that nothing follows; a snapshot reads its sections with it. *)

val int_field : string -> string -> (int, string) result
(** [int_field what token]: the integer field [what]; the [Error] names
    the field and quotes the token. Shared with the snapshot header. *)

val pos_float_field : string -> string -> (float, string) result
(** A finite float [> 0] (decimal or hex literal), reported like
    {!int_field}. *)

val materialize :
  ?pool:Numerics.Pool.t ->
  Store.config ->
  Store.summary list ->
  (Store.t, string) result
(** Build a queryable store holding exactly these summaries, each
    installed under its recorded id (so seed recomputation — and hence
    every query answer — matches the exporting daemons bit for bit). *)
