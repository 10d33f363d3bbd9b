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

val add_payload : Buffer.t -> Store.summary -> unit
(** Append the {!payload} lines, each newline-terminated: how a
    snapshot writes a large instance without a list of its lines. *)

val add_weight_line : Buffer.t -> int -> float -> unit
(** Append one [w <key> <weight>] line (no newline), byte for byte
    [Printf.sprintf "w %d %h"]: the payload's per-key line, written
    without Printf. *)

val of_lines : string list -> (Store.summary, string) result
(** Strict parse: parameters outside {!Store.validate_config}, keys not
    strictly ascending, NaN, negative-infinite or non-positive weights,
    a negative or NaN volume, a missing [end] and trailing garbage are
    all errors. An infinite weight or volume is accepted: finite records
    can sum past [max_float]. *)

(** {3 Reading a payload in place}

    How {!of_lines} and a snapshot read a payload: the header line
    starts a {!section}, then each line is fed to {!section_line} as a
    span of a string, so a large text is never cut into lines. *)

type section
(** A payload being read: its header and the weights so far. *)

type step =
  | More  (** a weight line: the payload goes on *)
  | Done of Store.summary  (** the [end] line: the payload read *)
  | Bad of string  (** the error {!of_lines} reports for this line *)

val section : string -> (section, string) result
(** Start reading a payload at its [summary] header line. *)

val section_line : section -> string -> int -> int -> step
(** [section_line sec s pos stop]: read the payload line
    [s.[pos .. stop-1]], which must be [end] or [w <key> <weight>] when
    split at its spaces. Numbers are read in place with
    {!Protocol.read_int} and {!Protocol.read_hex}. *)

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

(** {2 A resident merged store}

    A store kept across queries, such as the router's, follows the
    partitions one PULL round at a time. Each function takes the
    round's payloads for one instance, one per partition, and merges
    them as {!merge_all} does. *)

val install : Store.t -> Store.summary list -> (unit, string) result
(** Install the merge of the partitions' full payloads as a new
    instance: what {!materialize} does for each summary. *)

val apply_deltas : Store.t -> Store.summary list -> (unit, string) result
(** Advance an instance the store holds by the partitions' delta
    payloads ([PULL … since=]): each carries its partition's current
    totals and the keys it changed, and their merge goes through
    {!Store.apply_delta}. Exact when the partitions are key-disjoint,
    as the {!Router}'s placement makes them: the merged weight of a key
    is then its owner's weight. [Error], with nothing changed, when the
    payloads do not merge or the store refuses the delta. *)
