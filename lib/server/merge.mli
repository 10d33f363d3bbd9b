(** Bit-deterministic merge of instance summaries — the algebra behind
    cluster mode.

    A {!Store.summary} is an instance's counters and its accumulated
    per-key weights, held as two ascending unboxed columns (keys in an
    [int array], weights in a [floatarray]); every sample a query reads
    is a pure function of those weights and the recorded seeds, rebuilt
    when the summary is installed ({!Store.install_summary}). Merging
    therefore only sums: weights pointwise, records and volume as
    totals. Every path here — writing a payload, scanning one, merging,
    installing, applying a delta — runs on those columns; no summary is
    ever a list of pairs.

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
(** [merge seeds a b] is [merge_all seeds [a; b]]. The seeds name the
    universe both stores share (same master seed and mode); the sum does
    not read them, since samples are rebuilt at install time. *)

val merge_all :
  Sampling.Seeds.t -> Store.summary list -> (Store.summary, string) result
(** One k-way walk over the summaries' key columns: a key several hold
    gets their weights summed in list order, records are summed and
    volumes added left to right — bit for bit the left fold of pairwise
    merges. [Error] on an empty list or a header mismatch. *)

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

val add_payload : Buffer.t -> Store.summary -> unit
(** Append the payload's lines, each newline-terminated, straight from
    the summary's columns: how PULL, SYNC, SNAPSHOT and checkpoints
    write it, with no list of lines. *)

val add_columns :
  Buffer.t -> Store.summary -> int array -> floatarray -> int -> int
(** [add_columns buf s keys ws n]: the payload with [s]'s header line
    and the first [n] entries of [keys] and [ws] as its weights (as
    {!Store.export_into} hands them over); returns the lines written,
    [n + 2]. *)

val payload : Store.summary -> string list
(** The payload's lines, without newlines: {!add_payload} cut into lines
    ([of_lines (payload s) = Ok s]). *)

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

val of_block : lines:int -> string -> (Store.summary, string) result
(** [of_block ~lines block]: read a payload handed over as one block of
    newline-terminated lines (the last line may lack its newline), as
    {!Client.pipeline_recv} returns a reply's payload, [lines] the count
    its header announces: each line is a span of the block, one
    trailing CR dropped, fed to {!section_line}, so the block is never
    cut into lines and the weights go straight into columns sized by
    [lines]. Accepts and refuses exactly what {!of_lines} does on the
    block's lines, whatever [lines] says. *)

(** {3 Reading a payload in place}

    How {!of_lines}, {!of_block} and a snapshot read a payload: the
    header line starts a {!section}, then each line is fed to
    {!section_line} as a span of a string, so a large text is never cut
    into lines. *)

type section
(** A payload being read: its header and the key and weight columns so
    far. *)

type step =
  | More  (** a weight line: the payload goes on *)
  | Done of Store.summary  (** the [end] line: the payload read *)
  | Bad of string  (** the error {!of_lines} reports for this line *)

val section : ?capacity:int -> string -> (section, string) result
(** Start reading a payload at its [summary] header line. The columns
    start at [capacity] entries (default 16), or the header's records if
    fewer, and double as needed. *)

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
    round's payloads for one instance, one per partition. *)

val install : Store.t -> Store.summary list -> (unit, string) result
(** Install the {!merge_all} of the partitions' full payloads as a new
    instance: what {!materialize} does for each summary. *)

val apply_deltas :
  owner:(int -> int) -> Store.t -> Store.summary list -> (unit, string) result
(** Advance an instance the store holds by the partitions' delta
    payloads ([PULL … since=]), through {!Store.apply_delta}: each part
    carries its partition's current totals and the keys it changed, and
    its columns are applied as they are, with no merge. The [i]-th part
    may list only keys with [owner key = i], as
    the {!Router}'s placement makes them; a key's merged weight is then
    its owner's weight. [Error], with nothing changed, when a part does
    not fit or the store refuses the delta. *)
