(** Full-store persistence, so a daemon restart starts warm.

    Format (line-oriented, [#]-comments and blank lines ignored, floats
    as lossless hex literals — the {!Sampling.Io} house style):

    {v
    optsample-snapshot 1 <master> <mode> <tau-hex> <k> <p-hex> <flush_every> <n>
    instance <name> <id> <tau-hex> <k> <p-hex>
    <key> <weight-hex>        (accumulated weight, ascending keys)
    ...
    end
    ...                       (n instance sections, in id order)
    v}

    Loading recreates the store with each instance restored as a
    {!Store.summary} of its weights and installed by
    {!Store.install_summary} — the path a merged PULL takes — under its
    recorded id, so seed derivations are preserved. PPS, bottom-k and
    binary samples depend only on the accumulated weights and the
    recorded seeds, so the rebuilt samples are bit-identical to those at
    snapshot time and re-queries answer identically. The counters follow
    the restore rule: [records] is the key count and [volume] the
    weights summed in ascending key order.

    The shard count is {e not} part of the snapshot: summaries never
    depend on it, so the loader picks its own (default
    {!Store.default_config}[.shards], override with [?shards]). *)

val magic : string
(** ["optsample-snapshot 1"]. *)

val to_string : Store.t -> string
(** Serialize (flushes the store first). *)

val of_string_r :
  ?pool:Numerics.Pool.t ->
  ?shards:int ->
  string ->
  (Store.t, Sampling.Io.parse_error) result
(** Parse and restore. Strict: bad headers, parameters outside
    {!Store.validate_config}, malformed entries, keys that are not
    strictly ascending (duplicates included), non-positive weights,
    out-of-order instance ids and trailing garbage are all structured
    errors. *)

val write : Store.t -> path:string -> (int, string) result
(** Write to a file {e atomically} (via {!Durable.write_file_atomic}:
    tmp + fsync + rename, so a crash mid-write never damages a previous
    snapshot at the same path); returns the number of instances
    persisted. File system errors come back as [Error]. *)

val load :
  ?pool:Numerics.Pool.t ->
  ?shards:int ->
  string ->
  (Store.t, Sampling.Io.parse_error) result
(** [load path]: {!of_string_r} on the file's contents. *)
