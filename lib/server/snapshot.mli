(** Full-store persistence, so a daemon restart starts warm.

    Format (line-oriented, [#]-comments and blank lines ignored, floats
    as lossless hex literals — the {!Sampling.Io} house style): one
    header line, then one section per instance in id order, each section
    the payload ({!Merge.add_payload}) of the instance's summary:

    {v
    optsample-snapshot 2 <master> <mode> <tau-hex> <k> <p-hex> <flush_every> <n>
    summary <name> <id> <tau-hex> <k> <p-hex> <records> <volume-hex>
    w <key> <weight-hex>      (accumulated weight, ascending keys)
    ...
    end
    ...                       (n sections)
    v}

    The writer applies the restore rule to each summary: [records] is
    the key count and [volume] the weights summed in ascending key
    order. Loading walks the text in place, line by line, reads each
    section with {!Merge.section_line} (the reader behind
    {!Merge.of_lines}) and installs the summary exactly as parsed with
    {!Store.install_summary} — the path a merged PULL takes — under its
    recorded id, so seed derivations are preserved. PPS and binary
    samples depend only on the accumulated weights and the recorded
    seeds, so the rebuilt samples are bit-identical to those at snapshot
    time and re-queries answer identically.

    The shard count is {e not} part of the snapshot: summaries never
    depend on it, so the loader picks its own (default
    {!Store.default_config}[.shards], override with [?shards]). *)

val magic : string
(** ["optsample-snapshot 2"]. Version 1 text (the [instance] sections
    of earlier builds) is refused with a structured error. *)

val add_text : Buffer.t -> Store.t -> int
(** Append the snapshot text of the store's instances (flush it first),
    each line newline-terminated and each section exported and written
    from its summary's columns one instance at a time; returns the
    number of lines. What SYNC ships, for a daemon's own store and for a
    router's resident merged store alike. *)

val to_string : Store.t -> string
(** Serialize (flushes the store first): {!add_text} of the store's
    instances. *)

val of_string_r :
  ?pool:Numerics.Pool.t ->
  ?shards:int ->
  string ->
  (Store.t, Sampling.Io.parse_error) result
(** Parse and restore. Strict: bad headers (an older format version
    included), parameters outside {!Store.validate_config}, any section
    {!Merge.of_lines} refuses, out-of-order instance ids, repeated names
    and trailing garbage are all structured errors. A section's error
    carries the line number its [summary] line is on. *)

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
