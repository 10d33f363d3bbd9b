(** Cluster mode: a router process in front of N storage daemons, each
    owning a hash slice of the key space.

    {2 Placement}

    A key's owner is [owner ~backends key] — a fixed-salt
    {!Numerics.Hashing.hash_int} reduced mod the backend count. The salt
    is a constant independent of any store configuration, so placement
    is a pure function of [(key, N)]: deterministic across router
    restarts, and every record for a given key lands on one daemon.
    That disjointness is what makes the cluster {e exact}: per-key
    weights never split across partitions, so {!Merge} reproduces a
    single node's accumulated weights bit-for-bit.

    {2 Bit-identity}

    Queries do {e not} sum per-daemon estimates (float addition order
    would differ by partition count). Instead the router keeps a
    {e resident} one-shard store holding the merge ({!Merge}) of every
    daemon's mergeable summary, under the recorded instance ids (so seed
    derivation is unchanged), and runs the ordinary {!Engine} over it —
    the same float walk, in the same order, as a single node that
    ingested everything. The answers are byte-identical.

    {2 The resident store}

    Every read (QUERY, PULL, SYNC, SNAPSHOT, STATS) first refreshes the
    instances it reads with one round of PULLs, written to every daemon
    before any reply is read. For each (instance, daemon) the router
    keeps a cursor — the daemon store's epoch and the instance's records
    count in the last reply it applied — and asks with
    [PULL <name> since=<epoch>:<records>] for the keys changed since.
    Each delta goes into the resident store through
    {!Merge.apply_deltas}: the key's weight is replaced and its samples
    re-run, which is exact because partitions are key-disjoint (a key's
    merged weight is its owner's) and weights only grow. A query
    therefore costs what changed since the last read, not the instance
    size. A reply in a new epoch (a restarted or restored daemon), a key
    sent by a daemon that does not own it, or a delta the store refuses
    rebuilds the resident store from full PULLs — the from-scratch
    merge. A new router starts empty, so its first read full-PULLs.

    {2 Wire compatibility}

    The router speaks the daemon protocol on both sides: clients connect
    to it exactly as to a daemon (CREATE fans to all backends with
    defaults resolved router-side; INGEST routes to the key's owner;
    INGESTN bodies are split by ownership and forwarded as per-owner
    INGESTN batches; QUERY / PULL / SYNC / SNAPSHOT / STATS answer from
    the resident store, so a PULL to a router carries the resident
    store's epoch and serves [since=] cursors too; FLUSH fans out and
    sums [pending]). SHUTDOWN stops
    the router only — the daemons are separate processes with their own
    lifecycles.

    The router requires every backend to share its master seed and
    sampling mode (checked against PULL / SYNC response headers); a
    mismatch is an error, never a silently wrong merge. An instance a
    read names that the router did not create (one created on the
    daemons directly) joins its catalog once every daemon serves it. *)

type t

val placement_salt : int64
(** The fixed placement salt — exposed so tests can pick keys with known
    owners. *)

val owner : backends:int -> int -> int
(** [owner ~backends key] — which backend (0-based) owns [key]. *)

val connect :
  ?retry:Client.retry ->
  store_cfg:Store.config ->
  Unix.sockaddr list ->
  (t, string) result
(** Dial every backend and bootstrap the instance catalog by SYNCing
    backend 0 (all backends hold identical catalogs — CREATE fans out —
    so any one serves; this is how a {e restarted} router relearns
    instances it didn't create). Verifies the backends' master seed and
    mode against [store_cfg]; [store_cfg.shards] is forced to 1 for the
    router's resident store (summaries never depend on it). On any
    failure every opened connection is closed. *)

val backend_count : t -> int

val resident : t -> Store.t
(** The resident store as the last read left it: each instance in it is
    the merge of the daemons' summaries at that read. For tests. *)

val handlers : t -> Daemon.handlers
(** The fan-out request handlers, pluggable into {!Daemon}'s event
    loop. *)

val serve : ?config:Daemon.config -> t -> Unix.file_descr -> unit
(** {!Daemon.serve_handlers} over {!handlers} — run the router's serving
    loop on the calling domain until SHUTDOWN. *)

val start : ?config:Daemon.config -> t -> Daemon.t
(** In-process router on a fresh domain ({!Daemon.start_handlers}) —
    how the tests and the bench run a cluster. The router [t] must only
    be touched by that domain until the daemon is joined. *)

val close : t -> unit
(** Close the backend connections and shut the router's pool down. *)
