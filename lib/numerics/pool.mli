(** Work distribution across OCaml 5 domains.

    A lazily-started pool of worker domains with a shared task queue,
    built on stdlib [Domain]/[Mutex]/[Condition] only. All combinators
    guarantee {e scheduling-independent results}:

    - {!parallel_map} / {!parallel_init} compute independent elements, so
      the output array is identical to the sequential one by construction;
    - {!parallel_for_reduce} evaluates bodies in parallel but combines the
      per-index results {e left-to-right in index order}, so float
      reductions are bit-identical to the sequential fold;
    - {!map_streams} hands task [i] a PRNG substream derived only from
      [(master, i)] (see {!Prng.substream}), so parallel Monte Carlo gives
      the same draws whatever the pool size or scheduling.

    Waiting callers participate in draining the queue, so combinators may
    be invoked from inside pool tasks (nested parallelism) without
    deadlock. A pool of size [<= 1] runs everything inline in the calling
    domain and never spawns. *)

type t

val default_jobs : unit -> int
(** Parallelism used when [create] is given no [~domains]: the
    [OPTSAMPLE_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] prepares a pool that runs tasks on [domains]
    domains (default {!default_jobs}): the calling domain, which drains
    the queue while it waits, and [domains - 1] spawned workers. No
    domain is spawned until the first parallel call. Results never
    depend on [domains] — only wall-clock time does. *)

val size : t -> int
(** Domain count the pool was created with (≥ 1), the caller included. *)

val shutdown : t -> unit
(** Stop and join all workers. Idempotent; the pool runs subsequent
    calls inline (as if [size = 1]). Called automatically [at_exit] for
    the {!default} pool. *)

val default : unit -> t
(** A process-wide shared pool of {!default_jobs} workers, created on
    first use and shut down [at_exit]. *)

(** {2 Granularity}

    Every combinator splits its index range into contiguous chunks whose
    layout depends only on [(n, size, grain)] — never on scheduling — so
    results stay bit-identical whatever runs where. The default cost
    model makes at most 4 chunks per worker (large enough grains for the
    typical multi-microsecond body, small enough that stragglers even
    out). When bodies are {e tiny} (sub-microsecond sweep points), pass
    [?grain] — a lower bound on indices per chunk — so per-task
    enqueue/wakeup overhead amortizes over a grain of real work:
    [nchunks = max 1 (min (4 * size) (n / grain))]. *)

val chunks : ?grain:int -> t -> int -> (int * int) list
(** [chunks ?grain t n] is the exact [(lo, hi)] half-open chunk layout
    the combinators use for an index range of length [n]. Guaranteed to
    partition [[0, n)] exactly once with no empty chunk ([[]] when
    [n = 0]) — including the boundary triples [n = 0], [n < size t] and
    [grain > n]. Raises [Invalid_argument] on [n < 0] or a non-positive
    [grain]. Exposed so granularity decisions are testable. *)

val parallel_map : ?grain:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], elements computed across the pool. Order is
    preserved. Any task exception is re-raised in the caller (after all
    tasks of the call have settled). *)

val parallel_list_map : ?grain:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], via {!parallel_map}. *)

val parallel_init : ?grain:int -> t -> n:int -> (int -> 'a) -> 'a array
(** Like [Array.init], elements computed across the pool. *)

val parallel_for_reduce :
  ?grain:int ->
  t ->
  n:int ->
  body:(int -> 'a) ->
  init:'acc ->
  combine:('acc -> 'a -> 'acc) ->
  'acc
(** [parallel_for_reduce t ~n ~body ~init ~combine] evaluates
    [body 0 .. body (n-1)] in parallel (chunked) and then folds [combine]
    over the results sequentially, left to right — bit-identical to
    [for i = 0 to n-1 do acc := combine !acc (body i) done]. *)

val map_streams :
  ?grain:int -> t -> master:int -> n:int -> (Prng.t -> int -> 'a) -> 'a array
(** [map_streams t ~master ~n f] runs [f rng_i i] for [i = 0 .. n-1]
    where [rng_i = Prng.substream ~master i]. Each task owns its stream
    exclusively; the result array is independent of pool size and
    scheduling. *)
