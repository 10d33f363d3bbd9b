(** Reproducible hashing of keys to seeds.

    The paper's "known seeds" model requires that the uniform seed
    [u_i(h) ∈ [0,1)] used when sampling key [h] in instance [i] be
    recomputable by the estimator. We realize this with deterministic
    64-bit hash functions: a per-instance salt combined with the key
    through an avalanching mix. Shared-seed (coordinated) sampling uses
    the same salt for every instance; independent sampling uses distinct
    salts. *)

val mix64 : int64 -> int64
(** Bijective avalanching finalizer (SplitMix64's). *)

val combine : int64 -> int64 -> int64
(** [combine a b] mixes two 64-bit values non-commutatively. *)

val hash_int : salt:int64 -> int -> int64
(** Hash an integer key under [salt]. *)

val bucket_int : salt:int64 -> int -> int -> int
(** [bucket_int ~salt k n]: the top 63 bits of [hash_int ~salt k]
    reduced mod [n] ([n > 0]), in [\[0, n)] — a key's bucket among [n],
    computed without allocating. *)

val hash_string : salt:int64 -> string -> int64
(** FNV-1a over the bytes, post-finalized with {!mix64} and [salt]. *)

val to_unit : int64 -> float
(** Map a 64-bit hash to a uniform float in [[0,1)]. *)

val to_unit_open : int64 -> float
(** Map a 64-bit hash to a uniform float in [(0,1)]: never 0, so logarithms
    are safe. *)

val uniform_int : salt:int64 -> int -> float
(** [uniform_int ~salt h = to_unit_open (hash_int ~salt h)] — the seed
    [u(h)] of integer key [h]. *)

val uniform_int_into : salt:int64 -> int -> floatarray -> int -> unit
(** [uniform_int_into ~salt h dst i] stores [uniform_int ~salt h] into
    [dst.(i)] without allocating: the store-into form of the seed, for
    per-key loops. *)

val uniform_string : salt:int64 -> string -> float
(** Seed of a string key. *)

val salt_of_instance : master:int -> int -> int64
(** [salt_of_instance ~master i] derives the salt of instance [i] from a
    master experiment seed. [salt_of_instance ~master i] for distinct [i]
    gives independent seeds; passing the same [i] (conventionally 0) for
    every instance gives shared seeds. *)
