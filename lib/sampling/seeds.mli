(** Per-(instance, key) seed assignment.

    Seeds drive all randomness in sampling. They are produced by hashing
    the key with a per-instance salt, which makes them {e reproducible}:
    anyone holding the master seed can recompute [u_i(h)] — the paper's
    "known seeds" model. Two modes:

    - {b Shared} (coordinated sampling / PRN method): every instance uses
      the same salt, so [u_i(h) = u_j(h)] for all instances — similar
      instances get similar samples.
    - {b Independent}: instance [i] salts with [i], so seeds of different
      instances are independent. *)

type mode = Shared | Independent

type t

val create : ?master:int -> mode -> t
(** [create ~master mode]; default [master = 42]. *)

val mode : t -> mode
val master : t -> int

val seed : t -> instance:int -> key:int -> float
(** [seed t ~instance ~key] is the uniform seed [u_instance(key) ∈ (0,1)].
    In [Shared] mode the result does not depend on [instance]. *)

val salt : t -> instance:int -> int64
(** The hash salt of [instance]: [seed t ~instance ~key] is
    [Numerics.Hashing.uniform_int ~salt:(salt t ~instance) key]. A
    per-key loop computes the salts once and stores each seed with
    {!Numerics.Hashing.uniform_int_into}, which allocates nothing. *)

val seed_string : t -> instance:int -> key:string -> float
(** Same for string keys. *)

val rank : t -> Rank.family -> instance:int -> key:int -> w:float -> float
(** Rank of [key] with value [w] in [instance]: [F_w^{-1}(seed)]. With
    [Shared] mode this yields {e consistent} ranks across instances:
    [v_i(h) ≥ v_j(h)] implies [rank_i(h) ≤ rank_j(h)]. *)
