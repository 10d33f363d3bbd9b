(** Key-sorted sample columns and the one walk over their union.

    Every estimator served over samples is a sum of per-key terms over
    the union of the sampled keys (Sections 5 and 8; the L* forms of
    {!Estcore.Monotone}), so each is one ascending walk over that union.
    A column holds one sample as flat arrays, keys strictly ascending; a
    {!walk} merges [r] columns by cursor, yielding each union key once,
    in ascending order, with the position of that key in every column.
    Nothing is sorted, hashed or allocated per key.

    The serving store ([Server.Store]) keeps every instance's PPS and
    binary samples as resident columns, so a query walks them as they
    are. The list-taking sums ({!Sum_agg.estimate}, the {!Dominance}
    norms, {!Similarity.sums} and {!Distinct}) build columns with
    {!of_entries} / {!of_keys} and run the same walk: it is the only way
    the aggregates enumerate union keys. *)

type t = {
  keys : int array;  (** [keys.(0 .. len-1)] strictly ascending *)
  vals : floatarray;
      (** [vals.(i)]: the sampled value of [keys.(i)]; empty in a
          key-only column (a binary sample) *)
  len : int;  (** the entries; the arrays may be longer *)
}

val of_entries : (int * float) list -> t
(** A value column from [(key, value)] entries in any order. A
    duplicated key keeps its first binding, which is
    [List.assoc_opt]'s answer. *)

val of_keys : int list -> t
(** A key-only column from keys in any order, duplicates dropped. *)

val salts : Sampling.Seeds.t -> ids:int array -> int64 array
(** The seed salt of each instance id ({!Sampling.Seeds.salt}), once
    per query, for {!seeds_into}. *)

val seeds_into : int64 array -> int -> floatarray -> unit
(** [seeds_into salts h dst] stores the seed of key [h] in instance [i]
    into [dst.(i)] for every [i] of [salts] — bit for bit
    {!Sampling.Seeds.seed} at the ids [salts] came from — allocating
    nothing. *)

(** {2 The union walk} *)

type walk

val walk : t array -> walk
(** Cursors at the start of every column. *)

val more : walk -> bool
(** Whether a union key is left. *)

val next : walk -> int
(** The least key at any cursor (call only when {!more}); every cursor
    standing on it moves past it. Afterwards {!hit} tells where the key
    was. *)

val hit : walk -> int -> int
(** [hit w i]: the index in column [i] of the key {!next} last returned,
    or [-1] when column [i] does not hold it. *)

val load : walk -> Estcore.Evalbuf.t -> unit
(** Fill [vals] / [present] of an {!Estcore.Evalbuf} from the value
    columns for the key {!next} last returned: the sampled value and
    ['\001'] where the key is sampled, [0.] and ['\000'] elsewhere. *)
