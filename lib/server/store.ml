module Seeds = Sampling.Seeds

type config = {
  shards : int;
  master : int;
  mode : Seeds.mode;
  default_tau : float;
  default_k : int;
  default_p : float;
  flush_every : int;
  max_inflight : int;
}

let default_config =
  {
    shards = 1;
    master = 42;
    mode = Seeds.Independent;
    default_tau = 100.;
    default_k = 64;
    default_p = 0.05;
    flush_every = 8192;
    max_inflight = 65536;
  }

let mode_name = function
  | Seeds.Shared -> "shared"
  | Seeds.Independent -> "independent"

let mode_of_name = function
  | "shared" -> Some Seeds.Shared
  | "independent" -> Some Seeds.Independent
  | _ -> None

type instance_config = { tau : float; k : int; p : float }

(* A resident sample column: [keys.(0 .. sorted-1)] ascending, then the
   keys that entered since the last [seal] (the tail), in arrival
   order. A valued column (the PPS sample) also keeps each entry's row
   and sampled value, always its key's current weight: [apply] writes
   it through the row's [row_slot], and a seal that moves an entry
   moves its slot. A key-only column (the binary sample) keeps [vals]
   and [rows] empty and leaves slots alone. *)
type column = {
  valued : bool;
  mutable keys : int array;
  mutable vals : floatarray;
  mutable rows : int array;
  mutable len : int;
  mutable sorted : int;
}

(* The instance's float counter, in an all-float record (stored flat)
   so that adding to it allocates nothing. *)
type totals = { mutable volume : float }

(* The weights are rows, one per key in arrival order (keys are never
   removed, so rows only grow, by doubling): row [r] is key
   [row_keys.(r)] with accumulated weight [row_w.(r)], stamped
   [row_stamp.(r)] (the instance's [records] count when the key last
   changed), at slot [row_slot.(r)] of the PPS column (-1 while out of
   the sample). [index] finds a key's row: open addressing with linear
   probing over a power-of-two table, at most half full, -1 marking an
   empty position (a row number, so every int can be a key). *)
type instance = {
  id : int;
  i_name : string;
  icfg : instance_config;
  salt : int64;  (* [Seeds.salt] of the store's seeds at [id], computed once *)
  u : floatarray;
      (* one slot: the seed of the key being applied, stored there by
         [Hashing.uniform_int_into]; the instance's one writer (its
         shard's drain, or a restore) owns it *)
  mutable n_rows : int;
  mutable row_keys : int array;
  mutable row_w : floatarray;
  mutable row_stamp : int array;
  mutable row_slot : int array;
  mutable index : int array;
  mutable shift : int;  (* [Sys.int_size] less log2 of the index size *)
  mutable i_records : int;
  totals : totals;
  pps : column;
  binary : column;
}

type record = { r_inst : instance; r_key : int; r_weight : float }

type shard = {
  mailbox : record list Atomic.t;  (* newest first; reversed on drain *)
  depth : int Atomic.t;
  mutable applied : int;  (* mutated only by the draining task *)
}

type t = {
  cfg : config;
  t_epoch : int;
  t_seeds : Seeds.t;
  t_pool : Numerics.Pool.t Lazy.t;
  t_shards : shard array;
  by_name : (string, instance) Hashtbl.t;
  mutable rev_instances : instance list;
  mutable n_instances : int;
  mutable pending_since_flush : int;  (* producer-side; see ingest *)
  mutable held : int array;
      (* scratch of [apply_delta]: the row its check found for each
         listed key (-1 for a new key), so the apply does not look the
         key up again; grown to the largest delta, then reused *)
}

(* Epochs: a random base drawn once per process plus a process-wide
   counter, so two stores of one process never share an epoch and a
   restarted process draws a new base. *)
let epoch_base =
  Int64.to_int (Random.State.bits64 (Random.State.make_self_init ()))

let epoch_count = Atomic.make 0

let create ?pool cfg =
  if cfg.shards < 1 then
    invalid_arg (Printf.sprintf "Store.create: shards = %d must be >= 1" cfg.shards);
  let t_pool =
    match pool with
    | Some p -> Lazy.from_val p
    | None -> lazy (Numerics.Pool.create ~domains:cfg.shards ())
  in
  {
    cfg;
    t_epoch = (epoch_base + Atomic.fetch_and_add epoch_count 1) land max_int;
    t_seeds = Seeds.create ~master:cfg.master cfg.mode;
    t_pool;
    t_shards =
      Array.init cfg.shards (fun _ ->
          { mailbox = Atomic.make []; depth = Atomic.make 0; applied = 0 });
    by_name = Hashtbl.create 16;
    rev_instances = [];
    n_instances = 0;
    pending_since_flush = 0;
    held = [||];
  }

let config t = t.cfg
let epoch t = t.t_epoch
let seeds t = t.t_seeds
let pool t = Lazy.force t.t_pool

(* The one check on instance parameters, shared by every way an
   instance comes into being (CREATE, WAL replay, snapshot restore,
   merge payloads): k + 1 must not overflow (a bottom-k sample reads
   the (k+1)-th smallest rank as its threshold), and tau/p must make
   the inclusion predicates meaningful. *)
let validate_config { tau; k; p } =
  if not (Float.is_finite tau && tau > 0.) then
    Error (Printf.sprintf "tau %g must be finite and > 0" tau)
  else if k < 1 || k = max_int then
    Error (Printf.sprintf "k %d out of [1, %d)" k max_int)
  else if not (p > 0. && p <= 1.) then
    Error (Printf.sprintf "p %g out of (0,1]" p)
  else Ok ()

let check_create t ~name icfg =
  if not (Protocol.valid_name name) then
    Error (Printf.sprintf "invalid instance name %S" name)
  else if Hashtbl.mem t.by_name name then
    Error (Printf.sprintf "instance %S already exists" name)
  else validate_config icfg

let find t name = Hashtbl.find_opt t.by_name name
let instances t = List.rev t.rev_instances

(* --- the key index --- *)

(* An odd multiplier near 2^63 / the golden ratio: the top bits of
   [key * multiplier] are the key's home position, so keys that differ
   only in their low bits, or only in their high ones, spread over the
   index alike. *)
let multiplier = 0x4F1BBCDCBFA53E0B

(* The index position of [key]: its row's, or the empty one where it
   would go. The index is never more than half full, so the probe
   ends. *)
let probe inst key =
  let index = inst.index and keys = inst.row_keys in
  let mask = Array.length index - 1 in
  let h = ref ((key * multiplier) lsr inst.shift) in
  while
    let r = index.(!h) in
    r >= 0 && keys.(r) <> key
  do
    h := (!h + 1) land mask
  done;
  !h

(* The log2 of the least index size that holds [n] keys at most half
   full: 16 positions or more. *)
let index_bits n =
  let rec go b = if 1 lsl b >= 2 * n then b else go (b + 1) in
  go 4

let empty_index bits = Array.make (1 lsl bits) (-1)

(* Double the index and re-insert every row: the keys are distinct, so
   each goes to the first empty position from its home. *)
let grow_index inst =
  let index = empty_index (Sys.int_size - inst.shift + 1) in
  let mask = Array.length index - 1 in
  let shift = inst.shift - 1 in
  for r = 0 to inst.n_rows - 1 do
    let h = ref ((inst.row_keys.(r) * multiplier) lsr shift) in
    while index.(!h) >= 0 do
      h := (!h + 1) land mask
    done;
    index.(!h) <- r
  done;
  inst.index <- index;
  inst.shift <- shift

(* Rows grow by half: the old columns are garbage once copied, so a
   smaller step keeps both the slack and the copy's peak lower (the
   summed peak RSS of a perfbench `cluster` run was 76.9 MB growing by
   doubling, 73.3 MB by half). *)
let grow_rows inst =
  let n = inst.n_rows in
  let cap = max 16 (n + (n / 2)) in
  let keys = Array.make cap 0 and w = Float.Array.create cap in
  let stamp = Array.make cap 0 and slot = Array.make cap (-1) in
  Array.blit inst.row_keys 0 keys 0 n;
  Float.Array.blit inst.row_w 0 w 0 n;
  Array.blit inst.row_stamp 0 stamp 0 n;
  Array.blit inst.row_slot 0 slot 0 n;
  inst.row_keys <- keys;
  inst.row_w <- w;
  inst.row_stamp <- stamp;
  inst.row_slot <- slot

(* A row of weight 0 for a key the instance does not hold, whose empty
   index position [probe] found at [h]; the caller writes its stamp.
   Allocates nothing while rows and index have room. *)
let add_row inst h key =
  let r = inst.n_rows in
  if r = Array.length inst.row_keys then grow_rows inst;
  inst.row_keys.(r) <- key;
  Float.Array.set inst.row_w r 0.;
  inst.row_slot.(r) <- -1;
  inst.n_rows <- r + 1;
  if 2 * inst.n_rows > Array.length inst.index then grow_index inst
  else inst.index.(h) <- r;
  r

(* --- resident sample columns --- *)

let column ~valued =
  {
    valued;
    keys = [||];
    vals = Float.Array.create 0;
    rows = [||];
    len = 0;
    sorted = 0;
  }

(* Append row [r]'s key to the tail, doubling the arrays when full. *)
let append inst col key r =
  let cap = Array.length col.keys in
  if col.len = cap then begin
    let cap' = max 16 (2 * cap) in
    let keys = Array.make cap' 0 in
    Array.blit col.keys 0 keys 0 col.len;
    col.keys <- keys;
    if col.valued then begin
      let rows = Array.make cap' 0 in
      Array.blit col.rows 0 rows 0 col.len;
      col.rows <- rows;
      let vals = Float.Array.make cap' 0. in
      Float.Array.blit col.vals 0 vals 0 col.len;
      col.vals <- vals
    end
  end;
  let i = col.len in
  col.keys.(i) <- key;
  if col.valued then begin
    col.rows.(i) <- r;
    Float.Array.set col.vals i (Float.Array.get inst.row_w r);
    inst.row_slot.(r) <- i
  end;
  col.len <- i + 1

(* Merge the tail into the sorted prefix, in place: the tail is sorted
   aside (unless it already continues the prefix in order, as a
   restore's ascending keys do) and merged from the back, moving only
   the prefix entries above its least key. O(n + m log m) for n sorted
   keys and m entrants, with O(m) scratch; every key enters a column
   once, so this is paid once per entering key. *)
let seal inst col =
  let n = col.len and s = col.sorted in
  let keys = col.keys in
  let in_order = ref true in
  for i = max 1 s to n - 1 do
    if keys.(i - 1) > keys.(i) then in_order := false
  done;
  if not !in_order then begin
    let m = n - s in
    let tail = Array.init m (fun j -> s + j) in
    Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) tail;
    let row i = if col.valued then col.rows.(i) else -1 in
    let tkeys = Array.map (fun i -> keys.(i)) tail in
    let trows = Array.map row tail in
    (* Entry [o] now holds key [k], of row [r]. *)
    let place o k r =
      keys.(o) <- k;
      if col.valued then begin
        col.rows.(o) <- r;
        Float.Array.set col.vals o (Float.Array.get inst.row_w r);
        inst.row_slot.(r) <- o
      end
    in
    let i = ref (s - 1) and j = ref (m - 1) and o = ref (n - 1) in
    while !j >= 0 do
      if !i >= 0 && keys.(!i) > tkeys.(!j) then begin
        place !o keys.(!i) (row !i);
        decr i
      end
      else begin
        place !o tkeys.(!j) trows.(!j);
        decr j
      end;
      decr o
    done
  end;
  col.sorted <- n

let seal_instance inst =
  seal inst inst.pps;
  seal inst inst.binary

(* --- record application (runs on the owning shard's drain task) --- *)

(* The sample half of [apply]: key [key], row [r], has just reached its
   accumulated weight ([first] on its first record). Every sample is a
   function of (weight, seed) alone, so feeding each key's final weight
   through here once rebuilds them exactly — which is how
   [install_summary] restores an instance from its weights. *)
let sample_key inst ~first key r =
  let v = Float.Array.get inst.row_w r in
  Numerics.Hashing.uniform_int_into ~salt:inst.salt key inst.u 0;
  let u = Float.Array.get inst.u 0 in
  (* Same inclusion predicate as Poisson.pps_sample; monotone in v, so
     once in, a key only has its sampled value refreshed. *)
  let slot = inst.row_slot.(r) in
  if slot >= 0 then Float.Array.set inst.pps.vals slot v
  else if v >= u *. inst.icfg.tau then append inst inst.pps key r;
  (* Binary support sample: decided once, on the key's first record. *)
  if first && u <= inst.icfg.p then append inst inst.binary key r

(* Key [key] now has weight [ws.(j)], stamped [stamp]: the weight is
   read from its column here, so no float is boxed per key. *)
let set_weight inst ~stamp key ws j =
  let h = probe inst key in
  let r = inst.index.(h) in
  let first = r < 0 in
  let r = if first then add_row inst h key else r in
  Float.Array.set inst.row_w r (Float.Array.get ws j);
  inst.row_stamp.(r) <- stamp;
  sample_key inst ~first key r

(* One record. Nothing here allocates unless the key enters a sample
   column or the rows or the index grow: the row, the totals and the
   seed slot are all written in place. A new row's weight is 0, so
   adding [w] to it gives [w] exactly. *)
let apply inst key w =
  inst.i_records <- inst.i_records + 1;
  inst.totals.volume <- inst.totals.volume +. w;
  let h = probe inst key in
  let r = inst.index.(h) in
  let first = r < 0 in
  let r = if first then add_row inst h key else r in
  Float.Array.set inst.row_w r (Float.Array.get inst.row_w r +. w);
  inst.row_stamp.(r) <- inst.i_records;
  sample_key inst ~first key r

(* --- sharded ingest --- *)

let shard_of t inst = t.t_shards.(inst.id mod t.cfg.shards)

let push shard r =
  let rec go () =
    let old = Atomic.get shard.mailbox in
    if not (Atomic.compare_and_set shard.mailbox old (r :: old)) then go ()
  in
  go ();
  Atomic.incr shard.depth

(* The drain applies its backlog, then seals the columns of the
   shard's instances: the shard's task is their only writer, and reads
   come after the flush, so they always see sorted columns. *)
let drain t shard =
  match Atomic.exchange shard.mailbox [] with
  | [] -> ()
  | backlog ->
      let batch = List.rev backlog in
      let n = List.length batch in
      ignore (Atomic.fetch_and_add shard.depth (-n));
      List.iter (fun r -> apply r.r_inst r.r_key r.r_weight) batch;
      List.iter
        (fun inst -> if shard_of t inst == shard then seal_instance inst)
        t.rev_instances;
      shard.applied <- shard.applied + n;
      Numerics.Obs.count ~by:n "server.shard.applied"

let flush t =
  t.pending_since_flush <- 0;
  Numerics.Obs.span ~cat:"server" "server.flush" @@ fun () ->
  ignore
    (Numerics.Pool.parallel_map ~grain:1 (pool t) (drain t) t.t_shards)

type ingest_error =
  | Overloaded of { depth : int; limit : int }
  | Rejected of string

let ingest_error_to_string = function
  | Overloaded { depth; limit } ->
      Printf.sprintf "overloaded: %d records pending on shard (limit %d)" depth
        limit
  | Rejected m -> m

(* Validation + admission, with no side effect: the engine runs this
   before logging to the WAL (write-ahead discipline — a record must
   never be logged and then shed, or shed and then logged). Under the
   single-producer contract a passing check cannot turn into a shed by
   the time the matching [ingest] runs: only this thread grows the
   mailbox. *)
let check_ingest_i t ~name ~weight =
  if not (Float.is_finite weight) || weight <= 0. then
    Error (Rejected (Printf.sprintf "weight %g must be finite and > 0" weight))
  else
    match Hashtbl.find_opt t.by_name name with
    | None -> Error (Rejected (Printf.sprintf "unknown instance %S" name))
    | Some inst ->
        let depth = Atomic.get (shard_of t inst).depth in
        if depth >= t.cfg.max_inflight then begin
          Numerics.Obs.count "server.ingest.shed";
          Error (Overloaded { depth; limit = t.cfg.max_inflight })
        end
        else Ok inst

let check_ingest t ~name ~weight =
  Result.map (fun (_ : instance) -> ()) (check_ingest_i t ~name ~weight)

let ingest t ~name ~key ~weight =
  match check_ingest_i t ~name ~weight with
  | Error e -> Error e
  | Ok inst ->
      Numerics.Obs.count "server.ingest";
      push (shard_of t inst) { r_inst = inst; r_key = key; r_weight = weight };
      t.pending_since_flush <- t.pending_since_flush + 1;
      if t.pending_since_flush >= t.cfg.flush_every then flush t;
      Ok ()

(* Batch admission is all-or-nothing: every weight validated up front,
   and the whole batch shed when it would push the shard past
   [max_inflight] (depth + n > limit reduces to the single-record
   depth >= limit check at n = 1) — a batch is never half-applied. *)
let check_ingest_many_i t ~name ~records =
  let n = Array.length records in
  if n = 0 then Error (Rejected "empty batch")
  else begin
    let bad = ref None in
    Array.iter
      (fun (_, w) ->
        if !bad = None && (not (Float.is_finite w) || w <= 0.) then
          bad := Some w)
      records;
    match !bad with
    | Some w ->
        Error
          (Rejected (Printf.sprintf "weight %g must be finite and > 0" w))
    | None -> (
        match Hashtbl.find_opt t.by_name name with
        | None -> Error (Rejected (Printf.sprintf "unknown instance %S" name))
        | Some inst ->
            let depth = Atomic.get (shard_of t inst).depth in
            if depth + n > t.cfg.max_inflight then begin
              Numerics.Obs.count "server.ingest.shed";
              Error (Overloaded { depth; limit = t.cfg.max_inflight })
            end
            else Ok inst)
  end

let check_ingest_many t ~name ~records =
  Result.map (fun (_ : instance) -> ()) (check_ingest_many_i t ~name ~records)

(* One CAS publishes the whole batch: the cells are prepended in reverse
   so the drain's [List.rev] restores arrival order — per-instance
   application order is exactly as if each record had been pushed one at
   a time. All records of a batch target one instance, hence one shard. *)
let push_many shard inst records =
  let n = Array.length records in
  let rec go () =
    let old = Atomic.get shard.mailbox in
    let cells = ref old in
    for i = 0 to n - 1 do
      let key, weight = records.(i) in
      cells := { r_inst = inst; r_key = key; r_weight = weight } :: !cells
    done;
    if not (Atomic.compare_and_set shard.mailbox old !cells) then go ()
  in
  go ();
  ignore (Atomic.fetch_and_add shard.depth n)

let ingest_many t ~name ~records =
  match check_ingest_many_i t ~name ~records with
  | Error e -> Error e
  | Ok inst ->
      let n = Array.length records in
      Numerics.Obs.count ~by:n "server.ingest";
      Numerics.Obs.count "server.ingest.batch";
      push_many (shard_of t inst) inst records;
      t.pending_since_flush <- t.pending_since_flush + n;
      if t.pending_since_flush >= t.cfg.flush_every then flush t;
      Ok ()

let apply_record inst ~key ~weight =
  apply inst key weight;
  seal_instance inst

let pending t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.depth) 0 t.t_shards

(* --- reads --- *)

let id inst = inst.id
let name inst = inst.i_name
let instance_config inst = inst.icfg
let records inst = inst.i_records
let volume inst = inst.totals.volume
let cardinality inst = inst.n_rows

(* The sealed prefix: after a flush, the whole column. *)
let view col =
  { Aggregates.Column.keys = col.keys; vals = col.vals; len = col.sorted }

let pps_column inst = view inst.pps
let binary_column inst = view inst.binary

(* No query reads a bottom-k sample, so none is kept; STATS reports its
   size. *)
let bottom_k_size inst = min inst.icfg.k (cardinality inst)

(* --- mergeable summary export / install (cluster mode) --- *)

type summary = {
  s_name : string;
  s_id : int;
  s_cfg : instance_config;
  s_records : int;
  s_volume : float;
  s_keys : int array;
  s_weights : floatarray;
}

(* Sort [keys.(0 .. n-1)] ascending, each weight moving with its key: an
   LSD radix sort on the two unboxed columns, so an export sorts ints in
   place of a list of boxed pairs, in a few linear passes. Keys are
   taken as offsets from the least key, unsigned (the offset of any two
   ints fits the word), 11 bits a pass, as many passes as the largest
   offset needs and never past the word: six at most. Short runs take an
   insertion sort. The keys are distinct, one per row. (An
   [Array.sort] of the keys followed by a lookup of each weight takes
   about ten times as long on a 110k-key export.) *)
let radix_bits = 11

let insertion_sort keys ws n =
  for i = 1 to n - 1 do
    let k = keys.(i) and w = Float.Array.get ws i in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      Float.Array.set ws (!j + 1) (Float.Array.get ws !j);
      decr j
    done;
    keys.(!j + 1) <- k;
    Float.Array.set ws (!j + 1) w
  done

let sort_pairs keys ws ~tkeys ~tws n =
  if n <= 32 then insertion_sort keys ws n
  else begin
    let least = ref keys.(0) in
    for i = 1 to n - 1 do
      if keys.(i) < !least then least := keys.(i)
    done;
    let least = !least in
    let span = ref 0 in
    for i = 0 to n - 1 do
      span := !span lor (keys.(i) - least)
    done;
    let radix = 1 lsl radix_bits in
    let mask = radix - 1 in
    let count = Array.make radix 0 in
    (* Each pass moves the pairs from [src] to [dst] by one digit. *)
    let pass src sws dst dws shift =
      Array.fill count 0 radix 0;
      for i = 0 to n - 1 do
        let d = ((src.(i) - least) lsr shift) land mask in
        count.(d) <- count.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let k = src.(i) in
        let d = ((k - least) lsr shift) land mask in
        let o = count.(d) in
        count.(d) <- o + 1;
        dst.(o) <- k;
        Float.Array.set dws o (Float.Array.get sws i)
      done
    in
    let rec passes shift in_place =
      if shift >= Sys.int_size || (shift > 0 && !span lsr shift = 0) then
        in_place
      else begin
        if in_place then pass keys ws tkeys tws shift
        else pass tkeys tws keys ws shift;
        passes (shift + radix_bits) (not in_place)
      end
    in
    if not (passes 0 true) then begin
      Array.blit tkeys 0 keys 0 n;
      Float.Array.blit tws 0 ws 0 n
    end
  end

(* The columns an export gathers into and the radix sort's second
   pair. A writer of several payloads passes one scratch to every
   export, so writing a whole store leaves no columns per instance for
   the GC to reclaim; without one, an export makes its own. *)
type scratch = {
  mutable gkeys : int array;  (* the gathered columns *)
  mutable gws : floatarray;
  mutable tkeys : int array;  (* the sort's second pair *)
  mutable tws : floatarray;
}

let scratch () =
  {
    gkeys = [||];
    gws = Float.Array.create 0;
    tkeys = [||];
    tws = Float.Array.create 0;
  }

(* The keys stamped above [since] (every key without it), gathered from
   the rows into the scratch columns and sorted by key: rows are in
   arrival order, so anything emitted to a snapshot or a merge payload
   is sorted first — byte-stable regardless of ingestion order
   (regression-tested by diffing snapshots of permuted streams). A
   delta is counted before it is gathered, so the columns grow to the
   export's exact size. *)
let export_into ?(scratch = scratch ()) ?since inst f =
  let sc = scratch in
  let total = inst.n_rows and stamps = inst.row_stamp in
  let after = Option.value since ~default:min_int in
  let n = ref 0 in
  for i = 0 to total - 1 do
    if stamps.(i) > after then incr n
  done;
  let n = !n in
  if Array.length sc.gkeys < n then begin
    sc.gkeys <- Array.make n 0;
    sc.gws <- Float.Array.create n
  end;
  let j = ref 0 in
  for i = 0 to total - 1 do
    if stamps.(i) > after then begin
      sc.gkeys.(!j) <- inst.row_keys.(i);
      Float.Array.set sc.gws !j (Float.Array.get inst.row_w i);
      incr j
    end
  done;
  if n > 32 && Array.length sc.tkeys < n then begin
    sc.tkeys <- Array.make (Array.length sc.gkeys) 0;
    sc.tws <- Float.Array.create (Array.length sc.gkeys)
  end;
  sort_pairs sc.gkeys sc.gws ~tkeys:sc.tkeys ~tws:sc.tws n;
  f
    {
      s_name = inst.i_name;
      s_id = inst.id;
      s_cfg = inst.icfg;
      s_records = inst.i_records;
      s_volume = inst.totals.volume;
      s_keys = [||];
      s_weights = Float.Array.create 0;
    }
    sc.gkeys sc.gws n

(* The summary is installed under its *recorded* id: seed derivation
   and the shard assignment key off [s_id], so a store materialized from
   a subset of another store's instances answers queries with the
   original seeds. The samples are rebuilt from the weights by
   [sample_key], the code [apply] runs; every key is stamped with the
   summary's [records]. The rows and the index are sized to the
   summary's keys, which are appended in their ascending order. The
   instance list stays in id order whatever order the summaries come
   in. *)
let install_summary t s =
  match check_create t ~name:s.s_name s.s_cfg with
  | Error _ as e -> e
  | Ok () when s.s_id < 0 -> Error (Printf.sprintf "invalid instance id %d" s.s_id)
  | Ok () ->
      let n = Array.length s.s_keys in
      let bits = index_bits n in
      let inst =
        {
          id = s.s_id;
          i_name = s.s_name;
          icfg = s.s_cfg;
          salt = Seeds.salt t.t_seeds ~instance:s.s_id;
          u = Float.Array.make 1 0.;
          n_rows = 0;
          row_keys = Array.make n 0;
          row_w = Float.Array.create n;
          row_stamp = Array.make n 0;
          row_slot = Array.make n (-1);
          index = empty_index bits;
          shift = Sys.int_size - bits;
          i_records = s.s_records;
          totals = { volume = s.s_volume };
          pps = column ~valued:true;
          binary = column ~valued:false;
        }
      in
      let stamp = s.s_records in
      for i = 0 to n - 1 do
        set_weight inst ~stamp s.s_keys.(i) s.s_weights i
      done;
      seal_instance inst;
      Hashtbl.add t.by_name s.s_name inst;
      let rec insert = function
        | i :: rest when i.id > inst.id -> i :: insert rest
        | l -> inst :: l
      in
      t.rev_instances <- insert t.rev_instances;
      t.n_instances <- max t.n_instances (s.s_id + 1);
      Ok inst

(* The first key of a delta part that cannot be applied, as an error:
   out of order, owned by another part, not > 0, or below the weight the
   instance holds. The row each key has (or -1) is kept in [t.held] from
   [base] on. Allocates nothing while every key passes. *)
let check_part t inst ~owner ~base i s =
  let keys = s.s_keys and ws = s.s_weights in
  let n = Array.length keys in
  (* The weight is read again for a message, so the checks never box
     it. *)
  let rec go j =
    if j = n then Ok ()
    else
      let key = keys.(j) in
      if j > 0 && key <= keys.(j - 1) then
        Error (Printf.sprintf "weight keys out of order at %d" key)
      else if owner key <> i then
        Error (Printf.sprintf "key %d is not owned by partition %d" key i)
      else if not (Float.Array.get ws j > 0.) then
        Error
          (Printf.sprintf "the weight %h of key %d is not > 0"
             (Float.Array.get ws j) key)
      else
        let r = inst.index.(probe inst key) in
        if r >= 0 && Float.Array.get ws j < Float.Array.get inst.row_w r then
          Error
            (Printf.sprintf "instance %S: the weight of key %d falls to %h"
               inst.i_name key (Float.Array.get ws j))
        else begin
          t.held.(base + j) <- r;
          go (j + 1)
        end
  in
  if Array.length keys <> Float.Array.length ws then
    Error "a delta's key and weight columns differ in length"
  else go 0

(* A delta advances an instance whose weights only grew: each listed
   key's weight is replaced and its samples re-run through [sample_key]
   (PPS inclusion is monotone in the weight and binary membership was
   decided when the key first appeared), so the result equals
   installing the full summary. The partitions are key-disjoint (each
   key checked against its owner), so each part's columns are applied
   as they are, with no merged copy, through the rows the check found;
   the totals are summed as Merge.merge_all sums them, the volumes left
   to right. Everything is checked before anything changes. *)
let apply_delta ~owner t parts =
  match parts with
  | [] -> Error "no delta to apply"
  | first :: rest -> (
      match Hashtbl.find_opt t.by_name first.s_name with
      | None -> Error (Printf.sprintf "unknown instance %S" first.s_name)
      | Some inst ->
          let total =
            List.fold_left (fun acc s -> acc + Array.length s.s_keys) 0 parts
          in
          if Array.length t.held < total then
            t.held <- Array.make (max total (2 * Array.length t.held)) (-1);
          let rec check i base records = function
            | [] ->
                if records < inst.i_records then
                  Error
                    (Printf.sprintf "instance %S: records fall from %d to %d"
                       inst.i_name inst.i_records records)
                else Ok records
            | s :: more ->
                if s.s_name <> inst.i_name then
                  Error
                    (Printf.sprintf "cannot merge instance %S with %S"
                       inst.i_name s.s_name)
                else if s.s_id <> inst.id then
                  Error
                    (Printf.sprintf "instance %S has id %d, the delta %d"
                       inst.i_name inst.id s.s_id)
                else if
                  not
                    (Float.equal inst.icfg.tau s.s_cfg.tau
                    && inst.icfg.k = s.s_cfg.k
                    && Float.equal inst.icfg.p s.s_cfg.p)
                then
                  Error
                    (Printf.sprintf "instance %S: the delta has other tau/k/p"
                       inst.i_name)
                else
                  Result.bind (check_part t inst ~owner ~base i s) (fun () ->
                      check (i + 1)
                        (base + Array.length s.s_keys)
                        (records + s.s_records) more)
          in
          Result.map
            (fun records ->
              inst.i_records <- records;
              inst.totals.volume <-
                List.fold_left
                  (fun v s -> v +. s.s_volume)
                  first.s_volume rest;
              let stamp = records in
              ignore
                (List.fold_left
                   (fun base s ->
                     let keys = s.s_keys and ws = s.s_weights in
                     for j = 0 to Array.length keys - 1 do
                       let r = t.held.(base + j) in
                       if r < 0 then set_weight inst ~stamp keys.(j) ws j
                       else begin
                         Float.Array.set inst.row_w r (Float.Array.get ws j);
                         inst.row_stamp.(r) <- stamp;
                         sample_key inst ~first:false keys.(j) r
                       end
                     done;
                     base + Array.length keys)
                   0 parts);
              seal_instance inst;
              inst)
            (check 0 0 0 parts))

(* A new instance is the empty summary at the next id. *)
let create_instance t ~name ?tau ?k ?p () =
  install_summary t
    {
      s_name = name;
      s_id = t.n_instances;
      s_cfg =
        {
          tau = Option.value tau ~default:t.cfg.default_tau;
          k = Option.value k ~default:t.cfg.default_k;
          p = Option.value p ~default:t.cfg.default_p;
        };
      s_records = 0;
      s_volume = 0.;
      s_keys = [||];
      s_weights = Float.Array.create 0;
    }

type shard_stats = { shard : int; queue_depth : int; applied : int }

let shard_stats t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         { shard = i; queue_depth = Atomic.get s.depth; applied = s.applied })
       t.t_shards)
