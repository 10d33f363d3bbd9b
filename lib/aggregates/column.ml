type t = { keys : int array; vals : floatarray; len : int }

(* Stable sort, then drop every binding after a key's first. *)
let of_entries entries =
  let sorted =
    List.stable_sort (fun ((a : int), _) (b, _) -> Int.compare a b) entries
  in
  let rec dedup = function
    | ((k1, _) as e) :: (k2, _) :: rest when k1 = k2 -> dedup (e :: rest)
    | e :: rest -> e :: dedup rest
    | [] -> []
  in
  let entries = Array.of_list (dedup sorted) in
  {
    keys = Array.map fst entries;
    vals = Float.Array.map_from_array snd entries;
    len = Array.length entries;
  }

let of_keys keys =
  let keys = Array.of_list (List.sort_uniq Int.compare keys) in
  { keys; vals = Float.Array.create 0; len = Array.length keys }

let salts seeds ~ids =
  Array.map (fun id -> Sampling.Seeds.salt seeds ~instance:id) ids

let seeds_into salts h (dst : floatarray) =
  for i = 0 to Array.length salts - 1 do
    Numerics.Hashing.uniform_int_into ~salt:(Array.unsafe_get salts i) h dst i
  done

(* [cur.(i)]: column i's next unread entry. [hits.(i)]: where the key
   [next] last returned sits in column i, or -1. [live]: the columns
   with entries left. *)
type walk = {
  cols : t array;
  cur : int array;
  hits : int array;
  mutable live : int;
}

let walk cols =
  let r = Array.length cols in
  {
    cols;
    cur = Array.make r 0;
    hits = Array.make r (-1);
    live = Array.fold_left (fun n c -> if c.len > 0 then n + 1 else n) 0 cols;
  }

let more w = w.live > 0

(* Keys are strictly ascending in every column, so the least key at any
   cursor is the next union key, and each cursor standing on it moves
   one step. max_int is a valid start: it is at most the least live key. *)
let next w =
  let r = Array.length w.cols in
  let h = ref max_int in
  for i = 0 to r - 1 do
    let c = Array.unsafe_get w.cols i in
    let j = Array.unsafe_get w.cur i in
    if j < c.len && Array.unsafe_get c.keys j < !h then
      h := Array.unsafe_get c.keys j
  done;
  let h = !h in
  for i = 0 to r - 1 do
    let c = Array.unsafe_get w.cols i in
    let j = Array.unsafe_get w.cur i in
    if j < c.len && Array.unsafe_get c.keys j = h then begin
      Array.unsafe_set w.hits i j;
      Array.unsafe_set w.cur i (j + 1);
      if j + 1 = c.len then w.live <- w.live - 1
    end
    else Array.unsafe_set w.hits i (-1)
  done;
  h

let hit w i = w.hits.(i)

let load w (buf : Estcore.Evalbuf.t) =
  for i = 0 to Array.length w.cols - 1 do
    let j = Array.unsafe_get w.hits i in
    if j >= 0 then begin
      Float.Array.set buf.Estcore.Evalbuf.vals i
        (Float.Array.get (Array.unsafe_get w.cols i).vals j);
      Bytes.set buf.Estcore.Evalbuf.present i '\001'
    end
    else begin
      Float.Array.set buf.Estcore.Evalbuf.vals i 0.;
      Bytes.set buf.Estcore.Evalbuf.present i '\000'
    end
  done
