(* SplitMix64's finalizer, the same function as [Prng.SplitMix64.mix]
   (tested). It is spelled out here, and every step of the integer-key
   seed is [@inline], so that [uniform_int_into] runs on unboxed int64
   and float locals: a call into another module would box them. *)
let[@inline] mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let[@inline] combine a b =
  (* Boost-style combine lifted to 64 bits, then avalanched. *)
  mix64 (Int64.add (Int64.logxor a 0x9E3779B97F4A7C15L) (Int64.add (Int64.shift_left b 6) b))

let[@inline] hash_int ~salt k = mix64 (combine salt (Int64.of_int k))

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let hash_string ~salt s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  mix64 (combine salt !h)

let ulp53 = 1.110223024625156540e-16
let[@inline] to_unit h = Int64.to_float (Int64.shift_right_logical h 11) *. ulp53

let[@inline] to_unit_open h =
  let x = to_unit h in
  if x > 0. then x else to_unit (mix64 (Int64.add h 1L))

let[@inline] uniform_int ~salt h = to_unit_open (hash_int ~salt h)

let bucket_int ~salt k n =
  Int64.to_int
    (Int64.rem (Int64.shift_right_logical (hash_int ~salt k) 1) (Int64.of_int n))

let uniform_int_into ~salt h (dst : floatarray) di =
  Float.Array.set dst di (uniform_int ~salt h)

let uniform_string ~salt s = to_unit_open (hash_string ~salt s)

let salt_of_instance ~master i =
  mix64 (combine (Int64.of_int master) (Int64.of_int (0x1357 + i)))
