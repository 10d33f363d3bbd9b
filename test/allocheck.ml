(* Allocation assertion helper for the flat-evaluator guarantee.

   [assert_no_alloc] measures the [Gc.minor_words] delta across many
   calls of a thunk and fails unless it is exactly zero. The guarantee
   is per *call*, so the thunk must not capture freshly allocated state;
   warm-up calls first let one-time lazy initialization (closure
   specialization, cache fills) happen outside the measured window.

   The measurement is meaningful only on the native compiler —
   bytecode boxes floats at every step — so under [Other]/[Bytecode]
   backends the check degrades to "the thunk runs without raising". *)

let is_native = Sys.backend_type = Sys.Native

let assert_no_alloc ?(runs = 50_000) ?(warmup = 100) name (f : unit -> unit) =
  for _ = 1 to warmup do
    f ()
  done;
  if not is_native then f ()
  else begin
    let before = Gc.minor_words () in
    for _ = 1 to runs do
      f ()
    done;
    let delta = Gc.minor_words () -. before in
    if delta <> 0. then
      Alcotest.failf "%s: allocated %.0f minor words over %d calls (%.2f/call)"
        name delta runs (delta /. float_of_int runs)
  end

(* Minor words one call of [f] allocates, averaged over [runs] calls
   after [warmup] ones. *)
let minor_words_per_call ?(runs = 20) ?(warmup = 3) f =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

(* Words one call of [f] allocates in both heaps — minor words plus
   words allocated directly in the major heap, promotions not counted
   twice — averaged over [runs] calls after [warmup] ones. The runtime
   adds a domain's allocations to [Gc.quick_stat]'s counts only at a
   minor collection: with [~settle:true] each reading forces one first,
   so the count is exact; without, a reading may miss the words
   allocated since the last collection, or take in words from before
   the window. *)
let words_per_call ?(runs = 20) ?(warmup = 3) ?(settle = false) f =
  for _ = 1 to warmup do
    f ()
  done;
  let total () =
    if settle then Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = total () in
  for _ = 1 to runs do
    f ()
  done;
  (total () -. before) /. float_of_int runs

(* [assert_same_alloc name cases]: every thunk allocates the same minor
   words per call — e.g. one walk over inputs of different sizes, which
   then allocates nothing per element. Native code only, like
   [assert_no_alloc]. *)
let assert_same_alloc name cases =
  if is_native then
    match List.map (fun (l, f) -> (l, minor_words_per_call f)) cases with
    | [] -> ()
    | (label0, w0) :: rest ->
        List.iter
          (fun (label, w) ->
            if w <> w0 then
              Alcotest.failf "%s: %.1f minor words per call at %s, %.1f at %s"
                name w0 label0 w label)
          rest
  else List.iter (fun (_, f) -> f ()) cases
