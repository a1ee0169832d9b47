(* Walker/Vose alias table over flat arrays — the O(1) weighted-draw
   kernel under Dist.Alias_table.

   A CDF table answers a categorical draw in O(log k) binary-search
   steps, each a data-dependent load into a k-sized float array; an
   alias table answers it with one uniform cell pick and one threshold
   compare — two loads, independent of k. Construction is the classic
   Vose pairing: scale weights to mean 1, then repeatedly move mass
   from an overfull cell onto an underfull one, recording the donor as
   the cell's alias. O(k) time, 2k words.

   The batched [draw_many] mirrors Wr_int's inner-loop discipline: the
   xoshiro256** state is packed into a Bytes buffer for the whole
   batch (Prng.step_packed / Prng.rand_int_packed are the single copy
   of the packed stepping code), floats stay in compare position so
   nothing boxes, and the owner Prng.t is resynced once at the end.
   A batch of n draws allocates nothing beyond the 40-byte buffer. *)

type t = {
  k : int;
  data : float array;
      (* Interleaved cell pairs: [data.(2i)] is the keep threshold in
         [0, 1], [data.(2i+1)] the donor index encoded as a float
         (exact: indexes are far below 2^53). A draw reads both slots
         of one 16-byte pair — always a single cache line — where a
         threshold array and a donor array would cost two misses on
         tables past L2. *)
}

let of_weights ?total weights =
  let k = Array.length weights in
  if k = 0 then invalid_arg "Alias_int.of_weights: empty";
  let total =
    match total with
    | Some t -> t
    | None ->
        let s = ref 0. in
        Array.iter
          (fun w ->
            if not (w >= 0.) then invalid_arg "Alias_int.of_weights: negative weight";
            s := !s +. w)
          weights;
        !s
  in
  if not (total > 0.) then invalid_arg "Alias_int.of_weights: weights must have positive sum";
  let scale = float_of_int k /. total in
  let p = Array.map (fun w -> w *. scale) weights in
  let prob = Array.make k 1. in
  let alias = Array.init k Fun.id in
  (* Worklists as preallocated stacks: every index enters exactly once. *)
  let small = Array.make k 0 and large = Array.make k 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to k - 1 do
    if p.(i) < 1. then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    let s = small.(!ns) in
    let l = large.(!nl - 1) in
    prob.(s) <- p.(s);
    alias.(s) <- l;
    (* The donor keeps what the underfull cell did not need. *)
    p.(l) <- p.(l) -. (1. -. p.(s));
    if p.(l) < 1. then begin
      decr nl;
      small.(!ns) <- l;
      incr ns
    end
  done;
  (* Leftovers on either list hold exactly mass 1 up to rounding (the
     pairing conserves total mass k), so their threshold is 1. A true
     zero-weight cell can never be left over: its mass deficit would
     have to be carried by peers each strictly below 1, which cannot
     sum to the remaining cell count. *)
  while !nl > 0 do
    decr nl;
    prob.(large.(!nl)) <- 1.
  done;
  while !ns > 0 do
    decr ns;
    prob.(small.(!ns)) <- 1.
  done;
  let data = Array.make (2 * k) 0. in
  for i = 0 to k - 1 do
    data.(2 * i) <- prob.(i);
    data.((2 * i) + 1) <- float_of_int alias.(i)
  done;
  { k; data }

let support t = t.k

(* One draw via the owner Prng: a uniform cell, then the threshold.
   Mirrors one [draw_many] iteration draw for draw (Prng.int consumes
   nothing when k = 1, exactly like the packed kernel's skip). *)
let draw t rng =
  let i = Prng.int rng t.k in
  if Prng.unit_float rng < Array.unsafe_get t.data (2 * i) then i
  else int_of_float (Array.unsafe_get t.data ((2 * i) + 1))

(* One draw on a packed state, stream-identical to [draw]: a kernel
   that holds the state packed across many picks (the chain walker)
   never touches the boxed int64 fields. The unit-float extraction of
   Prng.unit_float is spelled out in compare position — returned from
   a call it would box (no flambda), costing two words per draw. *)
let draw_packed t st =
  let i = if t.k = 1 then 0 else Prng.rand_int_packed st t.k in
  Prng.step_packed st;
  if
    float_of_int (Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le st 32) 11))
    *. 0x1.0p-53
    < Array.unsafe_get t.data (2 * i)
  then i
  else int_of_float (Array.unsafe_get t.data ((2 * i) + 1))

let draw_many t rng ~into ~n =
  if n < 0 || n > Array.length into then invalid_arg "Alias_int.draw_many: bad n";
  if n > 0 then begin
    let st = Bytes.create 40 in
    Prng.dump_state rng st;
    for j = 0 to n - 1 do
      Array.unsafe_set into j (draw_packed t st)
    done;
    Prng.load_state rng st
  end
