(* Exact random variates. The binomial sampler is the inner loop of the
   paper's black boxes U1/WR1 (one draw per streamed tuple), so it is
   written for the regime that dominates there: tiny mean, where
   sequential inversion costs O(1 + np). Large means (exercised by tests
   and by U1 near the end of a stream with many samples outstanding) use
   mode-centered inversion whose expected cost is one standard
   deviation's worth of pmf evaluations. *)

let small_mean_threshold = 30.

(* Sequential inversion from k = 0 using the pmf recurrence
   pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p). Exact and allocation-free.
   Callers guarantee p <= 1/2 and np <= 30, so pmf0 = (1-p)^n >= 2^-60
   (1-p >= 2^-2p on [0, 1/2]) and never underflows.

   The deviate comes first: when np is small, u < pmf0 (k = 0) on all but
   about np of the calls, and u < B with B = 1 - r(p + e) - e, r = fl(n),
   e = 2^-50, evaluated in floats, proves it without the pow. pow draws
   nothing, so the stream and k are the full loop's. Proof that B < pmf0
   for all r >= 1, 0 < p <= 1/2 (only B > 0 matters, as u >= 0):
   - B > 0 forces b = fl(r fl(p + e)) < 1; b >= r(p + e)(1 - 2^-53)^2,
     so r(p + e) < 2 and b > rp + re - 2^-51;
   - fl(1 - b) and B lie in (0, 1], each rounded by <= 2^-54, so
     B < 1 - rp - re - e + 2^-51 + 2^-53;
   - q = fl(1 - p) >= 1 - p - 2^-54 (1 - p in [1/2, 1)); Bernoulli's
     inequality gives q^r >= 1 - r(p + 2^-54); pow errs by < 1 ulp
     <= 2^-52 q^r, so pmf0 > 1 - rp - r 2^-54 - 2^-52;
   - pmf0 - B > r(e - 2^-54) + 2^-53 > 0. *)
let binomial_inversion rng ~n ~p =
  let u = Prng.unit_float rng in
  if u < 1. -. (float_of_int n *. (p +. 0x1.0p-50)) -. 0x1.0p-50 then 0
  else begin
    let q = 1. -. p in
    let ratio = p /. q in
    let u = ref u in
    let pmf = ref (q ** float_of_int n) in
    let k = ref 0 in
    while !u >= !pmf && !k < n do
      u := !u -. !pmf;
      pmf := !pmf *. (float_of_int (n - !k) /. float_of_int (!k + 1)) *. ratio;
      incr k
    done;
    !k
  end

(* Mode-centered inversion: evaluate the pmf at the mode with log-gamma,
   then consume the uniform deviate by alternating outward steps. The
   probability mass within c standard deviations of the mode is
   1 - O(exp(-c^2/2)), so the expected number of steps is O(sigma). *)
let binomial_mode_centered rng ~n ~p =
  let mode =
    let m = int_of_float (float_of_int (n + 1) *. p) in
    if m > n then n else m
  in
  let log_pmf_mode = Stats_math.log_binomial_pmf ~n ~p mode in
  let pmf_mode = exp log_pmf_mode in
  let q = 1. -. p in
  let ratio = p /. q in
  let u = ref (Prng.unit_float rng) in
  (* Step factors: going up from k consumes pmf(k+1) = pmf(k)*up(k);
     going down consumes pmf(k-1) = pmf(k)*down(k). *)
  let up k pmf = pmf *. (float_of_int (n - k) /. float_of_int (k + 1)) *. ratio in
  let down k pmf = pmf *. (float_of_int k /. float_of_int (n - k + 1)) /. ratio in
  let lo = ref mode and hi = ref mode in
  let pmf_lo = ref pmf_mode and pmf_hi = ref pmf_mode in
  let result = ref (-1) in
  if !u < pmf_mode then result := mode else u := !u -. pmf_mode;
  while !result < 0 do
    let can_up = !hi < n and can_down = !lo > 0 in
    if (not can_up) && not can_down then
      (* Floating-point slack exhausted the deviate; return the mode. *)
      result := mode
    else begin
      if can_up then begin
        pmf_hi := up !hi !pmf_hi;
        incr hi;
        if !result < 0 && !u < !pmf_hi then result := !hi else u := !u -. !pmf_hi
      end;
      if !result < 0 && can_down then begin
        pmf_lo := down !lo !pmf_lo;
        decr lo;
        if !u < !pmf_lo then result := !lo else u := !u -. !pmf_lo
      end
    end
  done;
  !result

let rec binomial rng ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: n < 0";
  let p = if p < 0. then 0. else if p > 1. then 1. else p in
  if n = 0 || p = 0. then 0
  else if p = 1. then n
  else if p > 0.5 then n - binomial rng ~n ~p:(1. -. p)
  else if float_of_int n *. p <= small_mean_threshold then binomial_inversion rng ~n ~p
  else binomial_mode_centered rng ~n ~p

let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: need 0 < p <= 1";
  if p = 1. then 0
  else begin
    let u = Prng.unit_float_pos rng in
    int_of_float (Float.floor (log u /. log (1. -. p)))
  end

(* One validation pass shared by every weighted-draw entry point
   (Cdf_table, Alias_table): non-negative, non-NaN,
   positive sum. Returns the exact sum so builders never rescan. *)
let validate_weights ~who weights =
  let total = ref 0. in
  Array.iter
    (fun w ->
      if not (w >= 0.) then invalid_arg (who ^ ": negative weight");
      total := !total +. w)
    weights;
  if not (!total > 0.) then invalid_arg (who ^ ": weights must have positive sum");
  !total

module Cdf_table = struct
  type t = { cdf : float array }

  let of_weights weights =
    let k = Array.length weights in
    if k = 0 then invalid_arg "Dist.Cdf_table.of_weights: empty";
    let total = validate_weights ~who:"Dist.Cdf_table.of_weights" weights in
    let cdf = Array.make k 0. in
    let acc = ref 0. in
    for i = 0 to k - 1 do
      acc := !acc +. (weights.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(k - 1) <- 1.;
    { cdf }

  let draw t rng =
    let u = Prng.unit_float rng in
    (* Binary search for the first index with cdf >= u. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Array.unsafe_get t.cdf mid < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

(* Walker/Vose alias table over one flat array. A CDF table answers a
   categorical draw in O(log k) binary-search steps, each a
   data-dependent load into a k-sized float array; an alias table
   answers it with one uniform cell pick and one threshold compare —
   two loads, independent of k. Construction is the classic Vose
   pairing: scale weights to mean 1, then repeatedly move mass from an
   overfull cell onto an underfull one, recording the donor as the
   cell's alias. O(k) time, 2k words. *)
module Alias_table = struct
  type t = {
    data : float array;
        (* Interleaved cell pairs: [data.(2i)] is the keep threshold in
           [0, 1], [data.(2i+1)] the donor index encoded as a float
           (exact: indexes are far below 2^53). A draw reads both slots
           of one 16-byte pair — always a single cache line — where a
           threshold array and a donor array would cost two misses on
           tables past L2. *)
    cells : int;
  }

  let of_weights weights =
    let total = validate_weights ~who:"Dist.Alias_table.of_weights" weights in
    let k = Array.length weights in
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
    { data; cells = k }

  (* A uniform cell, then the threshold, compared in place. *)
  let draw t rng =
    let i = Prng.int rng t.cells in
    if float_of_int (Prng.bits53 rng) *. 0x1.0p-53 < Array.unsafe_get t.data (2 * i) then i
    else int_of_float (Array.unsafe_get t.data ((2 * i) + 1))
end

(* Zipf stays on Cdf_table: it is the *workload generator*, and its
   draw stream is pinned by every fixed-seed experiment and golden
   table. *)
module Zipf = struct
  type t = { z : float; table : Cdf_table.t }

  let create ~z ~support =
    if support <= 0 then invalid_arg "Dist.Zipf.create: support <= 0";
    if z < 0. then invalid_arg "Dist.Zipf.create: z < 0";
    let weights = Array.init support (fun i -> (1. /. float_of_int (i + 1)) ** z) in
    { z; table = Cdf_table.of_weights weights }

  let draw t rng = 1 + Cdf_table.draw t.table rng

  let z t = t.z
end
