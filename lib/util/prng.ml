(* xoshiro256** with splitmix64 seeding.

   xoshiro256** is the recommended general-purpose member of the
   xoshiro family (Blackman & Vigna, 2018); splitmix64 is the
   seeding/splitting function recommended by its authors because
   consecutive splitmix64 outputs are equidistributed and decorrelated
   from the xoshiro stream.

   The state is one 40-byte buffer: the four state words s0..s3
   little-endian at offsets 0, 8, 16, 24 and the last output word at
   32. Bytes.{get,set}_int64_le compile to plain loads and stores of
   unboxed words, so a step allocates nothing, and neither does any
   draw that returns an int. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let splitmix64_next state =
  let z = Int64.add !state golden_gamma in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.make 40 '\000' in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  t

let of_seed64 seed =
  let st = ref seed in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  (* xoshiro must not start from the all-zero state; splitmix64 outputs
     are zero only for one specific input, so perturb defensively. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L golden_gamma 3L 7L
  else of_words s0 s1 s2 s3

let create ?(seed = 0x5EED) () = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

(* One xoshiro256** step; the output word lands at offset 32. *)
let step t =
  let s0 = Bytes.get_int64_le t 0 in
  let s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 in
  let s3 = Bytes.get_int64_le t 24 in
  let r5 = Int64.mul s1 5L in
  Bytes.set_int64_le t 32
    (Int64.mul (Int64.logor (Int64.shift_left r5 7) (Int64.shift_right_logical r5 57)) 9L);
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tt in
  let s3 = Int64.logor (Int64.shift_left s3 45) (Int64.shift_right_logical s3 19) in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3

let bits64 t =
  step t;
  Bytes.get_int64_le t 32

let split t = of_seed64 (bits64 t)

let split_n t n =
  if n < 0 then invalid_arg "Prng.split_n: n < 0";
  (* One splitmix64 stream seeded from the parent, one output word per
     child: consecutive splitmix64 outputs are equidistributed and
     decorrelated, so the children are mutually independent and the
     parent advances exactly once regardless of [n]. *)
  let st = ref (bits64 t) in
  Array.init n (fun _ -> of_seed64 (splitmix64_next st))

let mask62 = 0x3FFF_FFFF_FFFF_FFFFL
let max62 = Int64.to_int mask62

(* Rejection sampling on the top 62 bits avoids modulo bias while
   staying within OCaml's native int range. *)
let rec draw_int t bound =
  step t;
  let raw = Int64.to_int (Int64.logand (Bytes.get_int64_le t 32) mask62) in
  let v = raw mod bound in
  (* Reject draws from the final incomplete block. *)
  if raw - v > max62 - bound + 1 then draw_int t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound = 1 then 0 else draw_int t bound

let bits53 t =
  step t;
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le t 32) 11)

let unit_float t = float_of_int (bits53 t) *. 0x1.0p-53

let rec unit_float_pos t =
  let u = unit_float t in
  if u > 0. then u else unit_float_pos t

let float t bound = bound *. unit_float t

let bool t =
  step t;
  Int64.logand (Bytes.get_int64_le t 32) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float_of_int (bits53 t) *. 0x1.0p-53 < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let sample_distinct t ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample_distinct: need 0 <= k <= n";
  (* Floyd's algorithm: O(k) expected time, O(k) space. *)
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let idx = ref 0 in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    out.(!idx) <- v;
    incr idx
  done;
  shuffle_in_place t out;
  out
