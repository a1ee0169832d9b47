(* The Vose alias table, the one table repeated draws use: draws
   against the weights' law (chi-square), degenerate weight shapes, the
   generator's stream identity against a reference xoshiro256** (words,
   split, split_n and the draws that read a word), the draw plane's
   zero-allocation pins (the generator's int draws, the
   alias draw, the WoR reservoir feed), and the shared one-pass weight
   validation. *)

open Rsj_util

let rng () = Prng.create ~seed:0xA11A5 ()

(* ---------- distribution ---------- *)

(* The law of a weight vector: index i with probability w.(i) / Σ w. *)
let normalized w =
  let total = Array.fold_left ( +. ) 0. w in
  fun i -> w.(i) /. total

(* Chi-square of observed counts against n * prob, with tiny expected
   cells merged into their left neighbour to keep the test valid. *)
let chi_square_ok ~prob ~observed ~n =
  let k = Array.length observed in
  let obs = ref [] and exp_ = ref [] in
  let acc_o = ref 0 and acc_e = ref 0. in
  for i = 0 to k - 1 do
    acc_o := !acc_o + observed.(i);
    acc_e := !acc_e +. (float_of_int n *. prob i);
    if !acc_e >= 10. then begin
      obs := !acc_o :: !obs;
      exp_ := !acc_e :: !exp_;
      acc_o := 0;
      acc_e := 0.
    end
  done;
  (if !acc_e > 0. then
     match (!obs, !exp_) with
     | o :: os, e :: es ->
         obs := (o + !acc_o) :: os;
         exp_ := (e +. !acc_e) :: es
     | [], [] ->
         obs := [ !acc_o ];
         exp_ := [ !acc_e ]
     | _ -> assert false);
  let observed = Array.of_list (List.rev !obs) in
  let expected = Array.of_list (List.rev !exp_) in
  if Array.length observed < 2 then true
  else (Stats_math.chi_square_test ~expected ~observed).Stats_math.p_value > 1e-4

let test_alias_matches_weights () =
  let r = rng () in
  let weights = [| 2.; 2.; 6.; 0.; 10. |] in
  let t = Dist.Alias_table.of_weights weights in
  let n = 50_000 in
  let counts = Array.make 5 0 in
  for _ = 1 to n do
    let i = Dist.Alias_table.draw t r in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(3);
  Alcotest.(check bool) "alias draw matches weights" true
    (chi_square_ok ~prob:(normalized weights) ~observed:counts ~n)

(* Alias draws follow the weights' law (chi-square per random weight
   vector). *)
let prop_alias_draws_match_law =
  QCheck.Test.make ~name:"alias draws follow the weights' law (chi-square)" ~count:25
    QCheck.(pair small_nat (list_of_size (QCheck.Gen.int_range 2 20) (int_bound 10)))
    (fun (seed, weights) ->
      QCheck.assume (List.exists (fun w -> w > 0) weights);
      let w = Array.of_list (List.map float_of_int weights) in
      let a = Dist.Alias_table.of_weights w in
      let r = Prng.create ~seed:(abs seed + 1) () in
      let n = 4_000 in
      let counts = Array.make (Array.length w) 0 in
      for _ = 1 to n do
        let i = Dist.Alias_table.draw a r in
        counts.(i) <- counts.(i) + 1
      done;
      chi_square_ok ~prob:(normalized w) ~observed:counts ~n)

(* ---------- degenerate shapes ---------- *)

let test_single_element () =
  let r = rng () in
  let t = Dist.Alias_table.of_weights [| 42. |] in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0" 0 (Dist.Alias_table.draw t r)
  done

let test_near_equal_weights () =
  let r = rng () in
  let k = 17 in
  (* Weights equal up to one ulp: the small/large worklists are driven
     entirely by float rounding, the classic stress for Vose pairing. *)
  let w = Array.init k (fun i -> if i mod 2 = 0 then 1. else 1. +. epsilon_float) in
  let t = Dist.Alias_table.of_weights w in
  let counts = Array.make k 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Dist.Alias_table.draw t r in
    Alcotest.(check bool) "in range" true (i >= 0 && i < k);
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "near-uniform" true
    (chi_square_ok ~prob:(normalized w) ~observed:counts ~n)

let test_large_support () =
  let r = rng () in
  let k = 100_000 in
  (* One heavy cell in a sea of light ones: the build's large stack
     donates one cell's mass at a time across ~k small cells. *)
  let w = Array.make k 1. in
  w.(k / 2) <- float_of_int k;
  let t = Dist.Alias_table.of_weights w in
  let heavy = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let i = Dist.Alias_table.draw t r in
    Alcotest.(check bool) "in range" true (i >= 0 && i < k);
    if i = k / 2 then incr heavy
  done;
  (* Binomial(n, 1/2): 5 sigma is 250. *)
  Alcotest.(check bool)
    (Printf.sprintf "heavy cell drawn ~n/2 (%d)" !heavy)
    true
    (abs (!heavy - (n / 2)) < 250)

(* ---------- stream identity ---------- *)

(* An independent xoshiro256** with splitmix64 seeding, written on
   plain Int64 values from the published algorithm. The in-place
   generator must replay it word for word: seeding, the output stream,
   split and split_n, and every draw that reads the output word. *)
module Ref = struct
  let splitmix64_next st =
    let z = Int64.add !st 0x9E3779B97F4A7C15L in
    st := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let of_seed64 seed =
    let st = ref seed in
    let s = Array.init 4 (fun _ -> splitmix64_next st) in
    if Array.for_all (fun w -> w = 0L) s then [| 1L; 0x9E3779B97F4A7C15L; 3L; 7L |] else s

  let create seed = of_seed64 (Int64.of_int seed)
  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next s =
    let result = Int64.mul (rotl (Int64.mul s.(1) 5L) 7) 9L in
    let t = Int64.shift_left s.(1) 17 in
    s.(2) <- Int64.logxor s.(2) s.(0);
    s.(3) <- Int64.logxor s.(3) s.(1);
    s.(1) <- Int64.logxor s.(1) s.(2);
    s.(0) <- Int64.logxor s.(0) s.(3);
    s.(2) <- Int64.logxor s.(2) t;
    s.(3) <- rotl s.(3) 45;
    result

  let split_n s n =
    let st = ref (next s) in
    Array.init n (fun _ -> of_seed64 (splitmix64_next st))

  let bits53 s = Int64.to_int (Int64.shift_right_logical (next s) 11)

  (* Uniform on [0, bound) by rejection on the top 62 bits. *)
  let rec int s bound =
    let mask62 = 0x3FFF_FFFF_FFFF_FFFFL in
    let raw = Int64.to_int (Int64.logand (next s) mask62) in
    let v = raw mod bound in
    if raw - v > Int64.to_int mask62 - bound + 1 then int s bound else v
end

let seeds = [ 0; 1; 42; 0x5EED; -1; max_int; min_int ]

let test_stream_matches_reference () =
  List.iter
    (fun seed ->
      let r = Prng.create ~seed () and s = Ref.create seed in
      for i = 1 to 1_000 do
        Alcotest.(check int64) (Printf.sprintf "seed %d word %d" seed i) (Ref.next s) (Prng.bits64 r)
      done)
    seeds

let test_split_matches_reference () =
  List.iter
    (fun seed ->
      let r = Prng.create ~seed () and s = Ref.create seed in
      let child = Prng.split r and ref_child = Ref.of_seed64 (Ref.next s) in
      let children = Prng.split_n r 5 and ref_children = Ref.split_n s 5 in
      let check_stream what g s =
        for i = 1 to 64 do
          Alcotest.(check int64) (Printf.sprintf "seed %d %s word %d" seed what i) (Ref.next s) (Prng.bits64 g)
        done
      in
      check_stream "split child" child ref_child;
      Array.iteri (fun k c -> check_stream (Printf.sprintf "split_n child %d" k) c ref_children.(k)) children;
      check_stream "parent after splits" r s)
    seeds

(* Any interleaving of int, bits53, unit_float and bool draws consumes
   the reference stream one word per draw (rejections aside) and reads
   the value the reference derives from that word. *)
let prop_draws_read_reference_word =
  QCheck.Test.make ~name:"int/bits53/unit_float/bool read the reference word" ~count:200
    QCheck.(pair int (list_of_size (QCheck.Gen.int_range 1 60) (pair (int_bound 3) (int_range 1 1_000_000))))
    (fun (seed, ops) ->
      let r = Prng.create ~seed () and s = Ref.create seed in
      List.for_all
        (fun (op, bound) ->
          match op with
          | 0 -> Prng.int r bound = (if bound = 1 then 0 else Ref.int s bound)
          | 1 -> Prng.bits53 r = Ref.bits53 s
          | 2 -> Prng.unit_float r = float_of_int (Ref.bits53 s) *. 0x1.0p-53
          | _ -> Prng.bool r = (Int64.logand (Ref.next s) 1L = 1L))
        ops
      && Prng.bits64 r = Ref.next s)

(* ---------- allocation ---------- *)

(* Minor words allocated by [n] calls of [f] after a warm-up, less the
   harness's own cost (the same loop around a no-op), so an
   allocation-free draw reads exactly 0. *)
let minor_words ?(n = 100_000) f =
  let measure f =
    for _ = 1 to 1_000 do
      f ()
    done;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let harness = measure ignore in
  measure f -. harness

let test_draws_allocate_nothing () =
  let r = rng () in
  let t = Dist.Alias_table.of_weights (Array.init 1024 (fun i -> float_of_int (1 + (i mod 17)))) in
  let wor = Rsj_core.Reservoir.Wor.create ~r:64 in
  let zero name f =
    let words = minor_words f in
    Alcotest.(check (float 0.)) (Printf.sprintf "%s: minor words per 10^5 calls" name) 0. words
  in
  zero "Prng.int" (fun () -> ignore (Prng.int r 1_000_003));
  zero "Prng.bits53" (fun () -> ignore (Prng.bits53 r));
  zero "Prng.bernoulli" (fun () -> ignore (Prng.bernoulli r 0.3));
  zero "Dist.Alias_table.draw" (fun () -> ignore (Dist.Alias_table.draw t r));
  zero "Reservoir.Wor.feed (int)" (fun () -> Rsj_core.Reservoir.Wor.feed r wor 7);
  (* The boxed float result is the only allocation left. *)
  let words = minor_words (fun () -> ignore (Prng.unit_float r)) in
  Alcotest.(check bool)
    (Printf.sprintf "Prng.unit_float: %.0f minor words per 10^5 calls (<= 2 per call)" words)
    true
    (words <= 2. *. 100_000.)

(* ---------- validation ---------- *)

let test_validation () =
  let check_raises_both msg f_cdf f_alias =
    Alcotest.check_raises ("cdf: " ^ msg)
      (Invalid_argument ("Dist.Cdf_table.of_weights: " ^ msg)) f_cdf;
    Alcotest.check_raises ("alias: " ^ msg)
      (Invalid_argument ("Dist.Alias_table.of_weights: " ^ msg)) f_alias
  in
  check_raises_both "negative weight"
    (fun () -> ignore (Dist.Cdf_table.of_weights [| 1.; -1. |]))
    (fun () -> ignore (Dist.Alias_table.of_weights [| 1.; -1. |]));
  check_raises_both "negative weight"
    (fun () -> ignore (Dist.Cdf_table.of_weights [| nan |]))
    (fun () -> ignore (Dist.Alias_table.of_weights [| nan |]));
  check_raises_both "weights must have positive sum"
    (fun () -> ignore (Dist.Cdf_table.of_weights [| 0.; 0. |]))
    (fun () -> ignore (Dist.Alias_table.of_weights [| 0.; 0. |]))

let suite =
  [
    Alcotest.test_case "alias table matches weights (chi2)" `Slow test_alias_matches_weights;
    Alcotest.test_case "single-element table" `Quick test_single_element;
    Alcotest.test_case "near-equal weights" `Slow test_near_equal_weights;
    Alcotest.test_case "k=100k with one heavy cell" `Slow test_large_support;
    Alcotest.test_case "generator stream = reference xoshiro256**" `Quick
      test_stream_matches_reference;
    Alcotest.test_case "split and split_n = reference derivation" `Quick
      test_split_matches_reference;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    Alcotest.test_case "shared weight validation" `Quick test_validation;
  ]
  @ [
      (* A fixed generator seed: 25 chi-square tests at p > 1e-4 under a
         fresh seed per run would fail about one run in 400 with a
         correct table. *)
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xA11A5 |])
        prop_alias_draws_match_law;
      QCheck_alcotest.to_alcotest prop_draws_read_reference_word;
    ]
