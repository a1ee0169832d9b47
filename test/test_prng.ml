open Rsj_util

(* The generator's next 64-bit output, read from a copy: equal peeks
   mean the same state, without advancing either generator. *)
let peek t = Rsj_util.Prng.bits64 (Rsj_util.Prng.copy t)

let test_determinism () =
  let a = Prng.create ~seed:42 () in
  let b = Prng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 () in
  let b = Prng.create ~seed:2 () in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_detaches () =
  let a = Prng.create ~seed:7 () in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b);
  (* advancing one does not advance the other *)
  ignore (Prng.bits64 a);
  ignore (Prng.bits64 a);
  let fa = peek a and fb = peek b in
  Alcotest.(check bool) "states diverge" true (fa <> fb)

let test_split_independence () =
  let a = Prng.create ~seed:9 () in
  let child = Prng.split a in
  Alcotest.(check bool) "child has distinct state" true
    (peek a <> peek child)

let test_int_bounds () =
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_rejects_bad_bound () =
  let rng = Prng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_uniformity () =
  let rng = Prng.create ~seed:5 () in
  let k = 10 in
  let observed = Array.make k 0 in
  for _ = 1 to 100_000 do
    let v = Prng.int rng k in
    observed.(v) <- observed.(v) + 1
  done;
  let res = Stats_math.chi_square_uniform ~observed in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 p-value %.4f not tiny" res.p_value)
    true (res.p_value > 0.001)

let test_unit_float_range () =
  let rng = Prng.create ~seed:6 () in
  for _ = 1 to 10_000 do
    let u = Prng.unit_float rng in
    Alcotest.(check bool) "[0,1)" true (u >= 0. && u < 1.)
  done

let test_unit_float_pos () =
  let rng = Prng.create ~seed:8 () in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "(0,1)" true (Prng.unit_float_pos rng > 0.)
  done

let test_bernoulli_edges () =
  let rng = Prng.create ~seed:10 () in
  Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.);
  Alcotest.(check bool) "p<0 clamps" false (Prng.bernoulli rng (-1.));
  Alcotest.(check bool) "p>1 clamps" true (Prng.bernoulli rng 2.)

let test_bernoulli_mean () =
  let rng = Prng.create ~seed:11 () in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f close to 0.3" mean)
    true
    (Float.abs (mean -. 0.3) < 0.01)

let test_shuffle_permutes () =
  let rng = Prng.create ~seed:12 () in
  let a = Array.init 100 Fun.id in
  let b = Array.copy a in
  Prng.shuffle_in_place rng b;
  let sb = Array.copy b in
  Array.sort compare sb;
  Alcotest.(check (array int)) "same multiset" a sb;
  Alcotest.(check bool) "actually moved" true (b <> a)

let test_shuffle_uniform_positions () =
  (* Element 0's final position should be uniform. *)
  let rng = Prng.create ~seed:13 () in
  let k = 6 in
  let observed = Array.make k 0 in
  for _ = 1 to 60_000 do
    let a = Array.init k Fun.id in
    Prng.shuffle_in_place rng a;
    let pos = ref 0 in
    Array.iteri (fun i x -> if x = 0 then pos := i) a;
    observed.(!pos) <- observed.(!pos) + 1
  done;
  let res = Stats_math.chi_square_uniform ~observed in
  Alcotest.(check bool) "uniform positions" true (res.p_value > 0.001)

let test_pick () =
  let rng = Prng.create ~seed:14 () in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.pick rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick rng [||]))

let test_sample_distinct_properties () =
  let rng = Prng.create ~seed:15 () in
  for _ = 1 to 500 do
    let n = 1 + Prng.int rng 50 in
    let k = Prng.int rng (n + 1) in
    let s = Prng.sample_distinct rng ~k ~n in
    Alcotest.(check int) "size k" k (Array.length s);
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Alcotest.(check bool) "range" true (v >= 0 && v < n);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
        Hashtbl.replace seen v ())
      s
  done

let test_sample_distinct_full () =
  let rng = Prng.create ~seed:16 () in
  let s = Prng.sample_distinct rng ~k:10 ~n:10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k=n returns everything" (Array.init 10 Fun.id) sorted

let test_sample_distinct_uniform () =
  let rng = Prng.create ~seed:17 () in
  let observed = Array.make 5 0 in
  for _ = 1 to 50_000 do
    Array.iter (fun v -> observed.(v) <- observed.(v) + 1) (Prng.sample_distinct rng ~k:2 ~n:5)
  done;
  let res = Stats_math.chi_square_uniform ~observed in
  Alcotest.(check bool) "membership uniform" true (res.p_value > 0.001)

let test_sample_distinct_invalid () =
  let rng = Prng.create () in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Prng.sample_distinct: need 0 <= k <= n") (fun () ->
      ignore (Prng.sample_distinct rng ~k:5 ~n:3))

let suite =
  [
    Alcotest.test_case "determinism from seed" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy replays then detaches" `Quick test_copy_detaches;
    Alcotest.test_case "split yields distinct state" `Quick test_split_independence;
    Alcotest.test_case "int respects bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "int is uniform (chi-square)" `Slow test_int_uniformity;
    Alcotest.test_case "unit_float in [0,1)" `Quick test_unit_float_range;
    Alcotest.test_case "unit_float_pos never 0" `Quick test_unit_float_pos;
    Alcotest.test_case "bernoulli edge probabilities" `Quick test_bernoulli_edges;
    Alcotest.test_case "bernoulli empirical mean" `Slow test_bernoulli_mean;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutes;
    Alcotest.test_case "shuffle position uniformity" `Slow test_shuffle_uniform_positions;
    Alcotest.test_case "pick membership and empty" `Quick test_pick;
    Alcotest.test_case "sample_distinct invariants" `Quick test_sample_distinct_properties;
    Alcotest.test_case "sample_distinct k = n" `Quick test_sample_distinct_full;
    Alcotest.test_case "sample_distinct uniform membership" `Slow test_sample_distinct_uniform;
    Alcotest.test_case "sample_distinct rejects k > n" `Quick test_sample_distinct_invalid;
  ]
