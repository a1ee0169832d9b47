(* The Vose alias table, the one table repeated draws use:
   distribution equality against the CDF table on shared weights (the
   two must agree up to the chi-square), degenerate weight shapes,
   stream identity of draw_many against repeated draw, the packed
   kernel's allocation bound, and the shared one-pass weight
   validation. *)

open Rsj_util

let rng () = Prng.create ~seed:0xA11A5 ()

(* ---------- distribution ---------- *)

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
  Alcotest.(check int) "support" 5 (Dist.Alias_table.support t);
  Alcotest.(check (float 1e-12)) "prob 0" 0.1 (Dist.Alias_table.prob t 0);
  Alcotest.(check (float 1e-12)) "prob 3" 0. (Dist.Alias_table.prob t 3);
  Alcotest.(check (float 1e-12)) "prob 4" 0.5 (Dist.Alias_table.prob t 4);
  let n = 50_000 in
  let counts = Array.make 5 0 in
  for _ = 1 to n do
    let i = Dist.Alias_table.draw t r in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(3);
  let expected = Dist.Alias_table.expected_counts t ~n in
  Alcotest.(check (float 1e-9)) "expected_counts" (float_of_int n *. 0.5) expected.(4);
  Alcotest.(check bool) "alias draw matches weights" true
    (chi_square_ok ~prob:(Dist.Alias_table.prob t) ~observed:counts ~n)

(* Alias and CDF built from the same weights expose identical
   normalized probabilities. *)
let prop_alias_cdf_same_probs =
  QCheck.Test.make ~name:"alias and cdf tables agree on prob" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 10))
    (fun weights ->
      QCheck.assume (List.exists (fun w -> w > 0) weights);
      let w = Array.of_list (List.map float_of_int weights) in
      let a = Dist.Alias_table.of_weights w in
      let c = Dist.Cdf_table.of_weights w in
      let k = Array.length w in
      Dist.Alias_table.support a = k
      && Dist.Cdf_table.support c = k
      && Array.for_all
           (fun i -> Float.abs (Dist.Alias_table.prob a i -. Dist.Cdf_table.prob c i) < 1e-12)
           (Array.init k Fun.id))

(* And the alias draws actually follow that shared law (chi-square per
   random weight vector). *)
let prop_alias_draws_match_cdf_law =
  QCheck.Test.make ~name:"alias draws follow the cdf law (chi-square)" ~count:25
    QCheck.(pair small_nat (list_of_size (QCheck.Gen.int_range 2 20) (int_bound 10)))
    (fun (seed, weights) ->
      QCheck.assume (List.exists (fun w -> w > 0) weights);
      let w = Array.of_list (List.map float_of_int weights) in
      let a = Dist.Alias_table.of_weights w in
      let c = Dist.Cdf_table.of_weights w in
      let r = Prng.create ~seed:(abs seed + 1) () in
      let n = 4_000 in
      let counts = Array.make (Array.length w) 0 in
      for _ = 1 to n do
        let i = Dist.Alias_table.draw a r in
        counts.(i) <- counts.(i) + 1
      done;
      chi_square_ok ~prob:(Dist.Cdf_table.prob c) ~observed:counts ~n)

(* ---------- degenerate shapes ---------- *)

let test_single_element () =
  let r = rng () in
  let t = Dist.Alias_table.of_weights [| 42. |] in
  Alcotest.(check (float 1e-12)) "prob" 1. (Dist.Alias_table.prob t 0);
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
    (chi_square_ok ~prob:(Dist.Alias_table.prob t) ~observed:counts ~n)

let test_large_support () =
  let r = rng () in
  let k = 100_000 in
  (* One heavy cell in a sea of light ones: the build's large stack
     donates one cell's mass at a time across ~k small cells. *)
  let w = Array.make k 1. in
  w.(k / 2) <- float_of_int k;
  let t = Dist.Alias_table.of_weights w in
  let total = float_of_int ((k - 1) + k) in
  Alcotest.(check (float 1e-9)) "heavy prob" (float_of_int k /. total)
    (Dist.Alias_table.prob t (k / 2));
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

(* ---------- draw_many stream identity ---------- *)

let prop_draw_many_is_repeated_draw =
  QCheck.Test.make ~name:"Alias_int.draw_many = repeated draw (same seed)" ~count:200
    QCheck.(pair small_nat (list_of_size (QCheck.Gen.int_range 1 30) (int_bound 10)))
    (fun (seed, weights) ->
      QCheck.assume (List.exists (fun w -> w > 0) weights);
      let w = Array.of_list (List.map float_of_int weights) in
      let t = Alias_int.of_weights w in
      let n = 64 in
      let r1 = Prng.create ~seed:(abs seed + 1) () in
      let singles = Array.init n (fun _ -> Alias_int.draw t r1) in
      let r2 = Prng.create ~seed:(abs seed + 1) () in
      let batched = Array.make n 0 in
      Alias_int.draw_many t r2 ~into:batched ~n;
      singles = batched)

let test_alias_table_draw_many () =
  let t = Dist.Alias_table.of_weights [| 1.; 5.; 2.; 0.; 8. |] in
  let n = 64 in
  let r1 = Prng.create ~seed:7 () in
  let singles = Array.init n (fun _ -> Dist.Alias_table.draw t r1) in
  let r2 = Prng.create ~seed:7 () in
  let batched = Array.make n 0 in
  Dist.Alias_table.draw_many t r2 ~into:batched ~n;
  Alcotest.(check (array int)) "batched = singles" singles batched

(* ---------- allocation ---------- *)

let test_draw_many_allocation () =
  let weights = Array.init 1024 (fun i -> float_of_int (1 + (i mod 17))) in
  let t = Alias_int.of_weights weights in
  let r = rng () in
  let into = Array.make 10_000 0 in
  Alias_int.draw_many t r ~into ~n:10_000;
  let w0 = Gc.minor_words () in
  Alias_int.draw_many t r ~into ~n:10_000;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "10k draws allocate %.0f minor words (< 256)" words)
    true (words < 256.)

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
    (fun () -> ignore (Dist.Alias_table.of_weights [| 0.; 0. |]));
  Alcotest.(check (float 1e-12))
    "validate_weights returns the sum" 6.
    (Dist.validate_weights ~who:"t" [| 1.; 2.; 3. |])

let suite =
  [
    Alcotest.test_case "alias table matches weights (chi2)" `Slow test_alias_matches_weights;
    Alcotest.test_case "single-element table" `Quick test_single_element;
    Alcotest.test_case "near-equal weights" `Slow test_near_equal_weights;
    Alcotest.test_case "k=100k with one heavy cell" `Slow test_large_support;
    Alcotest.test_case "Alias_table draw_many = repeated draw" `Quick
      test_alias_table_draw_many;
    Alcotest.test_case "draw_many allocation bound" `Quick test_draw_many_allocation;
    Alcotest.test_case "shared weight validation" `Quick test_validation;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_alias_cdf_same_probs; prop_alias_draws_match_cdf_law; prop_draw_many_is_repeated_draw ]
