open Rsj_util

let feq = Alcotest.(check (float 1e-9))

(* log_binomial_pmf at p = 1/2 is ln C(n, k) + n ln 1/2, and ln C(n, k)
   is three log_gamma calls: Gamma(n) = (n-1)!. *)
let test_log_gamma_through_pmf () =
  let log_choose n k = Stats_math.log_binomial_pmf ~n ~p:0.5 k -. (float_of_int n *. log 0.5) in
  Alcotest.(check (float 1e-9)) "10 choose 3" (log 120.) (log_choose 10 3);
  Alcotest.(check (float 1e-9)) "20 choose 10" (log 184756.) (log_choose 20 10);
  Alcotest.(check (float 1e-9)) "60 choose 30" (log 118264581564861424.) (log_choose 60 30);
  feq "n choose 0" 0. (log_choose 7 0);
  feq "n choose n" 0. (log_choose 7 7);
  Alcotest.(check bool) "k>n impossible" true (Stats_math.log_binomial_pmf ~n:3 ~p:0.5 5 = neg_infinity);
  Alcotest.(check bool) "k<0 impossible" true (Stats_math.log_binomial_pmf ~n:3 ~p:0.5 (-1) = neg_infinity)

let test_binomial_pmf_sums_to_one () =
  let n = 20 and p = 0.3 in
  let total = ref 0. in
  for k = 0 to n do
    total := !total +. exp (Stats_math.log_binomial_pmf ~n ~p k)
  done;
  Alcotest.(check (float 1e-9)) "pmf sums to 1" 1. !total

let test_binomial_pmf_edges () =
  Alcotest.(check (float 1e-12)) "p=0, k=0" 0. (Stats_math.log_binomial_pmf ~n:5 ~p:0. 0);
  Alcotest.(check bool) "p=0, k=1" true (Stats_math.log_binomial_pmf ~n:5 ~p:0. 1 = neg_infinity);
  Alcotest.(check (float 1e-12)) "p=1, k=n" 0. (Stats_math.log_binomial_pmf ~n:5 ~p:1. 5)

(* The chi-square p-value is the regularized upper incomplete gamma
   Q(dof/2, X²/2). For even dof it has the closed form
   e^(-x/2) Σ_{i < dof/2} (x/2)^i / i!, which pins both of Q's
   branches: the series below a + 1 and the continued fraction above. *)
let test_chi_square_p_values () =
  let closed_form ~dof x =
    let h = x /. 2. in
    let rec sum i term acc = if i = dof / 2 then acc else sum (i + 1) (term *. h /. float_of_int (i + 1)) (acc +. term) in
    exp (-.h) *. sum 0 1. 0.
  in
  List.iter
    (fun (cells, dev) ->
      let expected = Array.make cells 50. in
      let observed = Array.init cells (fun i -> if i = 0 then 50 + dev else if i = 1 then 50 - dev else 50) in
      let res = Stats_math.chi_square_test ~expected ~observed in
      Alcotest.(check int) "dof" (cells - 1) res.dof;
      Alcotest.(check (float 1e-10)) "X²" (float_of_int (2 * dev * dev) /. 50.) res.statistic;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p at dof %d, X² %g" res.dof res.statistic)
        (closed_form ~dof:res.dof res.statistic) res.p_value)
    [ (3, 5); (3, 20); (5, 3); (5, 15); (7, 10); (11, 12); (13, 25); (13, 2) ]

let test_chi_square_test_perfect_fit () =
  let res =
    Stats_math.chi_square_test ~expected:[| 25.; 25.; 25.; 25. |] ~observed:[| 25; 25; 25; 25 |]
  in
  feq "statistic 0" 0. res.statistic;
  Alcotest.(check (float 1e-9)) "p-value 1" 1. res.p_value;
  Alcotest.(check int) "dof" 3 res.dof

let test_chi_square_test_extreme_misfit () =
  let res = Stats_math.chi_square_test ~expected:[| 50.; 50. |] ~observed:[| 100; 0 |] in
  Alcotest.(check bool) "p tiny" true (res.p_value < 1e-6)

let test_chi_square_test_zero_cells () =
  let res = Stats_math.chi_square_test ~expected:[| 50.; 0.; 50. |] ~observed:[| 48; 0; 52 |] in
  Alcotest.(check int) "zero cell dropped from dof" 1 res.dof;
  Alcotest.check_raises "observation in zero cell"
    (Invalid_argument "Stats_math.chi_square_test: observation in a zero-probability cell")
    (fun () ->
      ignore (Stats_math.chi_square_test ~expected:[| 50.; 0. |] ~observed:[| 49; 1 |]))

let test_chi_square_test_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats_math.chi_square_test: length mismatch") (fun () ->
      ignore (Stats_math.chi_square_test ~expected:[| 1. |] ~observed:[| 1; 2 |]))

let test_g_test_tracks_chi_square () =
  (* On moderate deviations the likelihood-ratio statistic is close to
     Pearson's; both accept uniform data and reject gross bias. *)
  let expected = Array.make 5 100. in
  let ok = Stats_math.g_test ~expected ~observed:[| 98; 103; 99; 101; 99 |] in
  Alcotest.(check bool) "uniform accepted" true (ok.Stats_math.p_value > 0.5);
  Alcotest.(check int) "dof" 4 ok.Stats_math.dof;
  let bad = Stats_math.g_test ~expected ~observed:[| 300; 50; 50; 50; 50 |] in
  Alcotest.(check bool) "bias rejected" true (bad.Stats_math.p_value < 1e-10);
  let chi = Stats_math.chi_square_test ~expected ~observed:[| 98; 103; 99; 101; 99 |] in
  Alcotest.(check bool) "G ~ Pearson on mild data" true
    (Float.abs (ok.Stats_math.statistic -. chi.Stats_math.statistic) < 0.05)

let test_normal_sf_known () =
  Alcotest.(check (float 1e-12)) "sf 0 = 1/2" 0.5 (Stats_math.normal_sf 0.);
  Alcotest.(check (float 1e-4)) "sf 1.96" 0.025 (Stats_math.normal_sf 1.96);
  Alcotest.(check (float 1e-4)) "sf -1.96" 0.975 (Stats_math.normal_sf (-1.96));
  Alcotest.(check (float 1e-9)) "complement" 1.
    (Stats_math.normal_sf 0.7 +. Stats_math.normal_sf (-0.7))

(* Classical table values of the Kolmogorov distribution, through
   ks_test: n = 100 evenly spread points against the uniform CDF
   shifted by s have D = s + 1/200, and Stephens' correction maps D to
   λ = (10 + 0.12 + 0.011)·D. *)
let test_kolmogorov_sf_known () =
  let p_at lambda =
    let s = (lambda /. 10.131) -. 0.005 in
    let samples = Array.init 100 (fun i -> (float_of_int i +. 0.5) /. 100.) in
    (Stats_math.ks_test ~cdf:(fun x -> Float.max 0. (x -. s)) ~samples).Stats_math.ks_p_value
  in
  Alcotest.(check (float 1e-3)) "Q(0.5)" 0.9639 (p_at 0.5);
  Alcotest.(check (float 1e-4)) "Q(1.0)" 0.2700 (p_at 1.0);
  Alcotest.(check (float 1e-4)) "Q(2.0)" 0.00067 (p_at 2.0)

let test_ks_test_behaviour () =
  (* An evenly spread sample against the uniform CDF passes; the same
     sample against a badly shifted CDF fails. *)
  let samples = Array.init 100 (fun i -> (float_of_int i +. 0.5) /. 100.) in
  let uniform = Stats_math.ks_test ~cdf:(fun x -> Float.max 0. (Float.min 1. x)) ~samples in
  Alcotest.(check bool) "uniform sample accepted" true (uniform.Stats_math.ks_p_value > 0.9);
  Alcotest.(check int) "n recorded" 100 uniform.Stats_math.n;
  let shifted = Stats_math.ks_test ~cdf:(fun x -> Float.max 0. (Float.min 1. (x ** 3.))) ~samples in
  Alcotest.(check bool) "shifted CDF rejected" true (shifted.Stats_math.ks_p_value < 1e-6);
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Stats_math.ks_test: no samples") (fun () ->
      ignore (Stats_math.ks_test ~cdf:Fun.id ~samples:[||]))

let test_descriptive_stats () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  feq "mean" 5. (Stats_math.mean a);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32. /. 7.)) (Stats_math.stddev a);
  Alcotest.(check bool) "mean of empty is nan" true (Float.is_nan (Stats_math.mean [||]));
  Alcotest.(check bool) "stddev of singleton is nan" true
    (Float.is_nan (Stats_math.stddev [| 1. |]))

let test_median_percentile () =
  feq "odd median" 3. (Stats_math.median [| 5.; 3.; 1. |]);
  feq "even median" 2.5 (Stats_math.median [| 4.; 1.; 2.; 3. |]);
  feq "even median interpolates" 1.5 (Stats_math.median [| 1.; 2. |]);
  Alcotest.(check bool) "median of empty is nan" true (Float.is_nan (Stats_math.median [||]))

let test_percentile_does_not_mutate () =
  let a = [| 3.; 1.; 2. |] in
  ignore (Stats_math.median a);
  Alcotest.(check (array (float 0.))) "unchanged" [| 3.; 1.; 2. |] a

(* At odd dof the p-value Q(dof/2, X²/2) starts from
   Q(1/2, y) = erfc(√y) and climbs by Q(a + 1, y) = Q(a, y) +
   y^a e^(-y) / Γ(a + 1): half-integer shapes, which the even-dof
   closed form above never reaches. *)
let test_chi_square_p_values_odd_dof () =
  let closed_form ~dof x =
    let y = x /. 2. in
    let rec climb a term acc =
      if a >= float_of_int dof /. 2. then acc
      else climb (a +. 1.) (term *. y /. (a +. 1.)) (acc +. term)
    in
    climb 0.5 (sqrt y *. exp (-.y) /. (sqrt Float.pi /. 2.)) (Float.erfc (sqrt y))
  in
  List.iter
    (fun (cells, dev) ->
      let expected = Array.make cells 50. in
      let observed = Array.init cells (fun i -> if i = 0 then 50 + dev else if i = 1 then 50 - dev else 50) in
      let res = Stats_math.chi_square_test ~expected ~observed in
      Alcotest.(check int) "dof" (cells - 1) res.dof;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p at dof %d, X² %g" res.dof res.statistic)
        (closed_form ~dof:res.dof res.statistic) res.p_value)
    [ (2, 5); (2, 10); (2, 15); (4, 4); (4, 20); (6, 12); (8, 3); (10, 18); (12, 30) ];
  (* chi2 with one dof is Z²: X² = 4 is two standard errors. *)
  let res = Stats_math.chi_square_test ~expected:[| 50.; 50. |] ~observed:[| 60; 40 |] in
  Alcotest.(check (float 1e-9)) "P(|Z| > 2)" 0.0455002638963584 res.p_value

let suite =
  [
    Alcotest.test_case "log_gamma through the binomial pmf" `Quick test_log_gamma_through_pmf;
    Alcotest.test_case "binomial pmf sums to 1" `Quick test_binomial_pmf_sums_to_one;
    Alcotest.test_case "binomial pmf edge p" `Quick test_binomial_pmf_edges;
    Alcotest.test_case "chi-square p-values: closed form at even dof" `Quick test_chi_square_p_values;
    Alcotest.test_case "chi-square p-values: closed form at odd dof" `Quick
      test_chi_square_p_values_odd_dof;
    Alcotest.test_case "chi-square perfect fit" `Quick test_chi_square_test_perfect_fit;
    Alcotest.test_case "chi-square extreme misfit" `Quick test_chi_square_test_extreme_misfit;
    Alcotest.test_case "chi-square zero-expectation cells" `Quick test_chi_square_test_zero_cells;
    Alcotest.test_case "chi-square length mismatch" `Quick test_chi_square_test_mismatch;
    Alcotest.test_case "G-test tracks Pearson" `Quick test_g_test_tracks_chi_square;
    Alcotest.test_case "normal survival function" `Quick test_normal_sf_known;
    Alcotest.test_case "Kolmogorov survival function" `Quick test_kolmogorov_sf_known;
    Alcotest.test_case "one-sample KS test" `Quick test_ks_test_behaviour;
    Alcotest.test_case "mean / stddev" `Quick test_descriptive_stats;
    Alcotest.test_case "median" `Quick test_median_percentile;
    Alcotest.test_case "median leaves input intact" `Quick test_percentile_does_not_mutate;
  ]
