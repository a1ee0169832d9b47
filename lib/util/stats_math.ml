(* Special functions (Lanczos log-gamma, incomplete gamma) and the
   Pearson chi-square machinery used throughout the test-suite to check
   that samplers realize the distributions the paper specifies. *)

let lanczos_g = 7.0

let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Stats_math.log_gamma: requires x > 0"
  else if x < 0.5 then
    (* Reflection formula keeps the Lanczos sum in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else if k = 0 || k = n then 0.
  else
    log_gamma (float_of_int (n + 1))
    -. log_gamma (float_of_int (k + 1))
    -. log_gamma (float_of_int (n - k + 1))

let log_binomial_pmf ~n ~p k =
  if k < 0 || k > n then neg_infinity
  else if p <= 0. then if k = 0 then 0. else neg_infinity
  else if p >= 1. then if k = n then 0. else neg_infinity
  else
    log_choose n k
    +. (float_of_int k *. log p)
    +. (float_of_int (n - k) *. log (1. -. p))

(* Regularized incomplete gamma: series expansion for x < a + 1, Lentz
   continued fraction otherwise (Numerical Recipes 6.2). *)

let gamma_p_series ~a ~x =
  let eps = 1e-15 in
  let max_iter = 10_000 in
  let ap = ref a in
  let sum = ref (1. /. a) in
  let del = ref !sum in
  let rec loop i =
    if i > max_iter then !sum
    else begin
      ap := !ap +. 1.;
      del := !del *. x /. !ap;
      sum := !sum +. !del;
      if Float.abs !del < Float.abs !sum *. eps then !sum else loop (i + 1)
    end
  in
  let s = loop 1 in
  s *. exp ((a *. log x) -. x -. log_gamma a)

let gamma_q_continued_fraction ~a ~x =
  let eps = 1e-15 in
  let fpmin = 1e-300 in
  let max_iter = 10_000 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. fpmin) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= max_iter do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.;
    d := (an *. !d) +. !b;
    if Float.abs !d < fpmin then d := fpmin;
    c := !b +. (an /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.) < eps then continue := false;
    incr i
  done;
  !h *. exp ((a *. log x) -. x -. log_gamma a)

let regularized_gamma_q ~a ~x =
  if a <= 0. then invalid_arg "Stats_math.regularized_gamma_q: a <= 0";
  if x < 0. then invalid_arg "Stats_math.regularized_gamma_q: x < 0";
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_p_series ~a ~x
  else gamma_q_continued_fraction ~a ~x

let chi_square_sf ~dof x =
  if dof <= 0 then invalid_arg "Stats_math.chi_square_sf: dof <= 0";
  if x <= 0. then 1. else regularized_gamma_q ~a:(float_of_int dof /. 2.) ~x:(x /. 2.)

type chi_square_result = { statistic : float; dof : int; p_value : float }

let chi_square_test ~expected ~observed =
  let k = Array.length expected in
  if Array.length observed <> k then
    invalid_arg "Stats_math.chi_square_test: length mismatch";
  let statistic = ref 0. in
  let live_cells = ref 0 in
  for i = 0 to k - 1 do
    let e = expected.(i) in
    let o = float_of_int observed.(i) in
    if e <= 0. then begin
      if observed.(i) <> 0 then
        invalid_arg "Stats_math.chi_square_test: observation in a zero-probability cell"
    end
    else begin
      incr live_cells;
      let d = o -. e in
      statistic := !statistic +. (d *. d /. e)
    end
  done;
  let dof = max 1 (!live_cells - 1) in
  { statistic = !statistic; dof; p_value = chi_square_sf ~dof !statistic }

let chi_square_uniform ~observed =
  let k = Array.length observed in
  if k = 0 then invalid_arg "Stats_math.chi_square_uniform: no cells";
  let total = Array.fold_left ( + ) 0 observed in
  let expected = Array.make k (float_of_int total /. float_of_int k) in
  chi_square_test ~expected ~observed

let g_test ~expected ~observed =
  let k = Array.length expected in
  if Array.length observed <> k then invalid_arg "Stats_math.g_test: length mismatch";
  let statistic = ref 0. in
  let live_cells = ref 0 in
  for i = 0 to k - 1 do
    let e = expected.(i) in
    let o = float_of_int observed.(i) in
    if e <= 0. then begin
      if observed.(i) <> 0 then
        invalid_arg "Stats_math.g_test: observation in a zero-probability cell"
    end
    else begin
      incr live_cells;
      if observed.(i) > 0 then statistic := !statistic +. (o *. log (o /. e))
    end
  done;
  let statistic = 2. *. !statistic in
  let dof = max 1 (!live_cells - 1) in
  (* G is asymptotically chi-square(dof) under H0, like Pearson's X². *)
  { statistic; dof; p_value = chi_square_sf ~dof (Float.max 0. statistic) }

let normal_sf x =
  (* Upper tail of N(0,1) via the incomplete gamma: erfc(y) = Q(1/2, y²). *)
  if x >= 0. then 0.5 *. regularized_gamma_q ~a:0.5 ~x:(x *. x /. 2.)
  else 1. -. (0.5 *. regularized_gamma_q ~a:0.5 ~x:(x *. x /. 2.))

let normal_quantile p =
  if not (p > 0. && p < 1.) then
    invalid_arg (Printf.sprintf "Stats_math.normal_quantile: p=%g outside (0,1)" p);
  (* normal_sf is strictly decreasing: bisect for normal_sf x = 1 - p.
     [-40, 40] covers every representable tail; 120 halvings take the
     bracket far below float precision. *)
  let target = 1. -. p in
  let lo = ref (-40.) and hi = ref 40. in
  for _ = 1 to 120 do
    let mid = 0.5 *. (!lo +. !hi) in
    if normal_sf mid > target then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let kolmogorov_sf lambda =
  (* Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²); the series converges
     in a handful of terms for λ of interest. *)
  if lambda <= 0. then 1.
  else begin
    let acc = ref 0. in
    let term = ref infinity in
    let j = ref 1 in
    while !j <= 100 && Float.abs !term > 1e-12 *. Float.abs !acc +. 1e-300 do
      let fj = float_of_int !j in
      term := (if !j mod 2 = 1 then 2. else -2.) *. exp (-2. *. fj *. fj *. lambda *. lambda);
      acc := !acc +. !term;
      incr j
    done;
    Float.min 1. (Float.max 0. !acc)
  end

type ks_result = { ks_statistic : float; n : int; ks_p_value : float }

let ks_test ~cdf ~samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats_math.ks_test: no samples";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let d = ref 0. in
  for i = 0 to n - 1 do
    let f = cdf sorted.(i) in
    if f < -1e-9 || f > 1. +. 1e-9 then invalid_arg "Stats_math.ks_test: cdf outside [0,1]";
    let lo = float_of_int i /. float_of_int n in
    let hi = float_of_int (i + 1) /. float_of_int n in
    d := Float.max !d (Float.max (Float.abs (hi -. f)) (Float.abs (f -. lo)))
  done;
  let sn = sqrt (float_of_int n) in
  (* Stephens' finite-n correction before the asymptotic tail. *)
  let lambda = (sn +. 0.12 +. (0.11 /. sn)) *. !d in
  { ks_statistic = !d; n; ks_p_value = kolmogorov_sf lambda }

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then nan
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a in
    acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else if q < 0. || q > 100. then invalid_arg "Stats_math.percentile: q outside [0,100]"
  else begin
    let sorted = Array.copy a in
    Array.sort compare sorted;
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let w = rank -. float_of_int lo in
      ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
    end
  end

let median a = percentile a 50.
