open Rsj_util

let rng () = Prng.create ~seed:0xD157 ()

(* Exact chi-square check of Dist.binomial against the analytic pmf. *)
let check_binomial_distribution ~n ~p ~trials =
  let r = rng () in
  let observed = Array.make (n + 1) 0 in
  for _ = 1 to trials do
    let k = Dist.binomial r ~n ~p in
    Alcotest.(check bool) "in support" true (k >= 0 && k <= n);
    observed.(k) <- observed.(k) + 1
  done;
  (* Merge tail cells with tiny expectation to keep the test valid. *)
  let expected = Array.init (n + 1) (fun k -> float_of_int trials *. exp (Stats_math.log_binomial_pmf ~n ~p k)) in
  let obs = ref [] and exp_ = ref [] in
  let acc_o = ref 0 and acc_e = ref 0. in
  for k = 0 to n do
    acc_o := !acc_o + observed.(k);
    acc_e := !acc_e +. expected.(k);
    if !acc_e >= 10. then begin
      obs := !acc_o :: !obs;
      exp_ := !acc_e :: !exp_;
      acc_o := 0;
      acc_e := 0.
    end
  done;
  if !acc_e > 0. then begin
    match (!obs, !exp_) with
    | o :: os, e :: es ->
        obs := (o + !acc_o) :: os;
        exp_ := (e +. !acc_e) :: es
    | [], [] ->
        obs := [ !acc_o ];
        exp_ := [ !acc_e ]
    | _ -> assert false
  end;
  let observed = Array.of_list (List.rev !obs) in
  let expected = Array.of_list (List.rev !exp_) in
  let res = Stats_math.chi_square_test ~expected ~observed in
  Alcotest.(check bool)
    (Printf.sprintf "binomial(%d,%.3f) chi2 p=%.5f" n p res.p_value)
    true (res.p_value > 0.001)

let test_binomial_edges () =
  let r = rng () in
  Alcotest.(check int) "n=0" 0 (Dist.binomial r ~n:0 ~p:0.5);
  Alcotest.(check int) "p=0" 0 (Dist.binomial r ~n:100 ~p:0.);
  Alcotest.(check int) "p=1" 100 (Dist.binomial r ~n:100 ~p:1.);
  Alcotest.(check int) "p clamped below" 0 (Dist.binomial r ~n:10 ~p:(-0.5));
  Alcotest.(check int) "p clamped above" 10 (Dist.binomial r ~n:10 ~p:1.5);
  Alcotest.check_raises "n < 0" (Invalid_argument "Dist.binomial: n < 0") (fun () ->
      ignore (Dist.binomial r ~n:(-1) ~p:0.5))

let test_binomial_small_mean () = check_binomial_distribution ~n:40 ~p:0.05 ~trials:40_000
let test_binomial_half () = check_binomial_distribution ~n:30 ~p:0.5 ~trials:40_000
let test_binomial_high_p () = check_binomial_distribution ~n:25 ~p:0.9 ~trials:40_000
let test_binomial_large_mean () = check_binomial_distribution ~n:5_000 ~p:0.4 ~trials:20_000

let test_binomial_mean_variance_large () =
  let r = rng () in
  let n = 100_000 and p = 0.37 in
  let trials = 5_000 in
  let xs = Array.init trials (fun _ -> float_of_int (Dist.binomial r ~n ~p)) in
  let mean = Stats_math.mean xs in
  let expected_mean = float_of_int n *. p in
  let sd = sqrt (float_of_int n *. p *. (1. -. p)) in
  (* Sample mean of `trials` draws has sd = sd/sqrt(trials). *)
  let tolerance = 5. *. sd /. sqrt (float_of_int trials) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f ~ %.1f" mean expected_mean)
    true
    (Float.abs (mean -. expected_mean) < tolerance);
  let var = Stats_math.stddev xs ** 2. in
  Alcotest.(check bool)
    (Printf.sprintf "variance %.1f ~ %.1f" var (sd *. sd))
    true
    (Float.abs (var -. (sd *. sd)) < 0.1 *. sd *. sd)

let test_geometric () =
  let r = rng () in
  Alcotest.(check int) "p=1 is 0" 0 (Dist.geometric r ~p:1.);
  let n = 50_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    let g = Dist.geometric r ~p:0.25 in
    Alcotest.(check bool) "non-negative" true (g >= 0);
    acc := !acc + g
  done;
  let mean = float_of_int !acc /. float_of_int n in
  (* E = (1-p)/p = 3 *)
  Alcotest.(check bool) (Printf.sprintf "mean %.3f ~ 3" mean) true (Float.abs (mean -. 3.) < 0.1);
  Alcotest.check_raises "p=0 invalid" (Invalid_argument "Dist.geometric: need 0 < p <= 1")
    (fun () -> ignore (Dist.geometric r ~p:0.))

let test_cdf_table () =
  let r = rng () in
  let t = Dist.Cdf_table.of_weights [| 2.; 2.; 6. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 50_000 do
    let i = Dist.Cdf_table.draw t r in
    counts.(i) <- counts.(i) + 1
  done;
  let expected = [| 10_000.; 10_000.; 30_000. |] in
  let res = Stats_math.chi_square_test ~expected ~observed:counts in
  Alcotest.(check bool) "cdf draw matches weights" true (res.p_value > 0.001)

let test_zipf_z0_uniform () =
  let r = rng () in
  let z = Dist.Zipf.create ~z:0. ~support:8 in
  let observed = Array.make 8 0 in
  for _ = 1 to 40_000 do
    let v = Dist.Zipf.draw z r in
    Alcotest.(check bool) "rank in [1,8]" true (v >= 1 && v <= 8);
    observed.(v - 1) <- observed.(v - 1) + 1
  done;
  let res = Stats_math.chi_square_uniform ~observed in
  Alcotest.(check bool) "z=0 uniform" true (res.p_value > 0.001)

(* Higher z concentrates more of the draws on rank 1. *)
let test_zipf_skew_ordering () =
  let r = rng () in
  let rank1_share z =
    let t = Dist.Zipf.create ~z ~support:100 in
    let hits = ref 0 in
    for _ = 1 to 20_000 do
      if Dist.Zipf.draw t r = 1 then incr hits
    done;
    float_of_int !hits /. 20_000.
  in
  let shares = List.map rank1_share [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check bool) "rank 1's share grows with z" true
    (List.sort compare shares = shares && List.length (List.sort_uniq compare shares) = 4);
  Alcotest.(check bool) "z=3 rank1 > 0.8" true (List.nth shares 3 > 0.8)

(* Rank i of Zipf(z) over [support] ranks: i^-z / Σ_j j^-z. *)
let zipf_pmf ~z ~support rank =
  let w i = 1. /. (float_of_int i ** z) in
  w rank /. List.fold_left (fun acc i -> acc +. w i) 0. (List.init support (fun i -> i + 1))

let test_zipf_distribution () =
  let r = rng () in
  let z = Dist.Zipf.create ~z:2. ~support:10 in
  let n = 50_000 in
  let observed = Array.make 10 0 in
  for _ = 1 to n do
    let v = Dist.Zipf.draw z r in
    observed.(v - 1) <- observed.(v - 1) + 1
  done;
  let expected = Array.init 10 (fun i -> float_of_int n *. zipf_pmf ~z:2. ~support:10 (i + 1)) in
  (* Merge the tiny tail into one cell. *)
  let cut = 5 in
  let obs = Array.make (cut + 1) 0 and exp_ = Array.make (cut + 1) 0. in
  for i = 0 to 9 do
    let j = min i cut in
    obs.(j) <- obs.(j) + observed.(i);
    exp_.(j) <- exp_.(j) +. expected.(i)
  done;
  let res = Stats_math.chi_square_test ~expected:exp_ ~observed:obs in
  Alcotest.(check bool)
    (Printf.sprintf "zipf(2) chi2 p=%.5f" res.p_value)
    true (res.p_value > 0.001)

let test_zipf_invalid () =
  Alcotest.check_raises "support 0" (Invalid_argument "Dist.Zipf.create: support <= 0")
    (fun () -> ignore (Dist.Zipf.create ~z:1. ~support:0));
  Alcotest.check_raises "negative z" (Invalid_argument "Dist.Zipf.create: z < 0") (fun () ->
      ignore (Dist.Zipf.create ~z:(-1.) ~support:10))

(* ---------- the no-flip fast path against the earlier inversion ----------

   Dist.binomial's small-mean inversion and Wr_int.feed's inline copy
   of it draw the deviate first and return 0 at once when it lies below
   a bound proven to sit under (1-p)^r. Both copies changed together,
   so each is checked here against a test-local copy of the inversion
   as it was before: the pow first, then the draw, then the loop. *)

let reference_inversion rng ~n ~p =
  let q = 1. -. p in
  let ratio = p /. q in
  let pmf0 = q ** float_of_int n in
  if pmf0 = 0. then begin
    let count = ref 0 in
    for _ = 1 to n do
      if Prng.unit_float rng < p then incr count
    done;
    !count
  end
  else begin
    let u = ref (Prng.unit_float rng) and pmf = ref pmf0 and k = ref 0 in
    while !u >= !pmf && !k < n do
      u := !u -. !pmf;
      pmf := !pmf *. (float_of_int (n - !k) /. float_of_int (!k + 1)) *. ratio;
      incr k
    done;
    !k
  end

(* Dist.binomial's dispatch for 0 < p < 1 over the reference inversion;
   the mode-centered branch is unchanged, so it is Dist's own. *)
let rec reference_binomial rng ~n ~p =
  if p > 0.5 then n - reference_binomial rng ~n ~p:(1. -. p)
  else if float_of_int n *. p <= 30. then reference_inversion rng ~n ~p
  else Dist.binomial rng ~n ~p

let stream_tail rng = Array.init 8 (fun _ -> Prng.bits53 rng)
let fast_path_rs = [| 1; 2; 200; 10_000; 1_000_000 |]

(* The small-mean branch's upper limit on p. *)
let p_limit r = Float.min 0.5 (30. /. float_of_int r)

(* A p for reservoir size [r] and next deviate [u]. [aim] 0 spreads p
   log-uniformly over [2^-60, p_limit r] by [frac]; 1 puts the no-flip
   bound 1 - r(p + 2^-50) - 2^-50 at u; 2 puts (1-p)^r at u; 3 leaves
   the branch (p = 3/4 or r p = 40). [jitter] ulps of p move it across
   whichever edge was aimed at. *)
let aim_p ~r ~u ~aim ~frac ~jitter =
  let rf = float_of_int r in
  match aim with
  | 3 -> Float.min 0.75 (40. /. rf)
  | _ ->
      let p =
        match aim with
        | 0 -> 0x1p-60 *. ((p_limit r /. 0x1p-60) ** frac)
        | 1 -> ((1. -. u -. 0x1p-50) /. rf) -. 0x1p-50
        | _ -> -.Float.expm1 (log u /. rf)
      in
      let p = p *. (1. +. (float_of_int jitter *. epsilon_float)) in
      Float.max 0x1p-60 (Float.min (p_limit r) p)

let aim_gen =
  QCheck.Gen.(quad (int_bound 3) (float_bound_inclusive 1.) (int_range (-64) 64) (int_bound 1_000_000))

let prop_binomial_matches_reference =
  QCheck.Test.make ~name:"binomial: the no-flip fast path returns the reference draw" ~count:3000
    (QCheck.make
       ~print:(fun (ri, (aim, frac, jitter, seed)) ->
         Printf.sprintf "r=%d aim=%d frac=%g jitter=%d seed=%d" fast_path_rs.(ri) aim frac jitter seed)
       QCheck.Gen.(pair (int_bound 4) aim_gen))
    (fun (ri, (aim, frac, jitter, seed)) ->
      let r = fast_path_rs.(ri) in
      let rng = Prng.create ~seed () in
      let u = Prng.unit_float (Prng.copy rng) in
      let p = aim_p ~r ~u ~aim ~frac ~jitter in
      let mine = Prng.copy rng in
      let got = Dist.binomial mine ~n:r ~p and want = reference_binomial rng ~n:r ~p in
      (* The margin itself, in the floats the code evaluates. *)
      let bound = 1. -. (float_of_int r *. (p +. 0x1.0p-50)) -. 0x1.0p-50 in
      got = want
      && stream_tail mine = stream_tail rng
      && (p > p_limit r || bound < (1. -. p) ** float_of_int r))

(* Wr_int.feed against a reservoir fed through the reference binomial
   and Prng.sample_distinct (which Wr_int's Floyd loop replays draw for
   draw). Each weight is chosen after peeking at the next deviate, so
   the feeds land on both sides of the bound and of (1-p)^r. *)
let prop_wr_int_matches_reference =
  QCheck.Test.make ~name:"Wr_int.feed: the no-flip fast path leaves the reference slots" ~count:150
    (QCheck.make
       ~print:(fun (ri, seed, steps) ->
         Printf.sprintf "r=%d seed=%d steps=%d" fast_path_rs.(ri) seed (List.length steps))
       QCheck.Gen.(triple (int_bound 4) (int_bound 1_000_000) (list_size (int_range 1 24) aim_gen)))
    (fun (ri, seed, steps) ->
      let r = fast_path_rs.(ri) in
      let rng = Prng.create ~seed () and ref_rng = Prng.create ~seed () in
      let ker = Wr_int.create rng ~r in
      let slots = Array.make r 0 and total = ref 0. in
      let feed_both ~weight row =
        Wr_int.feed ker ~weight row;
        let first = !total = 0. in
        total := !total +. float_of_int weight;
        if first then Array.fill slots 0 r row
        else begin
          let flips = reference_binomial ref_rng ~n:r ~p:(float_of_int weight /. !total) in
          if flips > 0 then
            Array.iter (fun s -> slots.(s) <- row) (Prng.sample_distinct ref_rng ~k:flips ~n:r)
        end
      in
      feed_both ~weight:(1 lsl 30) 0;
      List.iteri
        (fun i (aim, frac, jitter, _) ->
          let aim = if aim = 3 && !total > 0x1p50 then 0 else aim in
          let u = Prng.unit_float (Prng.copy rng) in
          let p = aim_p ~r ~u ~aim ~frac ~jitter in
          let weight = max 1 (int_of_float (Float.round (p *. !total /. (1. -. p)))) in
          feed_both ~weight (i + 1))
        steps;
      Wr_int.contents ker = slots && stream_tail rng = stream_tail ref_rng)

let suite =
  [
    Alcotest.test_case "binomial edge cases" `Quick test_binomial_edges;
    Alcotest.test_case "binomial chi2: small mean" `Slow test_binomial_small_mean;
    Alcotest.test_case "binomial chi2: p=0.5" `Slow test_binomial_half;
    Alcotest.test_case "binomial chi2: high p" `Slow test_binomial_high_p;
    Alcotest.test_case "binomial chi2: large mean (mode-centered)" `Slow test_binomial_large_mean;
    Alcotest.test_case "binomial moments at n=100k" `Slow test_binomial_mean_variance_large;
    Alcotest.test_case "geometric mean and edges" `Slow test_geometric;
    Alcotest.test_case "cdf table draws" `Slow test_cdf_table;
    Alcotest.test_case "zipf z=0 is uniform" `Slow test_zipf_z0_uniform;
    Alcotest.test_case "zipf skew ordering in z" `Slow test_zipf_skew_ordering;
    Alcotest.test_case "zipf z=2 matches pmf" `Slow test_zipf_distribution;
    Alcotest.test_case "zipf rejects bad parameters" `Quick test_zipf_invalid;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~speed_level:`Quick)
      [ prop_binomial_matches_reference; prop_wr_int_matches_reference ]
