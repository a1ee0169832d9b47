open Rsj_relation
open Rsj_core
module Frequency = Rsj_stats.Frequency
module Zipf_tables = Rsj_workload.Zipf_tables

let test_example1_shape () =
  let r1, r2 = Negative.example1 ~k:10 in
  Alcotest.(check int) "|R1| = k+1" 11 (Relation.cardinality r1);
  Alcotest.(check int) "|R2| = k+1" 11 (Relation.cardinality r2);
  let m1 = Frequency.of_relation r1 ~key:0 in
  let m2 = Frequency.of_relation r2 ~key:0 in
  Alcotest.(check int) "m1(a1) = 1" 1 (Frequency.frequency m1 (Value.Int 1));
  Alcotest.(check int) "m1(a2) = k" 10 (Frequency.frequency m1 (Value.Int 2));
  Alcotest.(check int) "m2(a1) = k" 10 (Frequency.frequency m2 (Value.Int 1));
  Alcotest.(check int) "m2(a2) = 1" 1 (Frequency.frequency m2 (Value.Int 2));
  Alcotest.(check int) "|J| = 2k" 20 (Frequency.join_size m1 m2)

let test_example1_oblivious_sampling_fails () =
  (* Monte-Carlo demonstration of Theorem 10: at f1 = f2 = 5% the join
     of the samples is empty most of the time although |J| = 2k. *)
  let rng = Rsj_util.Prng.create ~seed:0xE1 () in
  let trials = 400 in
  let empty = ref 0 in
  for _ = 1 to trials do
    if Negative.oblivious_join_trial rng ~k:50 ~f1:0.05 ~f2:0.05 = 0 then incr empty
  done;
  let rate = float_of_int !empty /. float_of_int trials in
  let predicted = Negative.oblivious_join_empty_prob ~f1:0.05 ~f2:0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "empty rate %.3f ~ %.3f" rate predicted)
    true
    (Float.abs (rate -. predicted) < 0.06);
  Alcotest.(check bool) "mostly empty" true (rate > 0.8)

let test_example1_stream_sample_succeeds () =
  (* The same adversarial instance is easy for the non-oblivious
     strategies: Stream-Sample samples it uniformly. *)
  let r1, r2 = Negative.example1 ~k:8 in
  let env = Strategy.make_env ~left:r1 ~right:r2 ~left_key:0 ~right_key:0 () in
  let plan =
    Rsj_exec.Plan.Join
      {
        Rsj_exec.Plan.algorithm = Rsj_exec.Plan.Hash;
        left = Rsj_exec.Plan.Scan r1;
        right = Rsj_exec.Plan.Scan r2;
        left_key = 0;
        right_key = 0;
      }
  in
  let universe = Array.of_list (Rsj_exec.Plan.collect plan) in
  Alcotest.(check int) "universe 2k" 16 (Array.length universe);
  let report =
    Negative.uniformity_check ~trials:300 ~universe ~draw:(fun () ->
        (Strategy.run env Strategy.Stream ~r:8).sample)
  in
  Alcotest.(check bool)
    (Printf.sprintf "stream-sample handles example 1 (p=%.5f)" report.chi_square.p_value)
    true
    (report.chi_square.p_value > 0.001)

let test_thm11 () =
  (* Uniform case m1 = m2 = 10; low f regime: f <= 1/10. *)
  Alcotest.(check bool) "satisfies" true
    (Negative.thm11_feasible ~m1:10 ~m2:10 ~f:0.05 ~f1:0.5 ~f2:0.5);
  Alcotest.(check bool) "f1 too small" false
    (Negative.thm11_feasible ~m1:10 ~m2:10 ~f:0.05 ~f1:0.1 ~f2:0.5);
  (* High f regime: f >= 1/m' forces both halves. *)
  Alcotest.(check bool) "needs 1/2" false
    (Negative.thm11_feasible ~m1:2 ~m2:2 ~f:0.9 ~f1:0.4 ~f2:0.9);
  Alcotest.(check bool) "1/2 suffices for that clause" true
    (Negative.thm11_feasible ~m1:2 ~m2:2 ~f:0.9 ~f1:0.95 ~f2:0.95)

let test_thm12 () =
  Alcotest.(check bool) "feasible" true (Negative.thm12_feasible ~f:0.01 ~f1:0.1 ~f2:0.1);
  Alcotest.(check bool) "infeasible" false
    (Negative.thm12_feasible ~f:0.01 ~f1:0.05 ~f2:0.1);
  Alcotest.(check (float 1e-9)) "symmetric minimum" 0.1
    (Negative.min_symmetric_fraction ~f:0.01)

let test_uniformity_check_rejects_alien_tuples () =
  let universe = [| Array.map Value.int [| 1 |]; Array.map Value.int [| 2 |] |] in
  Alcotest.(check bool) "alien tuple detected" true
    (try
       ignore
         (Negative.uniformity_check ~trials:1 ~universe ~draw:(fun () ->
              [| Array.map Value.int [| 99 |] |]));
       false
     with Invalid_argument _ -> true)

let test_uniformity_check_detects_bias () =
  (* A deliberately biased sampler must fail the chi-square. *)
  let universe = Array.init 10 (fun i -> Array.map Value.int [| i |]) in
  let rng = Rsj_util.Prng.create ~seed:0xBAD () in
  let report =
    Negative.uniformity_check ~trials:300 ~universe ~draw:(fun () ->
        (* 90% of draws land on cell 0. *)
        Array.init 5 (fun _ ->
            if Rsj_util.Prng.bernoulli rng 0.9 then universe.(0)
            else universe.(Rsj_util.Prng.int rng 10)))
  in
  Alcotest.(check bool) "bias detected" true (report.chi_square.p_value < 1e-6)

let test_example1_invalid_k () =
  Alcotest.check_raises "k < 1" (Invalid_argument "Negative.example1: k < 1") (fun () ->
      ignore (Negative.example1 ~k:0))

let suite =
  [
    Alcotest.test_case "example 1 construction" `Quick test_example1_shape;
    Alcotest.test_case "theorem 10: oblivious sampling fails" `Slow
      test_example1_oblivious_sampling_fails;
    Alcotest.test_case "non-oblivious sampling handles example 1" `Slow
      test_example1_stream_sample_succeeds;
    Alcotest.test_case "theorem 11 bounds" `Quick test_thm11;
    Alcotest.test_case "theorem 12 bound" `Quick test_thm12;
    Alcotest.test_case "uniformity check rejects non-join tuples" `Quick
      test_uniformity_check_rejects_alien_tuples;
    Alcotest.test_case "uniformity check detects bias" `Quick test_uniformity_check_detects_bias;
    Alcotest.test_case "example 1 validates k" `Quick test_example1_invalid_k;
  ]
