open Rsj_relation
module Join_estimate = Rsj_stats.Join_estimate
module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Zipf_tables = Rsj_workload.Zipf_tables

let instance ~z1 ~z2 =
  let pair = Zipf_tables.make_pair ~seed:0x1E ~n1:1_500 ~n2:6_000 ~z1 ~z2 ~domain:150 () in
  let truth =
    Frequency.join_size
      (Frequency.of_relation pair.outer ~key:Zipf_tables.col2)
      (Frequency.of_relation pair.inner ~key:Zipf_tables.col2)
  in
  (pair, float_of_int truth)

let within_sigmas ~sigmas (est : Join_estimate.estimate) truth =
  Float.abs (est.value -. truth) <= (sigmas *. est.stderr) +. (0.02 *. truth)

let test_cross_product () =
  let pair, truth = instance ~z1:0. ~z2:1. in
  let rng = Rsj_util.Prng.create ~seed:1 () in
  let est =
    Join_estimate.cross_product rng ~left:pair.outer ~right:pair.inner
      ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ~r1:800 ~r2:800
  in
  Alcotest.(check int) "draw accounting" 1_600 est.draws;
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f ± %.0f vs truth %.0f" est.value est.stderr truth)
    true
    (within_sigmas ~sigmas:4. est truth)

let test_index_assisted () =
  let pair, truth = instance ~z1:1. ~z2:2. in
  let idx = Rsj_index.Hash_index.build pair.inner ~key:Zipf_tables.col2 in
  let rng = Rsj_util.Prng.create ~seed:2 () in
  let est =
    Join_estimate.index_assisted rng ~left:pair.outer ~right_index:idx
      ~left_key:Zipf_tables.col2 ~draws:1_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f ± %.0f vs truth %.0f" est.value est.stderr truth)
    true
    (within_sigmas ~sigmas:4. est truth)

let test_bifocal () =
  let pair, truth = instance ~z1:1. ~z2:2. in
  let stats = Frequency.of_relation pair.inner ~key:Zipf_tables.col2 in
  let histogram = Histogram.End_biased.build_fraction stats ~fraction:0.02 in
  let rng = Rsj_util.Prng.create ~seed:3 () in
  let est =
    Join_estimate.bifocal rng ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ~histogram ~draws:1_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f ± %.0f vs truth %.0f" est.value est.stderr truth)
    true
    (within_sigmas ~sigmas:4. est truth)

let test_bifocal_beats_index_assisted_variance_under_skew () =
  (* The hot values are counted exactly, so bifocal's stderr should be
     well below index-assisted's on skewed data at equal draws. *)
  let pair, _ = instance ~z1:2. ~z2:3. in
  let idx = Rsj_index.Hash_index.build pair.inner ~key:Zipf_tables.col2 in
  let stats = Frequency.of_relation pair.inner ~key:Zipf_tables.col2 in
  let histogram = Histogram.End_biased.build_fraction stats ~fraction:0.02 in
  let rng = Rsj_util.Prng.create ~seed:4 () in
  let ia =
    Join_estimate.index_assisted rng ~left:pair.outer ~right_index:idx
      ~left_key:Zipf_tables.col2 ~draws:400
  in
  let bf =
    Join_estimate.bifocal rng ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ~histogram ~draws:400
  in
  Alcotest.(check bool)
    (Printf.sprintf "bifocal stderr %.0f << index-assisted %.0f" bf.stderr ia.stderr)
    true
    (bf.stderr < ia.stderr /. 4.)

let test_empty_inputs () =
  let schema = Zipf_tables.schema in
  let empty = Relation.create ~name:"empty" schema in
  let nonempty =
    Relation.of_tuples ~name:"ne" schema [ [| Value.Int 1; Value.Int 1; Value.str "p" |] ]
  in
  let rng = Rsj_util.Prng.create () in
  let est =
    Join_estimate.cross_product rng ~left:empty ~right:nonempty ~left_key:1 ~right_key:1
      ~r1:10 ~r2:10
  in
  Alcotest.(check (float 0.)) "empty left" 0. est.value;
  let idx = Rsj_index.Hash_index.build nonempty ~key:1 in
  let est2 = Join_estimate.index_assisted rng ~left:empty ~right_index:idx ~left_key:1 ~draws:5 in
  Alcotest.(check (float 0.)) "empty left (index)" 0. est2.value;
  Alcotest.(check bool) "bad draws" true
    (try
       ignore (Join_estimate.index_assisted rng ~left:nonempty ~right_index:idx ~left_key:1 ~draws:0);
       false
     with Invalid_argument _ -> true)

let test_disjoint_join_estimates_zero () =
  let schema = Zipf_tables.schema in
  let mk name v =
    Relation.of_tuples ~name schema
      (List.init 50 (fun i -> [| Value.Int i; Value.Int v; Value.str "p" |]))
  in
  let rng = Rsj_util.Prng.create ~seed:5 () in
  let est =
    Join_estimate.cross_product rng ~left:(mk "a" 1) ~right:(mk "b" 2) ~left_key:1 ~right_key:1
      ~r1:50 ~r2:50
  in
  Alcotest.(check (float 0.)) "no matches" 0. est.value

let test_all_null_keys () =
  (* SQL semantics: NULL joins nothing, so a join over all-null keys
     is empty and every estimator must say 0 — not crash, not count
     null-null "matches". *)
  let schema = Zipf_tables.schema in
  let nulls name =
    Relation.of_tuples ~name schema
      (List.init 30 (fun i -> [| Value.Int i; Value.Null; Value.str "p" |]))
  in
  let left = nulls "ln" and right = nulls "rn" in
  let rng = Rsj_util.Prng.create ~seed:6 () in
  let est =
    Join_estimate.cross_product rng ~left ~right ~left_key:1 ~right_key:1 ~r1:40 ~r2:40
  in
  Alcotest.(check (float 0.)) "cross-product value" 0. est.value;
  Alcotest.(check (float 0.)) "cross-product stderr" 0. est.stderr;
  let idx = Rsj_index.Hash_index.build right ~key:1 in
  let est2 = Join_estimate.index_assisted rng ~left ~right_index:idx ~left_key:1 ~draws:40 in
  Alcotest.(check (float 0.)) "index-assisted value" 0. est2.value;
  let stats = Frequency.of_relation right ~key:1 in
  Alcotest.(check int) "null keys carry no statistics" 0 (Frequency.total stats);
  let histogram = Histogram.End_biased.build_fraction stats ~fraction:0.05 in
  let est3 =
    Join_estimate.bifocal rng ~left ~right ~left_key:1 ~right_key:1 ~histogram ~draws:40
  in
  Alcotest.(check (float 0.)) "bifocal value" 0. est3.value

let test_bifocal_zero_high_histogram () =
  (* Uniform data can leave the end-biased histogram tracking nothing
     (no value crosses the threshold). Bifocal then degenerates to
     pure cold-side sampling and must still converge on the truth. *)
  let pair, truth = instance ~z1:0. ~z2:0. in
  let stats = Frequency.of_relation pair.inner ~key:Zipf_tables.col2 in
  let histogram = Histogram.End_biased.build_fraction stats ~fraction:0.05 in
  Alcotest.(check int) "histogram tracks nothing" 0
    (Histogram.End_biased.tracked_count histogram);
  let rng = Rsj_util.Prng.create ~seed:7 () in
  let est =
    Join_estimate.bifocal rng ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ~histogram ~draws:1_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f ± %.0f vs truth %.0f" est.value est.stderr truth)
    true
    (within_sigmas ~sigmas:4. est truth)

let test_boxed_int_plane_agreement () =
  (* The estimators read keys through Tuple.attr and the index through
     Column.key; whether the keys are ints or dictionary-coded strings
     must not change a single bit of the estimate at equal seeds. *)
  let pair, _ = instance ~z1:1. ~z2:2. in
  let estimates (pair : Zipf_tables.pair) =
    let rng = Rsj_util.Prng.create ~seed:8 () in
    let idx = Rsj_index.Hash_index.build pair.inner ~key:Zipf_tables.col2 in
    let ia =
      Join_estimate.index_assisted rng ~left:pair.outer ~right_index:idx
        ~left_key:Zipf_tables.col2 ~draws:300
    in
    let cp =
      Join_estimate.cross_product rng ~left:pair.outer ~right:pair.inner
        ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ~r1:300 ~r2:300
    in
    (ia, cp)
  in
  let ia_int, cp_int = estimates pair in
  let ia_str, cp_str = estimates (Zipf_tables.string_keyed pair) in
  Alcotest.(check (float 0.)) "index-assisted value agrees" ia_str.value ia_int.value;
  Alcotest.(check (float 0.)) "index-assisted stderr agrees" ia_str.stderr ia_int.stderr;
  Alcotest.(check (float 0.)) "cross-product value agrees" cp_str.value cp_int.value;
  Alcotest.(check (float 0.)) "cross-product stderr agrees" cp_str.stderr cp_int.stderr

let suite =
  [
    Alcotest.test_case "cross-product estimator" `Quick test_cross_product;
    Alcotest.test_case "index-assisted estimator" `Quick test_index_assisted;
    Alcotest.test_case "bifocal estimator" `Quick test_bifocal;
    Alcotest.test_case "bifocal variance advantage under skew" `Quick
      test_bifocal_beats_index_assisted_variance_under_skew;
    Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
    Alcotest.test_case "disjoint join" `Quick test_disjoint_join_estimates_zero;
    Alcotest.test_case "all-null join keys" `Quick test_all_null_keys;
    Alcotest.test_case "zero-high-frequency histogram" `Quick test_bifocal_zero_high_histogram;
    Alcotest.test_case "boxed vs int-plane agreement" `Quick test_boxed_int_plane_agreement;
  ]
