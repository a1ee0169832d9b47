open Rsj_relation
module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Join_size = Rsj_stats.Join_size

(* A frequency table holding exactly these (value, count) pairs, built
   the library's way: from a relation's key column. *)
let freq_of_assoc pairs =
  Rsj_stats.Frequency.of_relation ~key:0
    (Rsj_relation.Relation.of_tuples
       (Rsj_relation.Schema.of_list [ ("k", Rsj_relation.Value.T_int) ])
       (List.concat_map (fun (v, n) -> List.init n (fun _ -> [| v |])) pairs))

let schema = Schema.of_list [ ("k", Value.T_int) ]
let rel keys = Relation.of_tuples schema (List.map (fun k -> [| Value.Int k |]) keys)
let freq keys = Frequency.of_relation (rel keys) ~key:0

let test_frequency_basics () =
  let f = freq [ 1; 1; 2; 3; 3; 3 ] in
  Alcotest.(check int) "m(1)" 2 (Frequency.frequency f (Value.Int 1));
  Alcotest.(check int) "m(3)" 3 (Frequency.frequency f (Value.Int 3));
  Alcotest.(check int) "m(9)" 0 (Frequency.frequency f (Value.Int 9));
  Alcotest.(check int) "total" 6 (Frequency.total f);
  Alcotest.(check int) "distinct" 3 (Frequency.distinct_count f);
  Alcotest.(check int) "max" 3 (Frequency.max_frequency f)

let test_frequency_null_excluded () =
  let r =
    Relation.of_tuples schema [ [| Value.Int 1 |]; [| Value.Null |]; [| Value.Int 1 |] ]
  in
  let f = Frequency.of_relation r ~key:0 in
  Alcotest.(check int) "total skips null" 2 (Frequency.total f);
  Alcotest.(check int) "distinct" 1 (Frequency.distinct_count f)

(* Shards of the key view, counted on pooled workers and summed by
   key, give the sequential table, Nulls and uneven shards included. *)
let test_frequency_parallel_matches () =
  let rng = Rsj_util.Prng.create ~seed:8 () in
  let r =
    Relation.of_tuples schema
      (List.init 1_001 (fun i ->
           [| (if i mod 7 = 0 then Value.Null else Value.Int (Rsj_util.Prng.int rng 40)) |]))
  in
  let seq = Frequency.of_relation r ~key:0 in
  List.iter
    (fun domains ->
      let par = Frequency.of_relation_parallel ~domains r ~key:0 in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "same table at %d domains" domains)
        (List.map (fun (v, c) -> (Value.to_int_exn v, c)) (Frequency.to_assoc seq))
        (List.map (fun (v, c) -> (Value.to_int_exn v, c)) (Frequency.to_assoc par));
      Alcotest.(check int) "same total" (Frequency.total seq) (Frequency.total par);
      Alcotest.(check int) "same max" (Frequency.max_frequency seq) (Frequency.max_frequency par))
    [ 2; 3 ]

let test_frequency_to_assoc_sorted () =
  let f = freq [ 1; 2; 2; 3; 3; 3 ] in
  let assoc = Frequency.to_assoc f in
  Alcotest.(check (list int)) "descending frequency" [ 3; 2; 1 ]
    (List.map (fun (_, c) -> c) assoc)

let test_join_size () =
  (* m1 = {a:2, b:1}; m2 = {a:3, c:5} -> |J| = 2*3 = 6 *)
  let m1 = freq_of_assoc [ (Value.Int 1, 2); (Value.Int 2, 1) ] in
  let m2 = freq_of_assoc [ (Value.Int 1, 3); (Value.Int 3, 5) ] in
  Alcotest.(check int) "join size" 6 (Frequency.join_size m1 m2);
  Alcotest.(check int) "symmetric" 6 (Frequency.join_size m2 m1);
  Alcotest.(check int) "empty join" 0
    (Frequency.join_size m1 (freq_of_assoc [ (Value.Int 99, 1) ]))

let test_join_size_against_real_join () =
  (* Cross-check the formula against an actual nested-loop count. *)
  let rng = Rsj_util.Prng.create ~seed:6 () in
  let keys n = List.init n (fun _ -> Rsj_util.Prng.int rng 10) in
  let k1 = keys 200 and k2 = keys 300 in
  let brute =
    List.fold_left
      (fun acc a -> acc + List.length (List.filter (fun b -> a = b) k2))
      0 k1
  in
  Alcotest.(check int) "formula = brute force" brute
    (Frequency.join_size (freq k1) (freq k2))

let test_end_biased () =
  let f = freq [ 1; 1; 1; 1; 2; 2; 3 ] in
  let h = Histogram.End_biased.build f ~threshold:2 in
  Alcotest.(check bool) "1 is high" true (Histogram.End_biased.is_high h (Value.Int 1));
  Alcotest.(check bool) "2 is high" true (Histogram.End_biased.is_high h (Value.Int 2));
  Alcotest.(check bool) "3 is low" false (Histogram.End_biased.is_high h (Value.Int 3));
  Alcotest.(check bool) "unknown is low" false (Histogram.End_biased.is_high h (Value.Int 9));
  Alcotest.(check bool) "tracked freq exact" true
    (Histogram.End_biased.frequency h (Value.Int 1) = Some 4);
  Alcotest.(check bool) "untracked hidden" true
    (Histogram.End_biased.frequency h (Value.Int 3) = None);
  Alcotest.(check int) "tracked count" 2 (Histogram.End_biased.tracked_count h);
  Alcotest.(check int) "tracked mass" 6 (Histogram.End_biased.tracked_mass h)

let test_end_biased_fraction () =
  let f = freq (List.concat [ List.init 50 (fun _ -> 1); List.init 5 (fun _ -> 2) ]) in
  (* n = 55; fraction 0.5 -> threshold 28: only value 1 *)
  let h = Histogram.End_biased.build_fraction f ~fraction:0.5 in
  Alcotest.(check int) "only the head" 1 (Histogram.End_biased.tracked_count h);
  (* fraction 0 -> threshold 1: everything *)
  let h0 = Histogram.End_biased.build_fraction f ~fraction:0. in
  Alcotest.(check int) "everything" 2 (Histogram.End_biased.tracked_count h0);
  Alcotest.(check bool) "bad fraction" true
    (try
       ignore (Histogram.End_biased.build_fraction f ~fraction:1.5);
       false
     with Invalid_argument _ -> true)

let test_end_biased_planes_agree () =
  let f = freq [ 7; 7; 7; 3; 3; 3; 5; 5; 9; 1 ] in
  let h = Histogram.End_biased.build f ~threshold:2 in
  Alcotest.(check (list (pair int int)))
    "decreasing frequency, ties by value"
    [ (3, 3); (7, 3); (5, 2) ]
    (List.map (fun (v, c) -> (Value.to_int_exn v, c)) (Histogram.End_biased.high_values h));
  Alcotest.(check int) "threshold" 2 (Histogram.End_biased.threshold h);
  let plane = Histogram.End_biased.int_tracked h in
  List.iter
    (fun v ->
      let boxed = Option.value ~default:0 (Histogram.End_biased.frequency h (Value.Int v)) in
      Alcotest.(check int)
        (Printf.sprintf "int plane agrees on %d" v)
        boxed
        (Rsj_index.Int_index.Counter.get plane (Column.key (Value.Int v))))
    [ 1; 3; 5; 7; 9; 42 ];
  Alcotest.(check int) "int plane tracks the head only" 3 (Rsj_index.Int_index.Counter.cardinal plane);
  Alcotest.(check int) "tracked mass" 8 (Histogram.End_biased.tracked_mass h)

let test_theorem5_olken_iterations () =
  (* Uniform case: every value frequency m in both relations over d
     values: n = d m^2, M = m, n1 = d m, iterations = M n1 / n = 1. *)
  let m1 = freq_of_assoc (List.init 10 (fun i -> (Value.Int i, 5))) in
  let m2 = freq_of_assoc (List.init 10 (fun i -> (Value.Int i, 5))) in
  Alcotest.(check (float 1e-9)) "uniform case needs 1 iteration" 1.
    (Join_size.olken_expected_iterations ~m1 ~m2);
  (* Empty join: infinite. *)
  let m3 = freq_of_assoc [ (Value.Int 99, 1) ] in
  Alcotest.(check bool) "empty join infinite" true
    (Join_size.olken_expected_iterations ~m1 ~m2:m3 = infinity)

let test_theorem7_alpha_uniform_case () =
  (* No-skew corollary: alpha = r / (m d). *)
  let d = 20 and m = 10 and r = 50 in
  let m1 = freq_of_assoc (List.init d (fun i -> (Value.Int i, 3))) in
  let m2 = freq_of_assoc (List.init d (fun i -> (Value.Int i, m))) in
  (* General formula: r * sum(m1 m2^2) / (sum m1 m2)^2
     = r * (d * 3 * m^2) / (d * 3 * m)^2 = r / (3 d). *)
  let alpha = Join_size.alpha_group_sample ~m1 ~m2 ~r in
  let expected = float_of_int r /. float_of_int (3 * d) in
  Alcotest.(check (float 1e-9)) "thm 7 closed form" expected alpha;
  (* The paper's no-skew corollary (frequency m in BOTH relations over d
     common values): alpha = r / (m d); cross-check against the general
     formula with m1 = m2 = m. *)
  let mm = freq_of_assoc (List.init d (fun i -> (Value.Int i, m))) in
  Alcotest.(check (float 1e-9)) "corollary = general formula"
    (Join_size.alpha_group_sample ~m1:mm ~m2:mm ~r)
    (Join_size.alpha_group_sample_uniform ~m ~d ~r)

let test_theorem8_theorem9_alpha () =
  (* Two values: hi with m1=10, m2=100; lo with m1=5, m2=2.
     n = 1000 + 10 = 1010.
     Thm 8: (10 + r*100_000/1000)/1010 = (10 + 100r)/1010.
     Thm 9: (r + 10)/1010. *)
  let m1 = freq_of_assoc [ (Value.Int 1, 10); (Value.Int 2, 5) ] in
  let m2 = freq_of_assoc [ (Value.Int 1, 100); (Value.Int 2, 2) ] in
  let is_high v = Value.to_int_exn v = 1 in
  let r = 7 in
  Alcotest.(check (float 1e-9)) "thm 8"
    ((10. +. (100. *. 7.)) /. 1010.)
    (Join_size.alpha_frequency_partition ~m1 ~m2 ~is_high ~r);
  Alcotest.(check (float 1e-9)) "thm 9" ((7. +. 10.) /. 1010.)
    (Join_size.alpha_index_sample ~m1 ~m2 ~is_high ~r);
  (* All-low degenerates to naive fraction 1... for thm8 with no hi values:
     alpha = sum_lo / n = 1. *)
  Alcotest.(check (float 1e-9)) "no hi values -> naive" 1.
    (Join_size.alpha_frequency_partition ~m1 ~m2 ~is_high:(fun _ -> false) ~r)

(* The naive strategy materializes the whole join: its work is the
   join-size formula Σ m1(v)·m2(v), with values on one side only
   contributing nothing. *)
let test_naive_work_is_join_size () =
  let m1 = freq_of_assoc [ (Value.Int 1, 3); (Value.Int 2, 1); (Value.Int 9, 4) ] in
  let m2 = freq_of_assoc [ (Value.Int 1, 2); (Value.Int 2, 5); (Value.Int 7, 6) ] in
  Alcotest.(check int) "3*2 + 1*5" 11 (Join_size.naive_work ~m1 ~m2);
  Alcotest.(check int) "agrees with Frequency.join_size" (Frequency.join_size m1 m2)
    (Join_size.naive_work ~m1 ~m2);
  Alcotest.(check int) "symmetric" 11 (Join_size.naive_work ~m1:m2 ~m2:m1);
  Alcotest.(check int) "disjoint" 0
    (Join_size.naive_work ~m1 ~m2:(freq_of_assoc [ (Value.Int 100, 3) ]))

let suite =
  [
    Alcotest.test_case "frequency basics" `Quick test_frequency_basics;
    Alcotest.test_case "frequency excludes NULL" `Quick test_frequency_null_excluded;
    Alcotest.test_case "frequency parallel build" `Quick test_frequency_parallel_matches;
    Alcotest.test_case "frequency sorted assoc" `Quick test_frequency_to_assoc_sorted;
    Alcotest.test_case "join size formula" `Quick test_join_size;
    Alcotest.test_case "join size vs brute force" `Quick test_join_size_against_real_join;
    Alcotest.test_case "naive work = join size" `Quick test_naive_work_is_join_size;
    Alcotest.test_case "end-biased histogram" `Quick test_end_biased;
    Alcotest.test_case "end-biased fraction threshold" `Quick test_end_biased_fraction;
    Alcotest.test_case "end-biased boxed and int planes agree" `Quick test_end_biased_planes_agree;
    Alcotest.test_case "theorem 5: Olken iterations" `Quick test_theorem5_olken_iterations;
    Alcotest.test_case "theorem 7: alpha closed forms" `Quick test_theorem7_alpha_uniform_case;
    Alcotest.test_case "theorems 8 & 9: hybrid alphas" `Quick test_theorem8_theorem9_alpha;
  ]
