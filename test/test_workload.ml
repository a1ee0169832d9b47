open Rsj_relation
module Zipf_tables = Rsj_workload.Zipf_tables
module Frequency = Rsj_stats.Frequency

let test_table_shape () =
  let t = Zipf_tables.make ~seed:1 ~name:"t" ~rows:500 ~z:1. ~domain:50 () in
  Alcotest.(check int) "rows" 500 (Relation.cardinality t);
  Alcotest.(check bool) "schema" true (Schema.columns (Relation.schema t) = Schema.columns Zipf_tables.schema);
  Relation.iter t (fun row ->
      let rid = Value.to_int_exn (Tuple.get row Zipf_tables.col_rid) in
      let v = Value.to_int_exn (Tuple.get row Zipf_tables.col2) in
      Alcotest.(check bool) "rid in range" true (rid >= 1 && rid <= 500);
      Alcotest.(check bool) "col2 in domain" true (v >= 1 && v <= 50);
      match Tuple.get row (Schema.column_index Zipf_tables.schema "pad") with
      | Value.Str pad -> Alcotest.(check int) "pad is 32 bytes" 32 (String.length pad)
      | _ -> Alcotest.fail "pad is not a string")

let test_rids_unique () =
  let t = Zipf_tables.make ~seed:2 ~name:"t" ~rows:1000 ~z:0. ~domain:10 () in
  let seen = Hashtbl.create 1024 in
  Relation.iter t (fun row ->
      let rid = Value.to_int_exn (Tuple.get row Zipf_tables.col_rid) in
      Alcotest.(check bool) "unique rid" false (Hashtbl.mem seen rid);
      Hashtbl.replace seen rid ())

let test_skew_increases_with_z () =
  let max_freq z =
    let t = Zipf_tables.make ~seed:3 ~name:"t" ~rows:2000 ~z ~domain:100 () in
    Frequency.max_frequency (Frequency.of_relation t ~key:Zipf_tables.col2)
  in
  let f0 = max_freq 0. and f1 = max_freq 1. and f3 = max_freq 3. in
  Alcotest.(check bool) "z=1 more skewed than z=0" true (f1 > f0);
  Alcotest.(check bool) "z=3 more skewed than z=1" true (f3 > f1);
  Alcotest.(check bool) "z=3 dominated by top value" true (f3 > 1500)

let test_hot_values_aligned () =
  (* Rank order is shared: the most frequent value must be value 1 in
     every skewed table (the paper's alignment requirement). *)
  List.iter
    (fun seed ->
      let t = Zipf_tables.make ~seed ~name:"t" ~rows:3000 ~z:2. ~domain:50 () in
      let f = Frequency.of_relation t ~key:Zipf_tables.col2 in
      match Frequency.to_assoc f with
      | (v, _) :: _ -> Alcotest.(check int) "hottest value is 1" 1 (Value.to_int_exn v)
      | [] -> Alcotest.fail "empty table")
    [ 1; 2; 3 ]

let test_make_pair () =
  let p = Zipf_tables.make_pair ~seed:4 ~n1:100 ~n2:300 ~z1:0. ~z2:2. ~domain:20 () in
  Alcotest.(check int) "outer rows" 100 (Relation.cardinality p.outer);
  Alcotest.(check int) "inner rows" 300 (Relation.cardinality p.inner);
  Alcotest.(check bool) "join nonempty" true (Zipf_tables.join_size p > 0)

let test_pair_reproducible_and_decorrelated () =
  let p1 = Zipf_tables.make_pair ~seed:5 ~n1:50 ~n2:50 ~z1:1. ~z2:1. ~domain:10 () in
  let p2 = Zipf_tables.make_pair ~seed:5 ~n1:50 ~n2:50 ~z1:1. ~z2:1. ~domain:10 () in
  for i = 0 to Relation.cardinality p1.outer - 1 do
    Alcotest.(check bool) "reproducible" true
      (Tuple.equal (Relation.get p1.outer i) (Relation.get p2.outer i))
  done;
  (* outer and inner differ (different derived seeds) *)
  let same = ref true in
  for i = 0 to min 50 (Relation.cardinality p1.outer) - 1 do
    if not (Tuple.equal (Relation.get p1.outer i) (Relation.get p1.inner i)) then same := false
  done;
  Alcotest.(check bool) "outer and inner decorrelated" false !same

let test_generator_matches_zipf_pmf () =
  let t = Zipf_tables.make ~seed:6 ~name:"t" ~rows:20_000 ~z:1. ~domain:10 () in
  let f = Frequency.of_relation t ~key:Zipf_tables.col2 in
  let observed = Array.init 10 (fun i -> Frequency.frequency f (Value.Int (i + 1))) in
  (* Zipf(1) over 10 ranks: rank i has weight 1/i. *)
  let h = List.fold_left (fun acc i -> acc +. (1. /. float_of_int i)) 0. (List.init 10 succ) in
  let expected = Array.init 10 (fun i -> 20_000. /. float_of_int (i + 1) /. h) in
  let res = Rsj_util.Stats_math.chi_square_test ~expected ~observed in
  Alcotest.(check bool)
    (Printf.sprintf "zipf generator p=%.5f" res.p_value)
    true (res.p_value > 0.001)

let test_scale_defaults () =
  let knobs = [ "RSJ_N1"; "RSJ_N2"; "RSJ_DOMAIN"; "RSJ_SCALE"; "RSJ_SEED" ] in
  let saved = List.map (fun k -> (k, Option.value ~default:"" (Sys.getenv_opt k))) knobs in
  List.iter (fun k -> Unix.putenv k "") knobs;
  Fun.protect ~finally:(fun () -> List.iter (fun (k, v) -> Unix.putenv k v) saved) @@ fun () ->
  let s = Zipf_tables.Scale.from_env () in
  Alcotest.(check (list int)) "n1, n2, domain, seed" [ 3_000; 12_000; 600; 0x5EED ]
    [ s.n1; s.n2; s.domain; s.seed ]

let test_invalid_args () =
  Alcotest.(check bool) "rows 0" true
    (try
       ignore (Zipf_tables.make ~name:"t" ~rows:0 ~z:1. ~domain:5 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "neg z" true
    (try
       ignore (Zipf_tables.make ~name:"t" ~rows:5 ~z:(-1.) ~domain:5 ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "table shape per §8.1" `Quick test_table_shape;
    Alcotest.test_case "RIDs unique" `Quick test_rids_unique;
    Alcotest.test_case "skew grows with z" `Quick test_skew_increases_with_z;
    Alcotest.test_case "hot values aligned across tables" `Quick test_hot_values_aligned;
    Alcotest.test_case "pair construction" `Quick test_make_pair;
    Alcotest.test_case "pair reproducible, decorrelated" `Quick test_pair_reproducible_and_decorrelated;
    Alcotest.test_case "generator matches zipf pmf" `Slow test_generator_matches_zipf_pmf;
    Alcotest.test_case "scale config" `Quick test_scale_defaults;
    Alcotest.test_case "argument validation" `Quick test_invalid_args;
  ]
