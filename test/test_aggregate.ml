open Rsj_relation
module Aggregate = Rsj_exec.Aggregate
module Plan = Rsj_exec.Plan

let schema =
  Schema.of_list [ ("g", Value.T_int); ("x", Value.T_float); ("s", Value.T_str) ]

let rel rows =
  Relation.of_tuples ~name:"agg_src" schema
    (List.map (fun (g, x, s) -> [| g; x; s |]) rows)

let sample_rel () =
  rel
    [
      (Value.Int 1, Value.Float 10., Value.str "a");
      (Value.Int 1, Value.Float 20., Value.str "b");
      (Value.Int 2, Value.Float 5., Value.str "c");
      (Value.Int 2, Value.Null, Value.str "d");
      (Value.Int 1, Value.Float 30., Value.Null);
    ]

let run spec r = Plan.collect (Aggregate.plan spec (Plan.Scan r))

let find_group rows g =
  List.find (fun row -> Value.equal (Tuple.get row 0) (Value.Int g)) rows

let test_count_and_sum () =
  let spec =
    { Aggregate.group_by = [ 0 ]; aggregates = [ ("n", Aggregate.Count); ("sum_x", Aggregate.Sum 1) ] }
  in
  let rows = run spec (sample_rel ()) in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  let g1 = find_group rows 1 in
  Alcotest.(check int) "count g1" 3 (Value.to_int_exn (Tuple.get g1 1));
  Alcotest.(check (float 1e-9)) "sum g1" 60. (Value.to_float_exn (Tuple.get g1 2));
  let g2 = find_group rows 2 in
  Alcotest.(check int) "count g2 includes NULL row" 2 (Value.to_int_exn (Tuple.get g2 1));
  Alcotest.(check (float 1e-9)) "sum g2 skips NULL" 5. (Value.to_float_exn (Tuple.get g2 2))

let test_count_col_vs_count () =
  let spec =
    {
      Aggregate.group_by = [ 0 ];
      aggregates = [ ("all", Aggregate.Count); ("nonnull_s", Aggregate.Count_col 2) ];
    }
  in
  let rows = run spec (sample_rel ()) in
  let g1 = find_group rows 1 in
  Alcotest.(check int) "count(*) g1" 3 (Value.to_int_exn (Tuple.get g1 1));
  Alcotest.(check int) "count(s) g1 skips NULL" 2 (Value.to_int_exn (Tuple.get g1 2))

let test_avg_min_max () =
  let spec =
    {
      Aggregate.group_by = [ 0 ];
      aggregates =
        [ ("avg_x", Aggregate.Avg 1); ("min_x", Aggregate.Min 1); ("max_x", Aggregate.Max 1) ];
    }
  in
  let rows = run spec (sample_rel ()) in
  let g1 = find_group rows 1 in
  Alcotest.(check (float 1e-9)) "avg" 20. (Value.to_float_exn (Tuple.get g1 1));
  Alcotest.(check (float 0.)) "min" 10. (Value.to_float_exn (Tuple.get g1 2));
  Alcotest.(check (float 0.)) "max" 30. (Value.to_float_exn (Tuple.get g1 3))

let test_avg_all_null_is_null () =
  let r = rel [ (Value.Int 9, Value.Null, Value.Null) ] in
  let spec = { Aggregate.group_by = [ 0 ]; aggregates = [ ("avg_x", Aggregate.Avg 1) ] } in
  match run spec r with
  | [ row ] -> Alcotest.(check bool) "NULL avg" true (Value.is_null (Tuple.get row 1))
  | _ -> Alcotest.fail "one group expected"

let test_global_group () =
  let spec = { Aggregate.group_by = []; aggregates = [ ("n", Aggregate.Count) ] } in
  match run spec (sample_rel ()) with
  | [ row ] -> Alcotest.(check int) "global count" 5 (Value.to_int_exn (Tuple.get row 0))
  | _ -> Alcotest.fail "one global group expected"

let test_empty_input () =
  let spec = { Aggregate.group_by = [ 0 ]; aggregates = [ ("n", Aggregate.Count) ] } in
  Alcotest.(check int) "no groups on empty input" 0 (List.length (run spec (rel [])))

let test_output_schema () =
  let spec =
    { Aggregate.group_by = [ 0 ]; aggregates = [ ("n", Aggregate.Count); ("m", Aggregate.Min 1) ] }
  in
  let out = Plan.schema_of (Aggregate.plan spec (Plan.Scan (rel []))) in
  Alcotest.(check int) "arity" 3 (Schema.arity out);
  Alcotest.(check string) "group col name" "g" (Schema.column_name out 0);
  Alcotest.(check bool) "count is int" true (Schema.column_ty out 1 = Value.T_int);
  Alcotest.(check bool) "min keeps input type" true (Schema.column_ty out 2 = Value.T_float)

let test_column_validation () =
  let spec = { Aggregate.group_by = [ 99 ]; aggregates = [] } in
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Aggregate.plan spec (Plan.Scan (rel [])));
       false
     with Invalid_argument _ -> true)

let test_grouping_by_multiple_columns () =
  let r =
    rel
      [
        (Value.Int 1, Value.Float 1., Value.str "a");
        (Value.Int 1, Value.Float 1., Value.str "a");
        (Value.Int 1, Value.Float 1., Value.str "b");
      ]
  in
  let spec = { Aggregate.group_by = [ 0; 2 ]; aggregates = [ ("n", Aggregate.Count) ] } in
  Alcotest.(check int) "two (g,s) groups" 2 (List.length (run spec r))

let test_sql_clause_order () =
  (* SAMPLE before GROUP BY and after both parse. *)
  List.iter
    (fun q ->
      match Rsj_sql.Parser.parse q with
      | Ok ast ->
          Alcotest.(check bool) "has sample" true (ast.Rsj_sql.Ast.sample <> None);
          Alcotest.(check int) "has group" 1 (List.length ast.Rsj_sql.Ast.group_by)
      | Error e -> Alcotest.fail (q ^ ": " ^ e))
    [
      "select g, count(*) from t sample 10 group by g";
      "select g, count(*) from t group by g sample 10";
      "select g, count(*) from t limit 5 group by g sample 10";
    ];
  match Rsj_sql.Parser.parse "select * from t sample 1 sample 2" with
  | Ok _ -> Alcotest.fail "duplicate sample should fail"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "count and sum" `Quick test_count_and_sum;
    Alcotest.test_case "count(col) vs count" `Quick test_count_col_vs_count;
    Alcotest.test_case "avg/min/max" `Quick test_avg_min_max;
    Alcotest.test_case "avg of all NULLs" `Quick test_avg_all_null_is_null;
    Alcotest.test_case "global group" `Quick test_global_group;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "output schema" `Quick test_output_schema;
    Alcotest.test_case "column validation" `Quick test_column_validation;
    Alcotest.test_case "multi-column grouping" `Quick test_grouping_by_multiple_columns;
    Alcotest.test_case "SQL clause ordering" `Quick test_sql_clause_order;
  ]
