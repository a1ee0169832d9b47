open Rsj_relation

let s2 () = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_str) ]

let test_basics () =
  let s = s2 () in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index of a" 0 (Schema.column_index s "a");
  Alcotest.(check int) "index of b" 1 (Schema.column_index s "b");
  Alcotest.(check string) "name of 0" "a" (Schema.column_name s 0);
  Alcotest.(check (option int)) "index_opt of b" (Some 1) (Schema.column_index_opt s "b");
  Alcotest.(check (option int)) "index_opt of z" None (Schema.column_index_opt s "z");
  Alcotest.(check bool) "missing raises Not_found" true
    (try
       ignore (Schema.column_index s "z");
       false
     with Not_found -> true)

let test_duplicate_rejected () =
  Alcotest.(check bool) "dup rejected" true
    (try
       ignore (Schema.of_list [ ("a", Value.T_int); ("a", Value.T_str) ]);
       false
     with Invalid_argument _ -> true)

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Schema.create: empty column list") (fun () ->
      ignore (Schema.create []))

let test_concat_no_collision () =
  let a = Schema.of_list [ ("x", Value.T_int) ] in
  let b = Schema.of_list [ ("y", Value.T_int) ] in
  let c = Schema.concat a b in
  Alcotest.(check int) "arity" 2 (Schema.arity c);
  Alcotest.(check string) "x kept" "x" (Schema.column_name c 0);
  Alcotest.(check string) "y kept" "y" (Schema.column_name c 1)

let test_concat_collision_prefixes () =
  let a = Schema.of_list [ ("id", Value.T_int); ("x", Value.T_int) ] in
  let b = Schema.of_list [ ("id", Value.T_int); ("y", Value.T_int) ] in
  let c = Schema.concat a b in
  Alcotest.(check string) "left prefixed" "l.id" (Schema.column_name c 0);
  Alcotest.(check string) "non-colliding untouched" "x" (Schema.column_name c 1);
  Alcotest.(check string) "right prefixed" "r.id" (Schema.column_name c 2)

let test_project () =
  let s = s2 () in
  let p = Schema.project s [ 1 ] in
  Alcotest.(check int) "arity 1" 1 (Schema.arity p);
  Alcotest.(check string) "kept b" "b" (Schema.column_name p 0);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Schema.project s [ 5 ]);
       false
     with Invalid_argument _ -> true)

let test_validate () =
  let s = s2 () in
  Alcotest.(check bool) "good row" true
    (Result.is_ok (Schema.validate s [| Value.Int 1; Value.str "x" |]));
  Alcotest.(check bool) "null anywhere ok" true
    (Result.is_ok (Schema.validate s [| Value.Null; Value.Null |]));
  Alcotest.(check bool) "arity mismatch" true
    (Result.is_error (Schema.validate s [| Value.Int 1 |]));
  Alcotest.(check bool) "type mismatch" true
    (Result.is_error (Schema.validate s [| Value.str "no"; Value.str "x" |]))

let suite =
  [
    Alcotest.test_case "lookup basics" `Quick test_basics;
    Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "empty schema rejected" `Quick test_empty_rejected;
    Alcotest.test_case "concat without collisions" `Quick test_concat_no_collision;
    Alcotest.test_case "concat prefixes collisions" `Quick test_concat_collision_prefixes;
    Alcotest.test_case "project" `Quick test_project;
    Alcotest.test_case "validate" `Quick test_validate;
  ]
