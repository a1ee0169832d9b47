open Rsj_relation

let v = Alcotest.testable Value.pp Value.equal

let test_equality () =
  Alcotest.(check v) "int eq" (Value.Int 3) (Value.int 3);
  Alcotest.(check bool) "int/float not equal" false (Value.equal (Value.Int 1) (Value.Float 1.));
  Alcotest.(check bool) "null equals null" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "null not equal to 0" false (Value.equal Value.Null (Value.Int 0));
  Alcotest.(check bool) "strings" true (Value.equal (Value.str "a") (Value.Str "a"))

let test_compare_total_order () =
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (Value.Int min_int) < 0);
  Alcotest.(check bool) "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "str order" true (Value.compare (Value.str "a") (Value.str "b") < 0);
  Alcotest.(check int) "reflexive" 0 (Value.compare (Value.Float 2.5) (Value.Float 2.5))

let test_compare_numeric_cross_kind () =
  Alcotest.(check int) "1 = 1.0 numerically" 0 (Value.compare (Value.Int 1) (Value.Float 1.));
  Alcotest.(check bool) "2 > 1.5" true (Value.compare (Value.Int 2) (Value.Float 1.5) > 0);
  Alcotest.(check bool) "1.5 < 2" true (Value.compare (Value.Float 1.5) (Value.Int 2) < 0)

let test_hash_consistent_with_equal () =
  let pairs = [ (Value.Int 42, Value.int 42); (Value.str "xy", Value.str "xy"); (Value.Null, Value.Null) ] in
  List.iter
    (fun (a, b) -> Alcotest.(check int) "equal implies same hash" (Value.hash a) (Value.hash b))
    pairs

(* The property the data plane's Vtbl consumers rely on, pinned over
   arbitrary values (including the min_int/max_int extremes the Int
   mixing multiply must survive): equal values hash equally, and the
   Int fast path stays non-negative. *)
let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map Value.int (oneof [ int; return min_int; return max_int; return 0 ]);
        map Value.float float;
        map Value.str (string_size (int_bound 8));
      ])

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal a b implies hash a = hash b" ~count:1000
    (QCheck.pair (QCheck.make value_gen) (QCheck.make value_gen))
    (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_int_hash_non_negative =
  QCheck.Test.make ~name:"int hash is non-negative" ~count:1000
    QCheck.(oneof [ int; make (Gen.return min_int); make (Gen.return max_int) ])
    (fun x -> Value.hash (Value.Int x) >= 0)

let test_conversions () =
  Alcotest.(check int) "to_int" 5 (Value.to_int_exn (Value.Int 5));
  Alcotest.(check (float 0.)) "int widens to float" 5. (Value.to_float_exn (Value.Int 5));
  Alcotest.(check (float 0.)) "float to float" 2.5 (Value.to_float_exn (Value.Float 2.5));
  Alcotest.(check bool) "to_int of str raises" true
    (try
       ignore (Value.to_int_exn (Value.str "x"));
       false
     with Invalid_argument _ -> true)

let test_conforms () =
  Alcotest.(check bool) "int conforms" true (Value.conforms (Value.Int 1) Value.T_int);
  Alcotest.(check bool) "null conforms to anything" true (Value.conforms Value.Null Value.T_str);
  Alcotest.(check bool) "str does not conform to int" false
    (Value.conforms (Value.str "x") Value.T_int)

let test_printing () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "int" "7" (Value.to_string (Value.Int 7));
  Alcotest.(check string) "string quoted" "\"a\"" (Value.to_string (Value.str "a"))

let test_ty_to_string () =
  Alcotest.(check (list string)) "type names" [ "int"; "float"; "string" ]
    (List.map Value.ty_to_string [ Value.T_int; Value.T_float; Value.T_str ])

let suite =
  [
    Alcotest.test_case "equality semantics" `Quick test_equality;
    Alcotest.test_case "total order" `Quick test_compare_total_order;
    Alcotest.test_case "numeric cross-kind comparison" `Quick test_compare_numeric_cross_kind;
    Alcotest.test_case "hash consistent with equal" `Quick test_hash_consistent_with_equal;
    QCheck_alcotest.to_alcotest prop_hash_consistent;
    QCheck_alcotest.to_alcotest prop_int_hash_non_negative;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "type conformance" `Quick test_conforms;
    Alcotest.test_case "printing" `Quick test_printing;
    Alcotest.test_case "type names" `Quick test_ty_to_string;
  ]
