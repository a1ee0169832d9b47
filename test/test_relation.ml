open Rsj_relation

let schema = Schema.of_list [ ("id", Value.T_int); ("name", Value.T_str) ]
let row i name = [| Value.Int i; Value.str name |]

let sample () =
  Relation.of_tuples ~name:"people" schema [ row 1 "ann"; row 2 "bob"; row 3 "cat" ]

let test_build_and_read () =
  let r = sample () in
  Alcotest.(check int) "cardinality" 3 (Relation.cardinality r);
  Alcotest.(check string) "name" "people" (Relation.name r);
  Alcotest.(check bool) "get 0" true (Tuple.equal (Relation.get r 0) (row 1 "ann"));
  Alcotest.(check bool) "get 2" true (Tuple.equal (Relation.get r 2) (row 3 "cat"))

let test_get_bounds () =
  let r = sample () in
  let raises i =
    try
      ignore (Relation.get r i);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative" true (raises (-1));
  Alcotest.(check bool) "past end" true (raises 3)

let test_append_validates () =
  let r = Relation.create schema in
  Relation.append r (row 1 "x");
  Alcotest.(check bool) "bad arity rejected" true
    (try
       Relation.append r [| Value.Int 1 |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad type rejected" true
    (try
       Relation.append r [| Value.str "no"; Value.str "x" |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "failed appends don't grow" 1 (Relation.cardinality r)

let test_growth () =
  let r = Relation.create ~capacity:1 schema in
  for i = 1 to 1000 do
    Relation.append r (row i "n")
  done;
  Alcotest.(check int) "grew" 1000 (Relation.cardinality r);
  Alcotest.(check int) "spot check" 500 (Value.to_int_exn (Tuple.get (Relation.get r 499) 0))

let test_iteration () =
  let r = sample () in
  let ids = ref [] in
  Relation.iter r (fun t -> ids := Value.to_int_exn (Tuple.get t 0) :: !ids);
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !ids;
  let idx = ref [] in
  Relation.iteri r (fun i _ -> idx := i :: !idx);
  Alcotest.(check (list int)) "iteri indexes" [ 2; 1; 0 ] !idx;
  Alcotest.(check int) "fold count" 3 (Relation.fold r ~init:0 ~f:(fun acc _ -> acc + 1))

let test_to_stream_matches () =
  let r = sample () in
  let via_stream = Stream0.to_list (Relation.to_stream r) in
  Alcotest.(check int) "same length" 3 (List.length via_stream);
  List.iteri
    (fun i t -> Alcotest.(check bool) "same rows" true (Tuple.equal t (Relation.get r i)))
    via_stream

let test_random_row () =
  let r = sample () in
  let rng = Rsj_util.Prng.create ~seed:1 () in
  for _ = 1 to 50 do
    let t = Relation.random_row r rng in
    let id = Value.to_int_exn (Tuple.get t 0) in
    Alcotest.(check bool) "row of relation" true (id >= 1 && id <= 3)
  done;
  let empty = Relation.create schema in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Relation.random_row empty rng);
       false
     with Invalid_argument _ -> true)

let test_column_view () =
  (* Column.int_view is the data plane's replacement for the boxed
     Relation.column_values extraction (deprecated in hot paths). *)
  let r = sample () in
  Alcotest.(check (array int)) "ids" [| 1; 2; 3 |] (Column.int_view r ~col:0);
  Alcotest.(check bool) "string column decodes back" true
    (Array.map Column.value_of_key (Column.int_view r ~col:1)
    = [| Value.Str "ann"; Value.Str "bob"; Value.Str "cat" |])

let test_to_array_is_copy () =
  let r = sample () in
  let a = Relation.to_array r in
  a.(0) <- row 99 "zz";
  Alcotest.(check int) "relation untouched" 1 (Value.to_int_exn (Tuple.get (Relation.get r 0) 0))

let test_csv_roundtrip () =
  let r = sample () in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path r;
      let back = Csv_io.load ~path schema in
      Alcotest.(check int) "same cardinality" 3 (Relation.cardinality back);
      Relation.iteri back (fun i t ->
          Alcotest.(check bool) "same rows" true (Tuple.equal t (Relation.get r i))))

let test_csv_null_and_quoting () =
  let s = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_str) ] in
  let r =
    Relation.of_tuples s
      [
        [| Value.Null; Value.str "has,comma" |];
        [| Value.Int 2; Value.str "has\"quote" |];
        [| Value.Int 3; Value.Null |];
        [| Value.Int 4; Value.str "" |];
      ]
  in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path r;
      let back = Csv_io.load ~path s in
      Alcotest.(check int) "4 rows" 4 (Relation.cardinality back);
      Alcotest.(check bool) "null int survived" true (Value.is_null (Tuple.get (Relation.get back 0) 0));
      Alcotest.(check string) "comma survived" "has,comma"
        (Value.to_str_exn (Tuple.get (Relation.get back 0) 1));
      Alcotest.(check string) "quote survived" "has\"quote"
        (Value.to_str_exn (Tuple.get (Relation.get back 1) 1));
      Alcotest.(check bool) "null str survived" true (Value.is_null (Tuple.get (Relation.get back 2) 1));
      Alcotest.(check string) "empty string distinct from null" ""
        (Value.to_str_exn (Tuple.get (Relation.get back 3) 1)))

let test_csv_rejects_bad_header () =
  let r = sample () in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path r;
      let other = Schema.of_list [ ("x", Value.T_int); ("name", Value.T_str) ] in
      Alcotest.(check bool) "header mismatch fails" true
        (try
           ignore (Csv_io.load ~path other);
           false
         with Failure _ -> true))

let test_csv_parse_line () =
  Alcotest.(check (list string)) "plain" [ "a"; "b" ] (Csv_io.parse_line "a,b");
  Alcotest.(check (list string)) "quoted comma" [ "a,b"; "c" ] (Csv_io.parse_line "\"a,b\",c");
  Alcotest.(check (list string)) "escaped quote" [ "a\"b" ] (Csv_io.parse_line "\"a\"\"b\"")

(* The manual digit loop must agree with int_of_string_opt on every
   spelling — fast-path decimals, fallback shapes, and the overflow
   boundary. *)
let test_csv_parse_int () =
  let io = Alcotest.(option int) in
  let agree s = Alcotest.(check io) ("agrees on " ^ s) (int_of_string_opt s) (Csv_io.parse_int s) in
  List.iter agree
    [
      "0"; "7"; "-7"; "+5"; "007"; "-007"; "";
      "-"; "+"; "x"; "1x"; "-1x"; " 1"; "1 ";
      string_of_int max_int; string_of_int min_int;
      (* one past the boundary in each direction *)
      "4611686018427387904"; "-4611686018427387905";
      "99999999999999999999999999"; "-99999999999999999999999999";
      (* fallback-only spellings int_of_string accepts *)
      "1_000"; "0x10"; "0o17"; "0b101"; "-0x10";
    ];
  Alcotest.(check io) "negative" (Some (-123)) (Csv_io.parse_int "-123");
  Alcotest.(check io) "leading zeros" (Some 42) (Csv_io.parse_int "042");
  Alcotest.(check io) "explicit plus" (Some 5) (Csv_io.parse_int "+5");
  Alcotest.(check io) "min_int exact" (Some min_int) (Csv_io.parse_int (string_of_int min_int));
  Alcotest.(check io) "overflow is None" None (Csv_io.parse_int "4611686018427387904")

let test_csv_int_roundtrip_extremes () =
  let s = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_int) ] in
  let r =
    Relation.of_tuples s
      [
        [| Value.Int max_int; Value.Int 1 |];
        [| Value.Int min_int; Value.Int 2 |];
        [| Value.Int 0; Value.Int (-1) |];
        [| Value.Null; Value.Int 4 |];
        [| Value.Int 5; Value.Null |];
      ]
  in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path r;
      let back = Csv_io.load ~path s in
      Alcotest.(check int) "5 rows" 5 (Relation.cardinality back);
      Relation.iteri back (fun i t ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d survives" i)
            true
            (Tuple.equal t (Relation.get r i))))

let ids_rel n =
  Relation.of_tuples schema (List.init n (fun i -> row i (string_of_int i)))

let ids stream = List.map (fun t -> Value.to_int_exn (Tuple.get t 0)) (Stream0.to_list stream)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_stream_range_and_shards () =
  let r = ids_rel 10 in
  Alcotest.(check (list int)) "range" [ 3; 4; 5 ] (ids (Relation.stream_range r ~lo:3 ~hi:6));
  Alcotest.(check (list int)) "empty range" [] (ids (Relation.stream_range r ~lo:10 ~hi:10));
  Alcotest.(check bool) "lo > hi" true (raises_invalid (fun () -> Relation.stream_range r ~lo:4 ~hi:3));
  Alcotest.(check bool) "hi past end" true (raises_invalid (fun () -> Relation.stream_range r ~lo:0 ~hi:11));
  Alcotest.(check bool) "negative lo" true (raises_invalid (fun () -> Relation.stream_range r ~lo:(-1) ~hi:2));
  List.iter
    (fun n ->
      let parts = List.map ids (Array.to_list (Relation.shards r ~n)) in
      Alcotest.(check int) (Printf.sprintf "%d shards" n) n (List.length parts);
      Alcotest.(check (list int))
        (Printf.sprintf "%d shards cover every row once, in order" n)
        (List.init 10 Fun.id) (List.concat parts);
      let sizes = List.map List.length parts in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards near-equal" n)
        true
        (List.fold_left max 0 sizes - List.fold_left min max_int sizes <= 1))
    [ 1; 3; 4; 10; 13 ];
  Alcotest.(check bool) "n = 0" true (raises_invalid (fun () -> Relation.shards r ~n:0))

let test_chunk_count () =
  let r = ids_rel 10 in
  Alcotest.(check (list int)) "ceil(10 / size)" [ 10; 5; 4; 1; 1 ]
    (List.map (fun chunk_size -> Relation.chunk_count r ~chunk_size) [ 1; 2; 3; 10; 64 ]);
  Alcotest.(check int) "empty relation" 0 (Relation.chunk_count (Relation.create schema) ~chunk_size:4);
  Alcotest.(check bool) "chunk_size 0" true (raises_invalid (fun () -> Relation.chunk_count r ~chunk_size:0))

let test_rehydrate () =
  let a = ids_rel 3 and b = sample () in
  let out = Relation.rehydrate [| a; b |] [| 2; 0; 0; 1 |] in
  Alcotest.(check int) "two join positions" 2 (Array.length out);
  Alcotest.(check bool) "first" true (Tuple.equal out.(0) (Array.append (row 2 "2") (row 1 "ann")));
  Alcotest.(check bool) "second" true (Tuple.equal out.(1) (Array.append (row 0 "0") (row 2 "bob")));
  Alcotest.(check int) "no positions" 0 (Array.length (Relation.rehydrate [| a |] [||]));
  Alcotest.(check bool) "no relations" true (raises_invalid (fun () -> Relation.rehydrate [||] [| 0 |]));
  Alcotest.(check bool) "ragged ids" true (raises_invalid (fun () -> Relation.rehydrate [| a; b |] [| 0; 1; 2 |]));
  Alcotest.(check bool) "id out of range" true (raises_invalid (fun () -> Relation.rehydrate [| a; b |] [| 0; 3 |]))

let test_identity_and_version () =
  let r = sample () and r' = sample () in
  Alcotest.(check bool) "uids differ" true (Relation.uid r <> Relation.uid r');
  Alcotest.(check bool) "same contents, different fingerprints" true
    (Relation.fingerprint r <> Relation.fingerprint r');
  let v = Relation.version r and fp = Relation.fingerprint r in
  Alcotest.(check int) "reads do not bump" v (ignore (Relation.get r 0); Relation.version r);
  Relation.append r (row 4 "dan");
  Alcotest.(check int) "append bumps" (v + 1) (Relation.version r);
  Alcotest.(check bool) "fingerprint moves" true (Relation.fingerprint r <> fp);
  Alcotest.(check bool) "a rejected append does not bump" true
    (raises_invalid (fun () -> Relation.append r [| Value.Int 1 |]) && Relation.version r = v + 1);
  Relation.append_unchecked r (row 5 "eve");
  Alcotest.(check int) "append_unchecked bumps" (v + 2) (Relation.version r);
  Alcotest.(check int) "uid is stable" (Relation.uid r) (Relation.uid r)

let test_csv_escape_field () =
  Alcotest.(check string) "plain" "abc" (Csv_io.escape_field "abc");
  Alcotest.(check string) "empty" "" (Csv_io.escape_field "");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv_io.escape_field "a,b");
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\"" (Csv_io.escape_field "say \"hi\"");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv_io.escape_field "a\nb");
  Alcotest.(check string) "carriage return" "\"a\rb\"" (Csv_io.escape_field "a\rb");
  Alcotest.(check string) "spaces need no quotes" " a b " (Csv_io.escape_field " a b ")

(* parse_line inverts escape_field on any record whose fields hold no
   line break (records are line-oriented in this dialect). *)
let csv_fields_prop =
  QCheck.Test.make ~name:"csv parse_line inverts escape_field" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (string_gen_of_size (Gen.int_range 0 8) (Gen.oneofl [ 'a'; ','; '"'; ' '; 'z' ])))
    (fun fields ->
      Csv_io.parse_line (String.concat "," (List.map Csv_io.escape_field fields)) = fields)

let test_csv_rejects_bad_rows () =
  let s = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_float) ] in
  let fails_naming body want =
    let path = Filename.temp_file "rsj_test" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> output_string oc ("a,b\n" ^ body));
        match Csv_io.load ~path s with
        | _ -> Alcotest.failf "accepted %S" body
        | exception Failure msg ->
            let n = String.length want in
            let rec has i = i + n <= String.length msg && (String.sub msg i n = want || has (i + 1)) in
            Alcotest.(check bool) (Printf.sprintf "%S: %S names %S" body msg want) true (has 0))
  in
  fails_naming "1,2.5\n3\n" "line 3: 1 fields, expected 2";
  fails_naming "1,2,3\n" "line 2: 3 fields, expected 2";
  fails_naming "x,2.5\n" "line 2 column 0";
  fails_naming "1,2.5\n\n4,y\n" "line 4 column 1";
  fails_naming "1,\"2.5\n" "unterminated quote";
  let empty = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove empty)
    (fun () ->
      Alcotest.(check bool) "empty file" true
        (try
           ignore (Csv_io.load ~path:empty s);
           false
         with Failure _ -> true))

(* Column.key is the join identity of the data plane: two values get
   the same key exactly when Value.equal joins them, and value_of_key
   inverts it. *)
let column_key_prop =
  let value =
    QCheck.(
      oneof
        [
          map Value.int (int_range (-3) 3);
          map Value.int (oneofl [ min_int; min_int + 1; max_int ]);
          map Value.float (oneofl [ 0.; -0.; 1.; 2.5; Float.nan; Float.infinity ]);
          map Value.str (oneofl [ ""; "1"; "a"; "A" ]);
          always Value.Null;
        ])
  in
  QCheck.Test.make ~name:"Column.key agrees with Value.equal" ~count:500 (QCheck.pair value value)
    (fun (a, b) ->
      let ka = Column.key a and kb = Column.key b in
      (a = Value.Null || Value.equal (Column.value_of_key ka) a)
      && (a = Value.Null || b = Value.Null || (ka = kb) = Value.equal a b)
      && (a <> Value.Null || ka = Column.null_key))

let test_tuple_ops () =
  let t = Tuple.of_ints [ 1; 2; 3 ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  Alcotest.(check int) "attr" 2 (Value.to_int_exn (Tuple.attr t 1));
  let j = Tuple.join (Tuple.of_ints [ 1 ]) (Tuple.of_ints [ 2; 3 ]) in
  Alcotest.(check int) "join arity" 3 (Tuple.arity j);
  let p = Tuple.project t [ 2; 0 ] in
  Alcotest.(check int) "project reorders" 3 (Value.to_int_exn (Tuple.get p 0));
  Alcotest.(check bool) "equal" true (Tuple.equal t (Tuple.of_ints [ 1; 2; 3 ]));
  Alcotest.(check bool) "compare lexicographic" true
    (Tuple.compare (Tuple.of_ints [ 1; 2 ]) (Tuple.of_ints [ 1; 3 ]) < 0);
  Alcotest.(check bool) "prefix shorter is smaller" true
    (Tuple.compare (Tuple.of_ints [ 1 ]) (Tuple.of_ints [ 1; 0 ]) < 0);
  Alcotest.(check int) "hash equal tuples" (Tuple.hash t) (Tuple.hash (Tuple.of_ints [ 1; 2; 3 ]));
  Alcotest.(check bool) "get bounds" true
    (try
       ignore (Tuple.get t 9);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "build and read" `Quick test_build_and_read;
    Alcotest.test_case "get bounds checked" `Quick test_get_bounds;
    Alcotest.test_case "append validates" `Quick test_append_validates;
    Alcotest.test_case "storage growth" `Quick test_growth;
    Alcotest.test_case "iteration" `Quick test_iteration;
    Alcotest.test_case "to_stream matches contents" `Quick test_to_stream_matches;
    Alcotest.test_case "random_row" `Quick test_random_row;
    Alcotest.test_case "column int view" `Quick test_column_view;
    Alcotest.test_case "to_array is a copy" `Quick test_to_array_is_copy;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv null and quoting" `Quick test_csv_null_and_quoting;
    Alcotest.test_case "csv rejects bad header" `Quick test_csv_rejects_bad_header;
    Alcotest.test_case "csv parse_line" `Quick test_csv_parse_line;
    Alcotest.test_case "csv parse_int agrees with int_of_string" `Quick test_csv_parse_int;
    Alcotest.test_case "csv int roundtrip at the extremes" `Quick test_csv_int_roundtrip_extremes;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "csv escape_field" `Quick test_csv_escape_field;
    QCheck_alcotest.to_alcotest csv_fields_prop;
    Alcotest.test_case "csv rejects malformed rows by line" `Quick test_csv_rejects_bad_rows;
    QCheck_alcotest.to_alcotest column_key_prop;
    Alcotest.test_case "stream_range and shards" `Quick test_stream_range_and_shards;
    Alcotest.test_case "chunk_count" `Quick test_chunk_count;
    Alcotest.test_case "rehydrate join positions" `Quick test_rehydrate;
    Alcotest.test_case "uid, version and fingerprint" `Quick test_identity_and_version;
  ]
