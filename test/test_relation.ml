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

let test_csv_roundtrip () =
  let r = sample () in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path r;
      let back = Csv_io.load ~path schema in
      Alcotest.(check int) "same cardinality" 3 (Relation.cardinality back);
      for i = 0 to 2 do
        Alcotest.(check bool) "same rows" true (Tuple.equal (Relation.get back i) (Relation.get r i))
      done)

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
      Alcotest.(check bool) "comma survived" true
        (Tuple.get (Relation.get back 0) 1 = Value.Str "has,comma");
      Alcotest.(check bool) "quote survived" true
        (Tuple.get (Relation.get back 1) 1 = Value.Str "has\"quote");
      Alcotest.(check bool) "null str survived" true (Value.is_null (Tuple.get (Relation.get back 2) 1));
      Alcotest.(check bool) "empty string distinct from null" true
        (Tuple.get (Relation.get back 3) 1 = Value.Str ""))

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

(* Write [text] to a scratch file and read it back with the loader. *)
let load_text schema text =
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Csv_io.load ~path schema)

let rows_of rel = List.init (Relation.cardinality rel) (fun i -> Array.to_list (Relation.get rel i))

let test_csv_quoted_fields () =
  let s = Schema.of_list [ ("s", Value.T_str); ("t", Value.T_str) ] in
  let rel = load_text s "s,t\na,b\n\"a,b\",c\n\"a\"\"b\",x\n" in
  Alcotest.(check bool) "plain, quoted comma, escaped quote" true
    (rows_of rel
    = [
        [ Value.Str "a"; Value.Str "b" ];
        [ Value.Str "a,b"; Value.Str "c" ];
        [ Value.Str "a\"b"; Value.Str "x" ];
      ])

(* The loader's manual digit loop must agree with int_of_string_opt on
   every spelling — fast-path decimals, fallback shapes, and the
   overflow boundary: a cell loads exactly when int_of_string_opt
   accepts it. *)
let test_csv_parse_int () =
  let s = Schema.of_list [ ("a", Value.T_int) ] in
  let load_int cell =
    match load_text s ("a\n" ^ cell ^ "\n") with
    | rel -> ( match Tuple.get (Relation.get rel 0) 0 with Value.Int x -> Some x | _ -> None)
    | exception Failure _ -> None
  in
  let io = Alcotest.(option int) in
  let agree cell = Alcotest.(check io) ("agrees on " ^ cell) (int_of_string_opt cell) (load_int cell) in
  List.iter agree
    [
      "0"; "7"; "-7"; "+5"; "007"; "-007";
      "-"; "+"; "x"; "1x"; "-1x"; " 1"; "1 ";
      string_of_int max_int; string_of_int min_int;
      (* one past the boundary in each direction *)
      "4611686018427387904"; "-4611686018427387905";
      "99999999999999999999999999"; "-99999999999999999999999999";
      (* fallback-only spellings int_of_string accepts *)
      "1_000"; "0x10"; "0o17"; "0b101"; "-0x10";
    ];
  Alcotest.(check io) "negative" (Some (-123)) (load_int "-123");
  Alcotest.(check io) "leading zeros" (Some 42) (load_int "042");
  Alcotest.(check io) "explicit plus" (Some 5) (load_int "+5");
  Alcotest.(check io) "min_int exact" (Some min_int) (load_int (string_of_int min_int));
  Alcotest.(check io) "overflow is rejected" None (load_int "4611686018427387904")

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
      for i = 0 to 4 do
        Alcotest.(check bool)
          (Printf.sprintf "row %d survives" i)
          true
          (Tuple.equal (Relation.get back i) (Relation.get r i))
      done)

let ids_rel n =
  Relation.of_tuples schema (List.init n (fun i -> row i (string_of_int i)))

let ids stream = List.map (fun t -> Value.to_int_exn (Tuple.get t 0)) (Stream0.to_list stream)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

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
  let fp = Relation.fingerprint r in
  Alcotest.(check int) "reads do not move it" fp (ignore (Relation.get r 0); Relation.fingerprint r);
  Relation.append r (row 4 "dan");
  let fp' = Relation.fingerprint r in
  Alcotest.(check bool) "append moves it" true (fp' <> fp);
  Alcotest.(check bool) "a rejected append does not move it" true
    (raises_invalid (fun () -> Relation.append r [| Value.Int 1 |]) && Relation.fingerprint r = fp');
  Relation.append_unchecked r (row 5 "eve");
  Alcotest.(check bool) "append_unchecked moves it" true
    (not (List.mem (Relation.fingerprint r) [ fp; fp' ]));
  Alcotest.(check int) "uid is stable" (Relation.uid r) (Relation.uid r)

let test_csv_save_quoting () =
  let s = Schema.of_list [ ("s", Value.T_str) ] in
  let cells = [ "abc"; ""; "a,b"; "say \"hi\""; "a\nb"; "a\rb"; " a b " ] in
  let r = Relation.of_tuples s (List.map (fun c -> [| Value.Str c |]) cells) in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path r;
      Alcotest.(check string) "quoted only where needed"
        "s\nabc\n\"\"\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"a\nb\"\n\"a\rb\"\n a b \n"
        (In_channel.with_open_bin path In_channel.input_all))

(* load inverts save on any string cells that hold no line break
   (records are line-oriented in this dialect). *)
let csv_fields_prop =
  QCheck.Test.make ~name:"csv load inverts save on string cells" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (string_gen_of_size (Gen.int_range 0 8) (Gen.oneofl [ 'a'; ','; '"'; ' '; 'z' ])))
    (fun cells ->
      let s = Schema.of_list (List.mapi (fun i _ -> (Printf.sprintf "c%d" i, Value.T_str)) cells) in
      let row = List.map (fun c -> Value.Str c) cells in
      let path = Filename.temp_file "rsj_test" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Csv_io.save ~path (Relation.of_tuples s [ Array.of_list row ]);
          rows_of (Csv_io.load ~path s) = [ row ]))

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

(* ---------- the column store ---------- *)

(* Cells that the typed columns must keep apart: Null in every type,
   in-band ints (min_int among them, whose key is a dictionary code,
   not the Null key), NaN and -0.0 (by their bits), and the empty
   string against Null. *)
let mixed_schema = Schema.of_list [ ("i", Value.T_int); ("f", Value.T_float); ("s", Value.T_str) ]

let mixed_rows =
  [
    [| Value.Int 1; Value.Float 0.5; Value.Str "a" |];
    [| Value.Null; Value.Null; Value.Null |];
    [| Value.Int min_int; Value.Float Float.nan; Value.Str "" |];
    [| Value.Int (min_int + 1); Value.Float (-0.); Value.Null |];
    [| Value.Int max_int; Value.Float Float.infinity; Value.Str "x,\"y" |];
    [| Value.Int (-5); Value.Null; Value.Str "" |];
    [| Value.Null; Value.Float 0.; Value.Str "b" |];
  ]

let same_cell a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y) || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let check_rows what rel =
  Alcotest.(check int) (what ^ ": cardinality") (List.length mixed_rows) (Relation.cardinality rel);
  List.iteri
    (fun i want ->
      let got = Relation.get rel i in
      Alcotest.(check bool)
        (Printf.sprintf "%s: row %d is %s, got %s" what i (Tuple.to_string want) (Tuple.to_string got))
        true
        (Array.length got = 3 && Array.for_all2 same_cell want got))
    mixed_rows

let test_columns_round_trip () =
  let appended = Relation.create ~capacity:1 mixed_schema in
  List.iter (Relation.append appended) mixed_rows;
  check_rows "append" appended;
  check_rows "of_tuples" (Relation.of_tuples mixed_schema mixed_rows);
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path appended;
      check_rows "save/load" (Csv_io.load ~path mixed_schema));
  let view col = Column.int_view appended ~col in
  Alcotest.(check (array int)) "the int view is the keys"
    (Array.of_list (List.map (fun row -> Column.key row.(0)) mixed_rows))
    (view 0);
  Alcotest.(check bool) "min_int is not the Null key" true ((view 0).(2) <> Column.null_key);
  Alcotest.(check (array int)) "Null is the Null key, \"\" is not"
    [| Column.null_key; Column.key (Value.Str "") |]
    [| (view 2).(1); (view 2).(2) |];
  Alcotest.(check bool) "-0. joins 0. (Value.equal)" true ((view 1).(3) = (view 1).(6))

(* The int view is exactly [cardinality] keys, an append never changes
   a view already handed out, and a string column's view is held until
   the next append. *)
let test_int_view_after_append () =
  let r = Relation.create ~capacity:64 mixed_schema in
  List.iter (Relation.append r) [ List.nth mixed_rows 0; List.nth mixed_rows 2 ];
  let fp = Relation.fingerprint r in
  let ints = Column.int_view r ~col:0 and strs = Column.int_view r ~col:2 in
  Alcotest.(check int) "no capacity slack" 2 (Array.length ints);
  Alcotest.(check bool) "an int column's view is the column" true (Column.int_view r ~col:0 == ints);
  Alcotest.(check bool) "a string view is held" true (Column.int_view r ~col:2 == strs);
  let before = (Array.copy ints, Array.copy strs) in
  Relation.append r (List.nth mixed_rows 4);
  Alcotest.(check bool) "a fresh fingerprint" true (Relation.fingerprint r <> fp);
  Alcotest.(check (pair (array int) (array int))) "old views unchanged" before (ints, strs);
  let ints' = Column.int_view r ~col:0 and strs' = Column.int_view r ~col:2 in
  Alcotest.(check (list int)) "new views are cardinality long" [ 3; 3 ]
    [ Array.length ints'; Array.length strs' ];
  Alcotest.(check bool) "new views" true (ints' != ints && strs' != strs);
  Alcotest.(check int) "the appended key" (Column.key (Value.Int max_int)) ints'.(2)

(* Relation.bytes is what the relation owns, walked: on a loaded
   relation, everything the relation reaches but its name, schema and
   record. A Zipf table is two int columns and one string column, 72
   bytes a row, plus the loader's capacity slack (here 8192 slots for
   5000 rows in the two columns no view trimmed): under 88 bytes a row,
   where boxed rows took about 138. *)
let test_relation_bytes () =
  let gen = Rsj_workload.Zipf_tables.make ~seed:7 ~name:"t" ~rows:5000 ~z:1. ~domain:100 () in
  let path = Filename.temp_file "rsj_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save ~path gen;
      let rel = Csv_io.load ~path Rsj_workload.Zipf_tables.schema in
      ignore (Column.int_view rel ~col:1);
      let walked = Obj.reachable_words (Obj.repr rel) * (Sys.word_size / 8) in
      let owned = Relation.bytes rel in
      Alcotest.(check bool)
        (Printf.sprintf "bytes %d within 1 KiB below the walk %d" owned walked)
        true
        (owned <= walked && walked - owned <= 1024);
      Alcotest.(check bool)
        (Printf.sprintf "%d bytes a row (< 88)" (owned / 5000))
        true
        (owned < 88 * 5000))

let test_tuple_ops () =
  let t = Array.map Value.int [| 1; 2; 3 |] in
  Alcotest.(check int) "attr" 2 (Value.to_int_exn (Tuple.attr t 1));
  let j = Tuple.join (Array.map Value.int [| 1 |]) (Array.map Value.int [| 2; 3 |]) in
  Alcotest.(check int) "join arity" 3 (Array.length j);
  let p = Tuple.project t [ 2; 0 ] in
  Alcotest.(check int) "project reorders" 3 (Value.to_int_exn (Tuple.get p 0));
  Alcotest.(check bool) "equal" true (Tuple.equal t (Array.map Value.int [| 1; 2; 3 |]));
  Alcotest.(check int) "hash equal tuples" (Tuple.hash t) (Tuple.hash (Array.map Value.int [| 1; 2; 3 |]));
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
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv null and quoting" `Quick test_csv_null_and_quoting;
    Alcotest.test_case "csv rejects bad header" `Quick test_csv_rejects_bad_header;
    Alcotest.test_case "csv quoted fields" `Quick test_csv_quoted_fields;
    Alcotest.test_case "csv parse_int agrees with int_of_string" `Quick test_csv_parse_int;
    Alcotest.test_case "csv int roundtrip at the extremes" `Quick test_csv_int_roundtrip_extremes;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "csv save quotes where needed" `Quick test_csv_save_quoting;
    QCheck_alcotest.to_alcotest csv_fields_prop;
    Alcotest.test_case "csv rejects malformed rows by line" `Quick test_csv_rejects_bad_rows;
    QCheck_alcotest.to_alcotest column_key_prop;
    Alcotest.test_case "chunk_count" `Quick test_chunk_count;
    Alcotest.test_case "rehydrate join positions" `Quick test_rehydrate;
    Alcotest.test_case "uid and fingerprint" `Quick test_identity_and_version;
    Alcotest.test_case "columns round-trip every cell kind" `Quick test_columns_round_trip;
    Alcotest.test_case "int_view after append" `Quick test_int_view_after_append;
    Alcotest.test_case "bytes: what the relation owns" `Quick test_relation_bytes;
  ]
