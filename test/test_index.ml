open Rsj_relation
module Hash_index = Rsj_index.Hash_index

(* The generator's next 64-bit output, read from a copy: equal peeks
   mean the same state, without advancing either generator. *)
let peek t = Rsj_util.Prng.bits64 (Rsj_util.Prng.copy t)

let schema = Schema.of_list [ ("k", Value.T_int); ("payload", Value.T_int) ]

let relation_of_keys keys =
  Relation.of_tuples ~name:"idx_test" schema
    (List.mapi (fun i k -> [| k; Value.Int i |]) keys)

let ints l = List.map Value.int l
let group_count idx = Rsj_index.Int_index.group_count (Hash_index.int_plane idx)

(* Row ids of a probe's bucket, read off the index's plane, after
   checking that [matching_tuples] returns exactly those rows in that
   order. *)
let matching_rows idx v =
  let module I = Rsj_index.Int_index in
  let plane = Hash_index.int_plane idx in
  let rows =
    match I.find_gid plane (Column.find_key v) with
    | -1 -> [||]
    | g -> Array.init (I.gid_multiplicity plane g) (fun j -> I.row plane (I.gid_start plane g + j))
  in
  let r = Hash_index.relation idx and tuples = Hash_index.matching_tuples idx v in
  if
    not
      (Array.length tuples = Array.length rows
      && Array.for_all2 (fun t i -> Tuple.equal t (Relation.get r i)) tuples rows)
  then Alcotest.fail "matching_tuples are not the bucket's rows";
  rows

(* ---------- hash index ---------- *)

let test_hash_lookup () =
  let r = relation_of_keys (ints [ 1; 2; 1; 3; 1 ]) in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check int) "m(1)" 3 (Hash_index.multiplicity idx (Value.Int 1));
  Alcotest.(check int) "m(2)" 1 (Hash_index.multiplicity idx (Value.Int 2));
  Alcotest.(check int) "m(99)" 0 (Hash_index.multiplicity idx (Value.Int 99));
  Alcotest.(check (array int)) "row ids in order" [| 0; 2; 4 |] (matching_rows idx (Value.Int 1));
  Alcotest.(check int) "max multiplicity" 3 (Hash_index.max_multiplicity idx)

let test_hash_lookup_is_fresh () =
  let r = relation_of_keys (ints [ 4; 4 ]) in
  let idx = Hash_index.build r ~key:0 in
  (Hash_index.matching_tuples idx (Value.Int 4)).(0) <- [||];
  Alcotest.(check (array int)) "next lookup unchanged" [| 0; 1 |]
    (matching_rows idx (Value.Int 4))

let test_hash_excludes_null () =
  let r = relation_of_keys [ Value.Int 1; Value.Null; Value.Int 1 ] in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check int) "nulls not indexed" 0 (Hash_index.multiplicity idx Value.Null);
  Alcotest.(check int) "distinct" 1 (group_count idx)

let test_hash_matching_tuples () =
  let r = relation_of_keys (ints [ 5; 6; 5 ]) in
  let idx = Hash_index.build r ~key:0 in
  let ms = Hash_index.matching_tuples idx (Value.Int 5) in
  Alcotest.(check int) "two matches" 2 (Array.length ms);
  Array.iter
    (fun t -> Alcotest.(check int) "key matches" 5 (Value.to_int_exn (Tuple.get t 0)))
    ms

let test_hash_random_match_uniform () =
  let r = relation_of_keys (ints [ 7; 7; 7; 7; 8 ]) in
  let idx = Hash_index.build r ~key:0 in
  let rng = Rsj_util.Prng.create ~seed:2 () in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    match Hash_index.random_match idx rng (Value.Int 7) with
    | Some t -> counts.(Value.to_int_exn (Tuple.get t 1)) <- counts.(Value.to_int_exn (Tuple.get t 1)) + 1
    | None -> Alcotest.fail "expected a match"
  done;
  let res = Rsj_util.Stats_math.chi_square_uniform ~observed:counts in
  Alcotest.(check bool) "uniform over matches" true (res.p_value > 0.001);
  Alcotest.(check bool) "no match for absent key" true
    (Hash_index.random_match idx rng (Value.Int 0) = None)

let test_hash_empty_relation () =
  let r = Relation.create schema in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check int) "max mult 0" 0 (Hash_index.max_multiplicity idx);
  Alcotest.(check int) "no keys" 0 (group_count idx)

(* qcheck property: the hash index agrees with a scan model. Keys
   repeat (a narrow range) and include NULLs; for every value in the
   range, present or not, [lookup] is exactly the ascending row ids
   holding it, [multiplicity] their count, and [group_count] the
   number of distinct non-NULL keys. *)
let hash_scan_model_prop =
  QCheck.Test.make ~name:"hash index matches scan model" ~count:200
    QCheck.(list (option (int_range (-3) 12)))
    (fun keys ->
      let keys = List.map (function Some k -> Value.Int k | None -> Value.Null) keys in
      let idx = Hash_index.build (relation_of_keys keys) ~key:0 in
      let rows_of v =
        List.concat (List.mapi (fun i k -> if Value.equal k v then [ i ] else []) keys)
      in
      let distinct = List.sort_uniq compare (List.filter (( <> ) Value.Null) keys) in
      let agrees v =
        let want = if v = Value.Null then [] else rows_of v in
        Array.to_list (matching_rows idx v) = want
        && Hash_index.multiplicity idx v = List.length want
      in
      List.for_all agrees (Value.Null :: List.init 18 (fun i -> Value.Int (i - 4)))
      && group_count idx = List.length distinct)

(* ---------- hash index: other key types, accessors, int probes ---------- *)

let test_hash_string_keys () =
  let s = Schema.of_list [ ("name", Value.T_str); ("k", Value.T_int) ] in
  let r =
    Relation.of_tuples s
      [
        [| Value.str "ann"; Value.Int 1 |];
        [| Value.str "bob"; Value.Int 2 |];
        [| Value.str "ann"; Value.Int 3 |];
        [| Value.str ""; Value.Int 4 |];
        [| Value.Null; Value.Int 5 |];
      ]
  in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check (array int)) "ann" [| 0; 2 |] (matching_rows idx (Value.str "ann"));
  Alcotest.(check (array int)) "bob" [| 1 |] (matching_rows idx (Value.str "bob"));
  Alcotest.(check (array int)) "empty string is a key, not NULL" [| 3 |]
    (matching_rows idx (Value.str ""));
  Alcotest.(check (array int)) "absent" [||] (matching_rows idx (Value.str "cat"));
  Alcotest.(check int) "Int 1 does not match a string" 0
    (Hash_index.multiplicity idx (Value.Int 1));
  Alcotest.(check int) "three groups" 3 (group_count idx)

let test_hash_float_keys () =
  let s = Schema.of_list [ ("x", Value.T_float) ] in
  let r =
    Relation.of_tuples s
      [ [| Value.Float 0.5 |]; [| Value.Float 1.5 |]; [| Value.Float 0.5 |]; [| Value.Float (-0.) |] ]
  in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check (array int)) "0.5" [| 0; 2 |] (matching_rows idx (Value.Float 0.5));
  Alcotest.(check int) "1.5" 1 (Hash_index.multiplicity idx (Value.Float 1.5));
  Alcotest.(check int) "-0. probes as 0. (Value.equal)"
    (if Value.equal (Value.Float 0.) (Value.Float (-0.)) then 1 else 0)
    (Hash_index.multiplicity idx (Value.Float 0.));
  Alcotest.(check int) "max multiplicity" 2 (Hash_index.max_multiplicity idx)

let test_hash_other_key_column () =
  let r = relation_of_keys (ints [ 9; 9; 9 ]) in
  (* column 1 holds the row ids 0, 1, 2: every key is unique there *)
  let idx = Hash_index.build r ~key:1 in
  Alcotest.(check int) "key column" 1 (Hash_index.key idx);
  Alcotest.(check bool) "same relation" true (Hash_index.relation idx == r);
  Alcotest.(check (array int)) "payload 2" [| 2 |] (matching_rows idx (Value.Int 2));
  Alcotest.(check int) "key 9 is not in column 1" 0 (Hash_index.multiplicity idx (Value.Int 9));
  Alcotest.(check int) "max multiplicity" 1 (Hash_index.max_multiplicity idx);
  Alcotest.(check int) "three groups" 3 (group_count idx)

let test_hash_int_probes_agree () =
  let keys = ints [ 3; 1; 3; 3; 2; 1 ] in
  let idx = Hash_index.build (relation_of_keys keys) ~key:0 in
  List.iter
    (fun v ->
      let k = Column.key v in
      Alcotest.(check int)
        (Printf.sprintf "multiplicity_key %s" (Value.to_string v))
        (Hash_index.multiplicity idx v) (Hash_index.multiplicity_key idx k);
      let a = Rsj_util.Prng.create ~seed:31 () and b = Rsj_util.Prng.create ~seed:31 () in
      for _ = 1 to 50 do
        let boxed =
          match Hash_index.random_match idx a v with
          | Some t -> Value.to_int_exn (Tuple.get t 1)
          | None -> -1
        in
        Alcotest.(check int) "random_match_row = random_match" boxed
          (Hash_index.random_match_row idx b k)
      done;
      Alcotest.(check int64) "same generator stream"
        (peek a) (peek b))
    [ Value.Int 1; Value.Int 2; Value.Int 3; Value.Int 7; Value.Null ]

let test_hash_matching_tuples_miss () =
  let idx = Hash_index.build (relation_of_keys [ Value.Int 1; Value.Null ]) ~key:0 in
  Alcotest.(check int) "miss" 0 (Array.length (Hash_index.matching_tuples idx (Value.Int 2)));
  Alcotest.(check int) "NULL probe" 0 (Array.length (Hash_index.matching_tuples idx Value.Null));
  let rng = Rsj_util.Prng.create ~seed:1 () in
  Alcotest.(check bool) "NULL has no random match" true
    (Hash_index.random_match idx rng Value.Null = None)

let test_hash_all_null () =
  let idx = Hash_index.build (relation_of_keys [ Value.Null; Value.Null; Value.Null ]) ~key:0 in
  Alcotest.(check int) "max multiplicity" 0 (Hash_index.max_multiplicity idx);
  Alcotest.(check int) "no groups" 0 (group_count idx);
  Alcotest.(check int) "nothing indexed" 0 (Rsj_index.Int_index.size (Hash_index.int_plane idx))

(* ---------- int index: the CSR plane under the hash index ---------- *)

module Int_index = Rsj_index.Int_index
module Counter = Int_index.Counter

let bucket idx k =
  match Int_index.find_gid idx k with
  | -1 -> [||]
  | g ->
      let s = Int_index.gid_start idx g in
      Array.init (Int_index.gid_multiplicity idx g) (fun j -> Int_index.row idx (s + j))

let test_int_csr_buckets () =
  let idx = Int_index.build ~keys:[| 5; -2; 5; 0; 5; -2 |] () in
  Alcotest.(check (array int)) "5" [| 0; 2; 4 |] (bucket idx 5);
  Alcotest.(check (array int)) "-2" [| 1; 5 |] (bucket idx (-2));
  Alcotest.(check (array int)) "0" [| 3 |] (bucket idx 0);
  Alcotest.(check int) "miss gid" (-1) (Int_index.find_gid idx 6);
  Alcotest.(check int) "multiplicity" 3 (Int_index.multiplicity idx 5);
  Alcotest.(check int) "miss multiplicity" 0 (Int_index.multiplicity idx 6);
  Alcotest.(check int) "groups" 3 (Int_index.group_count idx);
  Alcotest.(check int) "size" 6 (Int_index.size idx);
  Alcotest.(check int) "max multiplicity" 3 (Int_index.max_multiplicity idx);
  (* gids are dense: every group id in [0, groups) owns one bucket *)
  let gids = List.sort compare (List.map (Int_index.find_gid idx) [ 5; -2; 0 ]) in
  Alcotest.(check (list int)) "dense gids" [ 0; 1; 2 ] gids

let test_int_sentinel_excluded () =
  let n = Int_index.null_key in
  Alcotest.(check int) "null_key is Column.null_key" Column.null_key n;
  let idx = Int_index.build ~keys:[| n; 1; n; 1 |] () in
  Alcotest.(check int) "sentinel gid" (-1) (Int_index.find_gid idx n);
  Alcotest.(check int) "sentinel multiplicity" 0 (Int_index.multiplicity idx n);
  Alcotest.(check int) "size counts kept rows" 2 (Int_index.size idx);
  Alcotest.(check (array int)) "1" [| 1; 3 |] (bucket idx 1);
  Alcotest.(check int) "sentinel random_row" (-1)
    (Int_index.random_row idx (Rsj_util.Prng.create ~seed:3 ()) n)

let test_int_keep_filter () =
  let keys = [| 1; 2; 3; 2; 1; 4 |] in
  let idx = Int_index.build ~keep:(fun k -> k mod 2 = 0) ~keys () in
  Alcotest.(check (array int)) "kept 2" [| 1; 3 |] (bucket idx 2);
  Alcotest.(check (array int)) "kept 4" [| 5 |] (bucket idx 4);
  Alcotest.(check int) "dropped 1" 0 (Int_index.multiplicity idx 1);
  Alcotest.(check int) "dropped 3" (-1) (Int_index.find_gid idx 3);
  Alcotest.(check int) "size" 3 (Int_index.size idx);
  Alcotest.(check int) "groups" 2 (Int_index.group_count idx)

let test_int_empty () =
  let idx = Int_index.build ~keys:[||] () in
  Alcotest.(check int) "size" 0 (Int_index.size idx);
  Alcotest.(check int) "groups" 0 (Int_index.group_count idx);
  Alcotest.(check int) "max" 0 (Int_index.max_multiplicity idx);
  Alcotest.(check int) "miss" (-1) (Int_index.find_gid idx 0)

let test_int_random_row_draws () =
  let idx = Int_index.build ~keys:[| 7; 8; 7; 7 |] () in
  let rng = Rsj_util.Prng.create ~seed:11 () in
  let before = peek rng in
  Alcotest.(check int) "miss" (-1) (Int_index.random_row idx rng 9);
  Alcotest.(check int64) "a miss draws nothing" before (peek rng);
  let shadow = Rsj_util.Prng.copy rng in
  let row = Int_index.random_row idx rng 7 in
  Alcotest.(check int) "a hit is one Prng.int over the bucket"
    [| 0; 2; 3 |].(Rsj_util.Prng.int shadow 3) row;
  Alcotest.(check int64) "same stream after the hit"
    (peek shadow) (peek rng);
  Alcotest.(check int) "singleton bucket" 1 (Int_index.random_row idx rng 8)

let test_int_random_row_uniform () =
  let idx = Int_index.build ~keys:[| 4; 0; 4; 4; 1; 4; 4 |] () in
  let rng = Rsj_util.Prng.create ~seed:17 () in
  let rows = [| 0; 2; 3; 5; 6 |] in
  let counts = Array.make (Array.length rows) 0 in
  for _ = 1 to 25_000 do
    let row = Int_index.random_row idx rng 4 in
    match Array.find_index (( = ) row) rows with
    | Some i -> counts.(i) <- counts.(i) + 1
    | None -> Alcotest.failf "row %d does not hold key 4" row
  done;
  let res = Rsj_util.Stats_math.chi_square_uniform ~observed:counts in
  Alcotest.(check bool) "uniform over the bucket" true (res.p_value > 0.001)

let test_counter_basics () =
  let c = Counter.create () in
  Alcotest.(check int) "absent" 0 (Counter.get c 42);
  Counter.add c 42 3;
  Counter.add c 42 4;
  Counter.add c (-1) 1;
  Counter.add c 0 0;
  Alcotest.(check int) "accumulates" 7 (Counter.get c 42);
  Alcotest.(check int) "negative key" 1 (Counter.get c (-1));
  Alcotest.(check int) "zero delta still inserts" 3 (Counter.cardinal c);
  Counter.add c 42 (-7);
  Alcotest.(check int) "negative delta" 0 (Counter.get c 42);
  Alcotest.(check int) "cardinal unchanged by updates" 3 (Counter.cardinal c);
  Alcotest.(check int) "sentinel reads 0" 0 (Counter.get c Int_index.null_key);
  Alcotest.(check bool) "sentinel add rejected" true
    (try
       Counter.add c Int_index.null_key 1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "rejected add leaves no entry" 3 (Counter.cardinal c)

(* Model check: a counter grown from capacity 1 through many rehashes
   holds exactly the association list's sums, and iter/fold visit
   each key once. *)
let counter_model_prop =
  QCheck.Test.make ~name:"int counter matches assoc model" ~count:200
    QCheck.(list (pair (int_range (-50) 50) small_signed_int))
    (fun adds ->
      let c = Counter.create ~capacity:1 () in
      List.iter (fun (k, d) -> Counter.add c k d) adds;
      let keys = List.sort_uniq compare (List.map fst adds) in
      let sum k = List.fold_left (fun acc (k', d) -> if k = k' then acc + d else acc) 0 adds in
      let visited = ref [] in
      Counter.iter (fun k v -> visited := (k, v) :: !visited) c;
      let folded = Counter.fold (fun k v acc -> (k, v) :: acc) c [] in
      let model = List.map (fun k -> (k, sum k)) keys in
      Counter.cardinal c = List.length keys
      && List.for_all (fun (k, v) -> Counter.get c k = v) model
      && List.sort compare !visited = model
      && List.sort compare folded = model)

(* Model check for the CSR plane itself, sentinel and keep filter
   included: every key's bucket is the ascending row ids holding it. *)
let int_index_model_prop =
  QCheck.Test.make ~name:"int index matches scan model" ~count:200
    QCheck.(pair (list (option (int_range 0 9))) (int_range 1 3))
    (fun (keys, m) ->
      let keys = Array.of_list (List.map (function Some k -> k | None -> Int_index.null_key) keys) in
      let keep k = k mod m = 0 in
      let idx = Int_index.build ~keep ~keys () in
      let kept k = k <> Int_index.null_key && keep k in
      let rows_of k =
        List.filter (fun i -> keys.(i) = k && kept k) (List.init (Array.length keys) Fun.id)
      in
      let distinct = List.sort_uniq compare (List.filter kept (Array.to_list keys)) in
      let max_mult = List.fold_left (fun acc k -> max acc (List.length (rows_of k))) 0 distinct in
      List.for_all
        (fun k -> Array.to_list (bucket idx k) = rows_of k && Int_index.multiplicity idx k = List.length (rows_of k))
        (Int_index.null_key :: List.init 11 Fun.id)
      && Int_index.group_count idx = List.length distinct
      && Int_index.size idx = List.length (List.filter kept (Array.to_list keys))
      && Int_index.max_multiplicity idx = max_mult)

let suite =
  [
    Alcotest.test_case "hash: lookup and multiplicity" `Quick test_hash_lookup;
    Alcotest.test_case "hash: matching_tuples returns a fresh array" `Quick test_hash_lookup_is_fresh;
    Alcotest.test_case "hash: NULL keys excluded" `Quick test_hash_excludes_null;
    Alcotest.test_case "hash: matching tuples" `Quick test_hash_matching_tuples;
    Alcotest.test_case "hash: random_match uniform" `Slow test_hash_random_match_uniform;
    Alcotest.test_case "hash: empty relation" `Quick test_hash_empty_relation;
    QCheck_alcotest.to_alcotest hash_scan_model_prop;
    Alcotest.test_case "hash: string keys" `Quick test_hash_string_keys;
    Alcotest.test_case "hash: float keys join as Value.equal" `Quick test_hash_float_keys;
    Alcotest.test_case "hash: indexes any key column" `Quick test_hash_other_key_column;
    Alcotest.test_case "hash: int-key probes agree with boxed probes" `Quick test_hash_int_probes_agree;
    Alcotest.test_case "hash: misses and NULL probes" `Quick test_hash_matching_tuples_miss;
    Alcotest.test_case "hash: all-NULL column" `Quick test_hash_all_null;
    Alcotest.test_case "int_index: CSR buckets in storage order" `Quick test_int_csr_buckets;
    Alcotest.test_case "int_index: sentinel keys excluded" `Quick test_int_sentinel_excluded;
    Alcotest.test_case "int_index: keep filter" `Quick test_int_keep_filter;
    Alcotest.test_case "int_index: empty key column" `Quick test_int_empty;
    Alcotest.test_case "int_index: random_row draws" `Quick test_int_random_row_draws;
    Alcotest.test_case "int_index: random_row uniform" `Slow test_int_random_row_uniform;
    Alcotest.test_case "counter: add, get, sentinel" `Quick test_counter_basics;
    QCheck_alcotest.to_alcotest counter_model_prop;
    QCheck_alcotest.to_alcotest int_index_model_prop;
  ]
