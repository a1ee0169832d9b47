open Rsj_relation
module Hash_index = Rsj_index.Hash_index
module Btree = Rsj_index.Btree

let schema = Schema.of_list [ ("k", Value.T_int); ("payload", Value.T_int) ]

let relation_of_keys keys =
  Relation.of_tuples ~name:"idx_test" schema
    (List.mapi (fun i k -> [| k; Value.Int i |]) keys)

let ints l = List.map Value.int l
let group_count idx = Rsj_index.Int_index.group_count (Hash_index.int_plane idx)

(* ---------- hash index ---------- *)

let test_hash_lookup () =
  let r = relation_of_keys (ints [ 1; 2; 1; 3; 1 ]) in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check int) "m(1)" 3 (Hash_index.multiplicity idx (Value.Int 1));
  Alcotest.(check int) "m(2)" 1 (Hash_index.multiplicity idx (Value.Int 2));
  Alcotest.(check int) "m(99)" 0 (Hash_index.multiplicity idx (Value.Int 99));
  Alcotest.(check (array int)) "row ids in order" [| 0; 2; 4 |] (Hash_index.lookup idx (Value.Int 1));
  Alcotest.(check int) "max multiplicity" 3 (Hash_index.max_multiplicity idx)

let test_hash_lookup_is_fresh () =
  let r = relation_of_keys (ints [ 4; 4 ]) in
  let idx = Hash_index.build r ~key:0 in
  (Hash_index.lookup idx (Value.Int 4)).(0) <- 99;
  Alcotest.(check (array int)) "next lookup unchanged" [| 0; 1 |]
    (Hash_index.lookup idx (Value.Int 4))

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

let test_hash_probe_count () =
  let r = relation_of_keys (ints [ 1 ]) in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check int) "zero initially" 0 (Hash_index.probe_count idx);
  ignore (Hash_index.lookup idx (Value.Int 1));
  ignore (Hash_index.multiplicity idx (Value.Int 1));
  Alcotest.(check int) "two probes" 2 (Hash_index.probe_count idx)

let test_hash_empty_relation () =
  let r = Relation.create schema in
  let idx = Hash_index.build r ~key:0 in
  Alcotest.(check int) "max mult 0" 0 (Hash_index.max_multiplicity idx);
  Alcotest.(check int) "no keys" 0 (group_count idx)

(* ---------- btree ---------- *)

let test_btree_lookup () =
  let r = relation_of_keys (ints [ 10; 20; 10; 30 ]) in
  let t = Btree.build ~order:4 r ~key:0 in
  Alcotest.(check int) "m(10)" 2 (Btree.multiplicity t (Value.Int 10));
  Alcotest.(check int) "m(30)" 1 (Btree.multiplicity t (Value.Int 30));
  Alcotest.(check int) "m(5)" 0 (Btree.multiplicity t (Value.Int 5));
  let ids = Btree.lookup t (Value.Int 10) in
  Array.sort compare ids;
  Alcotest.(check (array int)) "posting list" [| 0; 2 |] ids

let test_btree_order_and_range () =
  let keys = [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ] in
  let r = relation_of_keys (ints keys) in
  let t = Btree.build ~order:4 r ~key:0 in
  let in_order = ref [] in
  Btree.iter t (fun k _ -> in_order := Value.to_int_exn k :: !in_order);
  Alcotest.(check (list int)) "iter sorted" (List.init 10 Fun.id) (List.rev !in_order);
  Alcotest.(check bool) "min" true (Btree.min_key t = Some (Value.Int 0));
  Alcotest.(check bool) "max" true (Btree.max_key t = Some (Value.Int 9));
  let range = Btree.range t ~lo:(Some (Value.Int 3)) ~hi:(Some (Value.Int 6)) in
  Alcotest.(check (list int)) "range [3,6]" [ 3; 4; 5; 6 ]
    (List.map (fun (k, _) -> Value.to_int_exn k) range);
  let open_range = Btree.range t ~lo:None ~hi:(Some (Value.Int 2)) in
  Alcotest.(check (list int)) "range (-inf,2]" [ 0; 1; 2 ]
    (List.map (fun (k, _) -> Value.to_int_exn k) open_range)

let test_btree_many_inserts_invariants () =
  let rng = Rsj_util.Prng.create ~seed:3 () in
  let t = Btree.create ~order:4 () in
  for i = 0 to 2_000 do
    Btree.insert t (Value.Int (Rsj_util.Prng.int rng 500)) i
  done;
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariants violated: " ^ msg));
  Alcotest.(check int) "entries" 2_001 (Btree.entry_count t);
  Alcotest.(check bool) "height grew" true (Btree.height t > 1)

let test_btree_duplicates_random_match () =
  let r = relation_of_keys (ints [ 1; 1; 1; 2 ]) in
  let t = Btree.build ~order:4 r ~key:0 in
  let rng = Rsj_util.Prng.create ~seed:4 () in
  for _ = 1 to 100 do
    match Btree.random_match t rng (Value.Int 1) with
    | Some id -> Alcotest.(check bool) "valid id" true (List.mem id [ 0; 1; 2 ])
    | None -> Alcotest.fail "expected match"
  done;
  Alcotest.(check bool) "absent key" true (Btree.random_match t rng (Value.Int 9) = None)

let test_btree_ignores_null () =
  let t = Btree.create () in
  Btree.insert t Value.Null 0;
  Alcotest.(check int) "null not stored" 0 (Btree.entry_count t)

let test_btree_agrees_with_hash_index () =
  let rng = Rsj_util.Prng.create ~seed:5 () in
  let keys = List.init 3_000 (fun _ -> Value.Int (Rsj_util.Prng.int rng 200)) in
  let r = relation_of_keys keys in
  let h = Hash_index.build r ~key:0 in
  let b = Btree.build ~order:8 r ~key:0 in
  for v = 0 to 199 do
    let hv = Hash_index.lookup h (Value.Int v) in
    let bv = Btree.lookup b (Value.Int v) in
    let sorted a =
      let c = Array.copy a in
      Array.sort compare c;
      c
    in
    Alcotest.(check (array int))
      (Printf.sprintf "postings agree for %d" v)
      (sorted hv) (sorted bv)
  done;
  Alcotest.(check int) "distinct agree" (group_count h) (Btree.distinct_key_count b)

(* ---------- btree deletion ---------- *)

let test_btree_delete_basic () =
  let r = relation_of_keys (ints [ 1; 2; 1; 3 ]) in
  let t = Btree.build ~order:4 r ~key:0 in
  Alcotest.(check bool) "delete existing" true (Btree.delete t (Value.Int 1) 0);
  Alcotest.(check int) "m(1) now 1" 1 (Btree.multiplicity t (Value.Int 1));
  Alcotest.(check bool) "delete absent id" false (Btree.delete t (Value.Int 1) 99);
  Alcotest.(check bool) "delete absent key" false (Btree.delete t (Value.Int 42) 0);
  Alcotest.(check bool) "delete last occurrence" true (Btree.delete t (Value.Int 1) 2);
  Alcotest.(check int) "key gone" 0 (Btree.multiplicity t (Value.Int 1));
  Alcotest.(check int) "entries" 2 (Btree.entry_count t);
  Alcotest.(check int) "distinct" 2 (Btree.distinct_key_count t);
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_btree_delete_key () =
  let r = relation_of_keys (ints [ 5; 5; 5; 6 ]) in
  let t = Btree.build ~order:4 r ~key:0 in
  Alcotest.(check int) "dropped 3" 3 (Btree.delete_key t (Value.Int 5));
  Alcotest.(check int) "absent drops 0" 0 (Btree.delete_key t (Value.Int 5));
  Alcotest.(check int) "entries" 1 (Btree.entry_count t)

let test_btree_delete_everything () =
  let rng = Rsj_util.Prng.create ~seed:21 () in
  let keys = List.init 500 (fun i -> Value.Int ((i * 7) mod 311)) in
  let r = relation_of_keys keys in
  let t = Btree.build ~order:4 r ~key:0 in
  (* Delete in random order, checking invariants periodically. *)
  let pairs = Array.of_list (List.mapi (fun i k -> (k, i)) keys) in
  Rsj_util.Prng.shuffle_in_place rng pairs;
  Array.iteri
    (fun step (k, id) ->
      Alcotest.(check bool) "every delete succeeds" true (Btree.delete t k id);
      if step mod 50 = 0 then
        match Btree.check_invariants t with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "invariants after %d deletes: %s" step msg)
    pairs;
  Alcotest.(check int) "empty" 0 (Btree.entry_count t);
  Alcotest.(check int) "no keys" 0 (Btree.distinct_key_count t);
  Alcotest.(check int) "height collapsed" 1 (Btree.height t);
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let btree_delete_model_prop =
  QCheck.Test.make ~name:"btree deletion matches assoc model" ~count:150
    QCheck.(pair (list (pair (int_bound 40) (int_bound 20))) (list (pair (int_bound 40) (int_bound 20))))
    (fun (inserts, deletes) ->
      let t = Btree.create ~order:4 () in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (k, id) ->
          Btree.insert t (Value.Int k) id;
          Hashtbl.replace model k (id :: Option.value ~default:[] (Hashtbl.find_opt model k)))
        inserts;
      List.iter
        (fun (k, id) ->
          let present =
            match Hashtbl.find_opt model k with Some ids -> List.mem id ids | None -> false
          in
          let deleted = Btree.delete t (Value.Int k) id in
          if deleted <> present then QCheck.Test.fail_report "delete result mismatch";
          if present then begin
            let rec remove_one = function
              | [] -> []
              | x :: tl -> if x = id then tl else x :: remove_one tl
            in
            let remaining = remove_one (Hashtbl.find model k) in
            if remaining = [] then Hashtbl.remove model k else Hashtbl.replace model k remaining
          end)
        deletes;
      (match Btree.check_invariants t with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report ("invariants: " ^ msg));
      Hashtbl.fold
        (fun k ids acc ->
          let got = List.sort compare (Array.to_list (Btree.lookup t (Value.Int k))) in
          acc && got = List.sort compare ids)
        model true)

(* qcheck property: btree invariants hold under arbitrary insert
   sequences and lookups agree with a model. *)
let btree_model_prop =
  QCheck.Test.make ~name:"btree matches assoc model" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun pairs ->
      let t = Btree.create ~order:4 () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (k, _) ->
          Btree.insert t (Value.Int k) i;
          Hashtbl.replace model k (i :: Option.value ~default:[] (Hashtbl.find_opt model k)))
        pairs;
      (match Btree.check_invariants t with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report ("invariants: " ^ msg));
      Hashtbl.fold
        (fun k ids acc ->
          let got = Btree.lookup t (Value.Int k) in
          let got = Array.to_list got |> List.sort compare in
          let want = List.sort compare ids in
          acc && got = want)
        model true)

let suite =
  [
    Alcotest.test_case "hash: lookup and multiplicity" `Quick test_hash_lookup;
    Alcotest.test_case "hash: lookup returns a fresh array" `Quick test_hash_lookup_is_fresh;
    Alcotest.test_case "hash: NULL keys excluded" `Quick test_hash_excludes_null;
    Alcotest.test_case "hash: matching tuples" `Quick test_hash_matching_tuples;
    Alcotest.test_case "hash: random_match uniform" `Slow test_hash_random_match_uniform;
    Alcotest.test_case "hash: probe counting" `Quick test_hash_probe_count;
    Alcotest.test_case "hash: empty relation" `Quick test_hash_empty_relation;
    Alcotest.test_case "btree: lookup" `Quick test_btree_lookup;
    Alcotest.test_case "btree: ordered iteration and range" `Quick test_btree_order_and_range;
    Alcotest.test_case "btree: invariants after 2k inserts" `Quick test_btree_many_inserts_invariants;
    Alcotest.test_case "btree: duplicate postings" `Quick test_btree_duplicates_random_match;
    Alcotest.test_case "btree: null ignored" `Quick test_btree_ignores_null;
    Alcotest.test_case "btree: agrees with hash index" `Quick test_btree_agrees_with_hash_index;
    QCheck_alcotest.to_alcotest btree_model_prop;
    Alcotest.test_case "btree: delete basics" `Quick test_btree_delete_basic;
    Alcotest.test_case "btree: delete_key" `Quick test_btree_delete_key;
    Alcotest.test_case "btree: delete everything" `Quick test_btree_delete_everything;
    QCheck_alcotest.to_alcotest btree_delete_model_prop;
  ]
