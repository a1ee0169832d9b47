open Rsj_relation
open Rsj_core
module Metrics = Rsj_exec.Metrics

let schema_ab = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_int) ]

let rel name rows =
  Relation.of_tuples ~name schema_ab
    (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) rows)

(* R1(a,b) join R2 on b=R2.a, join R3 on R2.b=R3.a — a 3-relation chain. *)
let r1 () = rel "r1" [ (1, 10); (2, 10); (3, 20) ]
let r2 () = rel "r2" [ (10, 100); (10, 200); (20, 100) ]
let r3 () = rel "r3" [ (100, 0); (100, 1); (200, 2) ]

(* Expected join:
   r1 rows with b=10 (two) x r2 rows with a=10 (two) x r3 matches:
     (10,100)->2 r3 rows; (10,200)->1 r3 row => each of 2 r1 rows gives 3
   r1 row (3,20) x (20,100) x 2 r3 rows = 2
   total = 2*3 + 2 = 8. *)
let expected_size = 8

(* A walker over a fresh index of R_k (no cache to borrow one from). *)
let prepare_cold ?metrics spec =
  let last, key = Chain_sample.last_level spec in
  Chain_sample.prepare ?metrics ~index:(Rsj_index.Hash_index.build last ~key) spec

let tree () =
  {
    Join_tree.base = r1 ();
    steps =
      [
        { Join_tree.left_col = 1; right = r2 (); right_key = 0 };
        { Join_tree.left_col = 3; right = r3 (); right_key = 0 };
      ];
  }

let chain_spec () =
  {
    Chain_sample.relations = [| r1 (); r2 (); r3 () |];
    join_keys = [| (1, 0); (1, 0) |];
  }

let test_tree_validate_and_schema () =
  let t = tree () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Join_tree.validate t));
  Alcotest.(check int) "schema arity" 6 (Schema.arity (Join_tree.output_schema t));
  let bad = { t with steps = [ { Join_tree.left_col = 9; right = r2 (); right_key = 0 } ] } in
  Alcotest.(check bool) "bad col detected" true (Result.is_error (Join_tree.validate bad))

let test_tree_cardinality () =
  Alcotest.(check int) "full join size" expected_size (Join_tree.cardinality (tree ()))

let test_tree_naive_sample () =
  let rng = Rsj_util.Prng.create ~seed:1 () in
  let out = Join_tree.naive_sample rng ~metrics:(Metrics.create ()) ~r:5 (tree ()) in
  Alcotest.(check int) "r samples" 5 (Array.length out);
  Array.iter (fun t -> Alcotest.(check int) "arity 6" 6 (Array.length t)) out

let test_tree_pushdown_sample () =
  let rng = Rsj_util.Prng.create ~seed:2 () in
  let metrics = Metrics.create () in
  let out = Join_tree.pushdown_sample rng ~metrics ~r:5 (tree ()) in
  Alcotest.(check int) "r samples" 5 (Array.length out);
  Array.iter (fun t -> Alcotest.(check int) "arity 6" 6 (Array.length t)) out

let full_join_universe () =
  Array.of_list (Rsj_exec.Plan.collect (Join_tree.to_plan (tree ())))

let test_tree_samplers_uniform () =
  let universe = full_join_universe () in
  Alcotest.(check int) "universe size" expected_size (Array.length universe);
  let rng = Rsj_util.Prng.create ~seed:3 () in
  let check name draw =
    let report = Negative.uniformity_check ~trials:400 ~universe ~draw in
    Alcotest.(check bool)
      (Printf.sprintf "%s uniform p=%.5f" name report.chi_square.p_value)
      true
      (report.chi_square.p_value > 0.001)
  in
  check "naive tree" (fun () ->
      Join_tree.naive_sample rng ~metrics:(Metrics.create ()) ~r:8 (tree ()));
  check "pushdown tree" (fun () ->
      Join_tree.pushdown_sample rng ~metrics:(Metrics.create ()) ~r:8 (tree ()))

(* The same chain plus rows the walker must never reach — NULL join
   keys, and dangling rows whose key has no match downstream (zero
   weight) — with every column stored as [ty] through [conv]. The
   extra rows come after the originals, so the original row ids stay
   put: r1 rows 3-4, r2 rows 3-5 and r3 rows 3-4 are unreachable. *)
let twin_spec (ty, conv) =
  let v = function Some x -> conv x | None -> Value.Null in
  let rel name rows =
    Relation.of_tuples ~name
      (Schema.of_list [ ("a", ty); ("b", ty) ])
      (List.map (fun (a, b) -> [| v a; v b |]) rows)
  in
  let some = List.map (fun (a, b) -> (Some a, Some b)) in
  {
    Chain_sample.relations =
      [|
        rel "r1" (some [ (1, 10); (2, 10); (3, 20) ] @ [ (Some 4, None); (Some 5, Some 30) ]);
        rel "r2"
          (some [ (10, 100); (10, 200); (20, 100) ]
          @ [ (None, Some 100); (Some 20, Some 999); (Some 30, None) ]);
        rel "r3" (some [ (100, 0); (100, 1); (200, 2) ] @ [ (None, Some 3); (Some 300, Some 4) ]);
      |];
    join_keys = [| (1, 0); (1, 0) |];
  }

let int_keys = (Value.T_int, fun x -> Value.Int x)

let twins =
  [
    ("int", int_keys);
    ("string", (Value.T_str, fun x -> Value.Str (string_of_int x)));
    ("float", (Value.T_float, fun x -> Value.Float (float_of_int x)));
  ]

let test_chain_join_size () =
  List.iter
    (fun (label, spec) ->
      let c = prepare_cold spec in
      Alcotest.(check (float 1e-9))
        (label ^ ": exact size without joining")
        (float_of_int expected_size) (Chain_sample.join_size c))
    (("plain", chain_spec ()) :: List.map (fun (l, keys) -> (l ^ " + dead rows", twin_spec keys)) twins)

(* How a key is stored never moves the walk: every twin draws the same
   row-id paths at the same seed, and no path enters a NULL or
   dangling row. *)
let test_chain_twins_same_paths () =
  let paths keys seed =
    Chain_sample.sample_rows
      (prepare_cold (twin_spec keys))
      (Rsj_util.Prng.create ~seed ()) ~r:200 ()
  in
  List.iter
    (fun seed ->
      let base = paths int_keys seed in
      Array.iter (fun row -> Alcotest.(check bool) "no dead row on a path" true (row < 3)) base;
      Alcotest.(check (array int)) "the plain chain walks the same paths" base
        (Chain_sample.sample_rows
           (prepare_cold (chain_spec ()))
           (Rsj_util.Prng.create ~seed ()) ~r:200 ());
      List.iter
        (fun (label, keys) ->
          Alcotest.(check (array int)) (label ^ " keys: same paths") base (paths keys seed))
        twins)
    [ 1; 2; 3 ]

(* One walk kernel: [sample] is [sample_rows] rehydrated, and [draw] is
   [sample ~r:1]. *)
let test_chain_sample_is_rehydrated_rows () =
  let spec = twin_spec int_keys in
  let c = prepare_cold spec in
  let tuples = Alcotest.(array (of_pp Tuple.pp)) in
  List.iter
    (fun (seed, r) ->
      let rows = Chain_sample.sample_rows c (Rsj_util.Prng.create ~seed ()) ~r () in
      Alcotest.(check tuples)
        (Printf.sprintf "sample = rehydrated sample_rows (seed %d, r %d)" seed r)
        (Relation.rehydrate spec.Chain_sample.relations rows)
        (Chain_sample.sample c (Rsj_util.Prng.create ~seed ()) ~r ()))
    [ (1, 1); (2, 17); (3, 1000) ];
  let a = Rsj_util.Prng.create ~seed:4 () and b = Rsj_util.Prng.create ~seed:4 () in
  for _ = 1 to 20 do
    Alcotest.(check tuples) "draw = sample ~r:1"
      (Chain_sample.sample c b ~r:1 ())
      (Option.to_list (Chain_sample.draw c a ()) |> Array.of_list)
  done

let test_chain_draw_membership_and_uniformity () =
  let c = prepare_cold (chain_spec ()) in
  let universe = full_join_universe () in
  let rng = Rsj_util.Prng.create ~seed:4 () in
  let report =
    Negative.uniformity_check ~trials:400 ~universe ~draw:(fun () ->
        Chain_sample.sample c rng ~r:8 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "chain sampler uniform p=%.5f" report.chi_square.p_value)
    true
    (report.chi_square.p_value > 0.001)

let test_chain_empty_join () =
  let spec =
    {
      Chain_sample.relations = [| r1 (); rel "dead" [ (999, 0) ] |];
      join_keys = [| (1, 0) |];
    }
  in
  let c = prepare_cold spec in
  Alcotest.(check (float 0.)) "size 0" 0. (Chain_sample.join_size c);
  let rng = Rsj_util.Prng.create () in
  Alcotest.(check bool) "draw None" true (Chain_sample.draw c rng () = None);
  Alcotest.(check (array (of_pp Tuple.pp))) "sample empty" [||] (Chain_sample.sample c rng ~r:3 ())

let test_chain_single_relation () =
  let spec = { Chain_sample.relations = [| r1 () |]; join_keys = [||] } in
  let c = prepare_cold spec in
  Alcotest.(check (float 0.)) "size = n1" 3. (Chain_sample.join_size c);
  let rng = Rsj_util.Prng.create ~seed:5 () in
  let out = Chain_sample.sample c rng ~r:4 () in
  Alcotest.(check int) "samples" 4 (Array.length out)

let test_chain_validation () =
  Alcotest.(check bool) "empty chain" true
    (try
       ignore (prepare_cold { Chain_sample.relations = [||]; join_keys = [||] });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong key count" true
    (try
       ignore (prepare_cold { Chain_sample.relations = [| r1 () |]; join_keys = [| (0, 0) |] });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "column out of range" true
    (try
       ignore
         (prepare_cold
            { Chain_sample.relations = [| r1 (); r2 () |]; join_keys = [| (9, 0) |] });
       false
     with Invalid_argument _ -> true);
  (* The borrowed last level must be R_k's index on the last join's
     column. *)
  let spec = { Chain_sample.relations = [| r1 (); r2 () |]; join_keys = [| (1, 0) |] } in
  let rejects label index =
    Alcotest.(check bool) label true
      (try
         ignore (Chain_sample.prepare ~index spec);
         false
       with Invalid_argument _ -> true)
  in
  rejects "index over another relation" (Rsj_index.Hash_index.build (r2 ()) ~key:0);
  rejects "index over another column" (Rsj_index.Hash_index.build spec.relations.(1) ~key:1)

(* rsj_alias_draws_total counts real alias picks: the root and the
   inner levels, r·(k−1) per batch; the last level's uniform pick is
   not one. *)
let test_alias_draw_count () =
  let counter = Rsj_obs.Registry.counter "rsj_alias_draws_total" in
  List.iter
    (fun (k, spec) ->
      let c = prepare_cold spec in
      let before = Rsj_obs.Registry.value counter in
      ignore (Chain_sample.sample_rows c (Rsj_util.Prng.create ~seed:4 ()) ~r:10 ());
      Alcotest.(check int) (Printf.sprintf "k = %d: 10·(k−1) alias draws" k) (10 * (k - 1))
        (Rsj_obs.Registry.value counter - before))
    [
      (2, { Chain_sample.relations = [| r1 (); r2 () |]; join_keys = [| (1, 0) |] });
      (3, chain_spec ());
    ]

let test_chain_long () =
  (* 4-relation chain with fan-out; verify exact size against the plan. *)
  let a = rel "a" (List.init 20 (fun i -> (i, i mod 4))) in
  let b = rel "b" (List.init 20 (fun i -> (i mod 4, i mod 5))) in
  let c = rel "c" (List.init 20 (fun i -> (i mod 5, i mod 3))) in
  let d = rel "d" (List.init 20 (fun i -> (i mod 3, i))) in
  let spec =
    { Chain_sample.relations = [| a; b; c; d |]; join_keys = [| (1, 0); (1, 0); (1, 0) |] }
  in
  let tree =
    {
      Join_tree.base = a;
      steps =
        [
          { Join_tree.left_col = 1; right = b; right_key = 0 };
          { Join_tree.left_col = 3; right = c; right_key = 0 };
          { Join_tree.left_col = 5; right = d; right_key = 0 };
        ];
    }
  in
  let prepared = prepare_cold spec in
  Alcotest.(check (float 1e-6)) "size matches materialized join"
    (float_of_int (Join_tree.cardinality tree))
    (Chain_sample.join_size prepared);
  let rng = Rsj_util.Prng.create ~seed:6 () in
  let out = Chain_sample.sample prepared rng ~r:10 () in
  Alcotest.(check int) "10 samples of arity 8" 10 (Array.length out);
  Array.iter (fun t -> Alcotest.(check int) "arity" 8 (Array.length t)) out

let suite =
  [
    Alcotest.test_case "tree validation and schema" `Quick test_tree_validate_and_schema;
    Alcotest.test_case "tree cardinality" `Quick test_tree_cardinality;
    Alcotest.test_case "tree naive sampling" `Quick test_tree_naive_sample;
    Alcotest.test_case "tree pushdown sampling" `Quick test_tree_pushdown_sample;
    Alcotest.test_case "tree samplers uniform" `Slow test_tree_samplers_uniform;
    Alcotest.test_case "chain exact join size" `Quick test_chain_join_size;
    Alcotest.test_case "chain paths ignore key storage and dead rows" `Quick
      test_chain_twins_same_paths;
    Alcotest.test_case "chain sample = rehydrated rows, draw = sample 1" `Quick
      test_chain_sample_is_rehydrated_rows;
    Alcotest.test_case "chain sampler uniform" `Slow test_chain_draw_membership_and_uniformity;
    Alcotest.test_case "chain empty join" `Quick test_chain_empty_join;
    Alcotest.test_case "chain of one relation" `Quick test_chain_single_relation;
    Alcotest.test_case "chain spec validation" `Quick test_chain_validation;
    Alcotest.test_case "alias draws counted per root and inner level" `Quick
      test_alias_draw_count;
    Alcotest.test_case "4-relation chain vs materialized join" `Quick test_chain_long;
  ]
