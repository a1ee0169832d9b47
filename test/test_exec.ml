open Rsj_relation
open Rsj_exec

let schema_ab = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_int) ]
let schema_ac = Schema.of_list [ ("a", Value.T_int); ("c", Value.T_int) ]

let rel name schema rows =
  Relation.of_tuples ~name schema (List.map (fun r -> Array.of_list (List.map Value.int r)) rows)

let left () = rel "L" schema_ab [ [ 1; 10 ]; [ 2; 20 ]; [ 2; 21 ]; [ 3; 30 ] ]
let right () = rel "R" schema_ac [ [ 2; 200 ]; [ 2; 201 ]; [ 3; 300 ]; [ 4; 400 ] ]

(* The expected equi-join of left and right on a: (2,20)x(2,200),(2,201);
   (2,21)x(2,200),(2,201); (3,30)x(3,300) -> 5 tuples. *)
let expected_join_size = 5

let sort_tuples l = List.sort compare l

let expected_join_tuples () =
  sort_tuples
    (List.map (fun l -> Array.of_list (List.map Value.int l))
       [
         [ 2; 20; 2; 200 ];
         [ 2; 20; 2; 201 ];
         [ 2; 21; 2; 200 ];
         [ 2; 21; 2; 201 ];
         [ 3; 30; 3; 300 ];
       ])

let join algorithm =
  Plan.Join
    {
      Plan.algorithm;
      left = Plan.Scan (left ());
      right = Plan.Scan (right ());
      left_key = 0;
      right_key = 0;
    }

let test_join_algorithms_agree () =
  List.iter
    (fun alg ->
      let out = sort_tuples (Plan.collect (join alg)) in
      Alcotest.(check int) "size" expected_join_size (List.length out);
      List.iter2
        (fun a b -> Alcotest.(check bool) "tuples equal" true (Tuple.equal a b))
        (expected_join_tuples ()) out)
    [ Plan.Hash; Plan.Merge; Plan.Nested_loop ]

let test_join_null_never_matches () =
  let l = Relation.of_tuples ~name:"L" schema_ab [ [| Value.Null; Value.Int 1 |] ] in
  let r = Relation.of_tuples ~name:"R" schema_ac [ [| Value.Null; Value.Int 2 |] ] in
  List.iter
    (fun alg ->
      let p =
        Plan.Join
          { Plan.algorithm = alg; left = Plan.Scan l; right = Plan.Scan r; left_key = 0; right_key = 0 }
      in
      Alcotest.(check int) "null joins nothing" 0 (Plan.count p))
    [ Plan.Hash; Plan.Merge; Plan.Nested_loop ]

let test_join_schema () =
  let s = Plan.schema_of (join Plan.Hash) in
  Alcotest.(check int) "arity 4" 4 (Schema.arity s);
  Alcotest.(check string) "collision prefixed" "l.a" (Schema.column_name s 0)

let test_index_join () =
  let idx = Rsj_index.Hash_index.build (right ()) ~key:0 in
  let p = Plan.Index_join { Plan.ij_left = Plan.Scan (left ()); ij_left_key = 0; ij_index = idx } in
  let out = sort_tuples (Plan.collect p) in
  Alcotest.(check int) "size" expected_join_size (List.length out);
  List.iter2
    (fun a b -> Alcotest.(check bool) "tuples" true (Tuple.equal a b))
    (expected_join_tuples ()) out

let test_filter_project () =
  let p =
    Plan.Project
      ([ 1 ], Plan.Filter (Predicate.Ge (0, Value.Int 2), Plan.Scan (left ())))
  in
  let out = Plan.collect p in
  Alcotest.(check (list int)) "b values with a>=2" [ 20; 21; 30 ]
    (List.map (fun t -> Value.to_int_exn (Tuple.get t 0)) out)

let test_sort_limit () =
  let p = Plan.Limit (2, Plan.Sort (1, Plan.Scan (left ()))) in
  let out = Plan.collect p in
  Alcotest.(check (list int)) "two smallest b" [ 10; 20 ]
    (List.map (fun t -> Value.to_int_exn (Tuple.get t 1)) out)

let test_metrics_counting () =
  let m = Metrics.create () in
  ignore (Plan.collect ~metrics:m (join Plan.Hash));
  Alcotest.(check int) "scanned both relations" 8 m.Metrics.tuples_scanned;
  Alcotest.(check int) "hash build = |R|" 4 m.Metrics.hash_build_tuples;
  Alcotest.(check int) "join outputs" expected_join_size m.Metrics.join_output_tuples;
  Alcotest.(check int) "delivered" expected_join_size m.Metrics.output_tuples

let test_metrics_ops () =
  let a = Metrics.create () in
  a.Metrics.tuples_scanned <- 3;
  a.Metrics.stats_lookups <- 2;
  let c = Metrics.add a a in
  Alcotest.(check int) "add" 6 c.Metrics.tuples_scanned;
  Alcotest.(check int) "total_work" 10 (Metrics.total_work c);
  Alcotest.(check int) "assoc entries" 9 (List.length (Metrics.to_assoc c))

(* Exercise every counter through the derived operations at once, so a
   field dropped from the spec table (the drift the refactor guards
   against) fails here rather than silently exporting zeros. *)
let test_metrics_field_spec_consistency () =
  let m = Metrics.create () in
  m.Metrics.tuples_scanned <- 1;
  m.Metrics.join_output_tuples <- 2;
  m.Metrics.index_probes <- 3;
  m.Metrics.hash_build_tuples <- 4;
  m.Metrics.sort_tuples <- 5;
  m.Metrics.output_tuples <- 6;
  m.Metrics.random_accesses <- 7;
  m.Metrics.rejected_samples <- 8;
  m.Metrics.stats_lookups <- 9;
  let expected =
    [
      ("tuples_scanned", 1);
      ("join_output_tuples", 2);
      ("index_probes", 3);
      ("hash_build_tuples", 4);
      ("sort_tuples", 5);
      ("output_tuples", 6);
      ("random_accesses", 7);
      ("rejected_samples", 8);
      ("stats_lookups", 9);
    ]
  in
  Alcotest.(check (list (pair string int))) "to_assoc sees every field" expected
    (Metrics.to_assoc m);
  Alcotest.(check (list (pair string int))) "add doubles every field"
    (List.map (fun (k, v) -> (k, 2 * v)) expected)
    (Metrics.to_assoc (Metrics.add m m));
  (* total_work is the assoc sum minus delivered output tuples. *)
  Alcotest.(check int) "total_work excludes output_tuples"
    (List.fold_left (fun acc (_, v) -> acc + v) 0 expected - m.Metrics.output_tuples)
    (Metrics.total_work m)

let test_transform_node () =
  (* A transform doubling every first column models a sampling operator
     splice point. *)
  let double m stream =
    ignore m;
    Stream0.map
      (fun t -> [| Value.Int (2 * Value.to_int_exn (Tuple.get t 0)); Tuple.get t 1 |])
      stream
  in
  let p =
    Plan.Transform
      {
        Plan.transform_name = "Double";
        child = Plan.Scan (left ());
        out_schema = None;
        apply = double;
      }
  in
  let out = Plan.collect p in
  Alcotest.(check (list int)) "doubled" [ 2; 4; 4; 6 ]
    (List.map (fun t -> Value.to_int_exn (Tuple.get t 0)) out)

let test_source_node () =
  let produce () = Stream0.of_list [ Array.map Value.int [| 7; 8 |] ] in
  let p = Plan.source_of_stream ~name:"pipe" schema_ab produce in
  Alcotest.(check int) "one tuple" 1 (Plan.count p)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_explain_renders () =
  let s = Format.asprintf "%a" Plan.explain (join Plan.Hash) in
  Alcotest.(check bool) "mentions join" true (contains ~needle:"Join (hash)" s);
  Alcotest.(check bool) "mentions scans" true (contains ~needle:"Scan L" s)

let test_predicates () =
  let t = Array.map Value.int [| 5; 10 |] in
  let open Predicate in
  Alcotest.(check bool) "eq" true (eval (Eq (0, Value.Int 5)) t);
  Alcotest.(check bool) "ne" true (eval (Ne (0, Value.Int 6)) t);
  Alcotest.(check bool) "lt" true (eval (Lt (0, Value.Int 6)) t);
  Alcotest.(check bool) "le" true (eval (Le (0, Value.Int 5)) t);
  Alcotest.(check bool) "gt" false (eval (Gt (0, Value.Int 5)) t);
  Alcotest.(check bool) "ge" true (eval (Ge (1, Value.Int 10)) t);
  Alcotest.(check bool) "between" true (eval (Between (1, Value.Int 9, Value.Int 11)) t);
  Alcotest.(check bool) "and" true (eval (And (True, Eq (0, Value.Int 5))) t);
  Alcotest.(check bool) "or" true (eval (Or (Eq (0, Value.Int 9), True)) t);
  Alcotest.(check bool) "not" false (eval (Not True) t);
  Alcotest.(check bool) "custom" true (eval (Custom ("c", fun _ -> true)) t);
  let tn = [| Value.Null; Value.Int 1 |] in
  Alcotest.(check bool) "null comparison false" false (eval (Eq (0, Value.Int 5)) tn);
  Alcotest.(check bool) "null lt false" false (eval (Lt (0, Value.Int 99)) tn);
  Alcotest.(check bool) "is_null" true (eval (Is_null 0) tn);
  Alcotest.(check bool) "not_null" true (eval (Not_null 1) tn);
  Alcotest.(check bool) "to_string total" true (String.length (to_string (And (True, Not (Eq (0, Value.Int 1))))) > 0)

let test_predicate_to_string () =
  let open Predicate in
  let p =
    Or
      ( And (Between (1, Value.Int 2, Value.Int 9), Not (Is_null 0)),
        Or (Ne (0, Value.str "x"), Custom ("my_udf", fun _ -> true)) )
  in
  Alcotest.(check string) "compound" "((#1 between 2 and 9 and (not #0 is null)) or (#0 <> \"x\" or my_udf))"
    (to_string p);
  Alcotest.(check (list string))
    "comparisons"
    [ "true"; "#0 = 1"; "#0 < 1"; "#0 <= 1"; "#0 > 1"; "#0 >= 1"; "#2 is not null" ]
    (List.map to_string
       [ True; Eq (0, Value.Int 1); Lt (0, Value.Int 1); Le (0, Value.Int 1); Gt (0, Value.Int 1);
         Ge (0, Value.Int 1); Not_null 2 ])

(* Property: on one nullable int column, eval agrees with a model in
   which every comparison against NULL is false and the connectives
   are the two-valued ones. *)
let predicate_model_prop =
  let open QCheck in
  let leaf =
    Gen.(
      let c = int_range (-2) 2 in
      oneof
        [
          return (Predicate.True, fun _ -> true);
          map (fun v -> (Predicate.Eq (0, Value.Int v), function Some x -> x = v | None -> false)) c;
          map (fun v -> (Predicate.Ne (0, Value.Int v), function Some x -> x <> v | None -> false)) c;
          map (fun v -> (Predicate.Lt (0, Value.Int v), function Some x -> x < v | None -> false)) c;
          map (fun v -> (Predicate.Le (0, Value.Int v), function Some x -> x <= v | None -> false)) c;
          map (fun v -> (Predicate.Gt (0, Value.Int v), function Some x -> x > v | None -> false)) c;
          map (fun v -> (Predicate.Ge (0, Value.Int v), function Some x -> x >= v | None -> false)) c;
          map2
            (fun lo hi ->
              ( Predicate.Between (0, Value.Int lo, Value.Int hi),
                function Some x -> lo <= x && x <= hi | None -> false ))
            c c;
          return (Predicate.Is_null 0, Option.is_none);
          return (Predicate.Not_null 0, Option.is_some);
        ])
  in
  let tree =
    Gen.(
      sized_size (int_bound 4)
      @@ fix (fun self n ->
             if n = 0 then leaf
             else
               frequency
                 [
                   (1, leaf);
                   (2, map2 (fun (a, fa) (b, fb) -> (Predicate.And (a, b), fun x -> fa x && fb x)) (self (n / 2)) (self (n / 2)));
                   (2, map2 (fun (a, fb) (b, fc) -> (Predicate.Or (a, b), fun x -> fb x || fc x)) (self (n / 2)) (self (n / 2)));
                   (1, map (fun (a, fa) -> (Predicate.Not a, fun x -> not (fa x))) (self (n - 1)));
                 ]))
  in
  Test.make ~name:"predicate eval matches a two-valued model" ~count:300
    (make ~print:(fun (p, _) -> Predicate.to_string p) tree)
    (fun (p, model) ->
      List.for_all
        (fun x ->
          let row = [| (match x with Some v -> Value.Int v | None -> Value.Null) |] in
          Predicate.eval p row = model x)
        (None :: List.init 7 (fun i -> Some (i - 3))))

let test_io_model () =
  let open Rsj_exec in
  let m = Metrics.create () in
  m.Metrics.tuples_scanned <- 1_000;
  m.Metrics.random_accesses <- 10;
  m.Metrics.index_probes <- 5;
  m.Metrics.join_output_tuples <- 200;
  let disk = Io_model.default_disk in
  (* One scanned page costs 1, so against it the relative cost is 100x
     the disk cost: 10 sequential pages + 15 random pages * 4 + 200 *
     0.01. *)
  let page = Metrics.create () in
  page.Metrics.tuples_scanned <- 100;
  Alcotest.(check (float 1e-9)) "disk cost" (100. *. (10. +. 60. +. 2.))
    (Io_model.relative_pct disk ~baseline:page m);
  let baseline = Metrics.create () in
  baseline.Metrics.tuples_scanned <- 2_000;
  Alcotest.(check (float 1e-9)) "relative" (72. /. 20. *. 100.)
    (Io_model.relative_pct disk ~baseline m);
  Alcotest.(check bool) "empty baseline" true
    (Float.is_nan (Io_model.relative_pct disk ~baseline:(Metrics.create ()) m));
  Alcotest.(check bool) "bad page size" true
    (try
       ignore (Io_model.relative_pct { disk with Io_model.page_size_tuples = 0 } ~baseline m);
       false
     with Invalid_argument _ -> true)

let test_io_model_orders_random_access () =
  (* Two runs with the same total_work: the disk model must punish the
     random-access-heavy one. *)
  let open Rsj_exec in
  let scanner = Metrics.create () in
  scanner.Metrics.tuples_scanned <- 10_000;
  let prober = Metrics.create () in
  prober.Metrics.random_accesses <- 10_000;
  Alcotest.(check int) "same in-memory work" (Metrics.total_work scanner)
    (Metrics.total_work prober);
  Alcotest.(check bool) "disk model separates them" true
    (Io_model.relative_pct Io_model.default_disk ~baseline:scanner prober > 10_000.)

(* pp prints one aligned line per counter, in to_assoc order, then the
   total work. *)
let test_metrics_pp () =
  let m = Metrics.create () in
  m.Metrics.tuples_scanned <- 12;
  m.Metrics.random_accesses <- 3;
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Metrics.pp m) in
  let expected =
    List.map (fun (k, v) -> Printf.sprintf "%-20s %d" k v) (Metrics.to_assoc m)
    @ [ Printf.sprintf "%-20s %d" "total_work" (Metrics.total_work m) ]
  in
  Alcotest.(check (list string)) "one line per counter, then total_work" expected lines

let suite =
  [
    Alcotest.test_case "hash/merge/nested-loop joins agree" `Quick test_join_algorithms_agree;
    Alcotest.test_case "NULL never joins" `Quick test_join_null_never_matches;
    Alcotest.test_case "join output schema" `Quick test_join_schema;
    Alcotest.test_case "index nested-loop join" `Quick test_index_join;
    Alcotest.test_case "filter and project" `Quick test_filter_project;
    Alcotest.test_case "sort and limit" `Quick test_sort_limit;
    Alcotest.test_case "metrics counted by operators" `Quick test_metrics_counting;
    Alcotest.test_case "metrics arithmetic" `Quick test_metrics_ops;
    Alcotest.test_case "metrics pretty-printer" `Quick test_metrics_pp;
    Alcotest.test_case "metrics field-spec consistency" `Quick test_metrics_field_spec_consistency;
    Alcotest.test_case "transform extension point" `Quick test_transform_node;
    Alcotest.test_case "pipelined source node" `Quick test_source_node;
    Alcotest.test_case "explain renders" `Quick test_explain_renders;
    Alcotest.test_case "predicate evaluation incl. NULL" `Quick test_predicates;
    Alcotest.test_case "predicate rendering" `Quick test_predicate_to_string;
    QCheck_alcotest.to_alcotest predicate_model_prop;
    Alcotest.test_case "I/O cost model arithmetic" `Quick test_io_model;
    Alcotest.test_case "I/O model penalizes random access" `Quick test_io_model_orders_random_access;
  ]
