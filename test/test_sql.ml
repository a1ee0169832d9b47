open Rsj_relation
module Parser = Rsj_sql.Parser
module Ast = Rsj_sql.Ast
module Engine = Rsj_sql.Engine

(* ---------- parser ---------- *)

let parse_ok q =
  match Parser.parse q with
  | Ok ast -> ast
  | Error msg -> Alcotest.failf "parse failed: %s (query: %s)" msg q

let parse_err q =
  match Parser.parse q with
  | Ok _ -> Alcotest.failf "expected parse error for: %s" q
  | Error msg -> msg

(* The lexer, through the parser: qualified names, a quoted string with
   a doubled quote, every comparison spelling ('!=' is '<>'), and a
   character outside the language. *)
let test_tokenize () =
  (match Parser.parse "SELECT a.b FROM t WHERE x = 'it''s' AND y <= 12 AND y <> 1 AND y != 2" with
  | Ok q ->
      Alcotest.(check bool) "select a.b" true
        (q.Ast.select = [ Ast.S_col ({ Ast.table = Some "a"; name = "b" }, None) ]);
      Alcotest.(check bool) "string literal, quote undoubled" true
        (List.map (fun c -> (c.Ast.cmp, c.Ast.right)) q.Ast.where
        = [
            (Ast.Eq, Ast.O_lit (Ast.L_str "it's"));
            (Ast.Le, Ast.O_lit (Ast.L_int 12));
            (Ast.Ne, Ast.O_lit (Ast.L_int 1));
            (Ast.Ne, Ast.O_lit (Ast.L_int 2));
          ])
  | Error e -> Alcotest.fail e);
  match Parser.parse "select * from bad $ char" with
  | Ok _ -> Alcotest.fail "should reject $"
  | Error _ -> ()

let test_parse_star_join () =
  let q = parse_ok "SELECT * FROM t1, t2 WHERE t1.col2 = t2.col2" in
  Alcotest.(check int) "two tables" 2 (List.length q.Ast.from);
  Alcotest.(check int) "one condition" 1 (List.length q.Ast.where);
  Alcotest.(check bool) "star" true (q.Ast.select = [ Ast.S_star ]);
  match q.Ast.where with
  | [ { Ast.left; cmp = Ast.Eq; right = Ast.O_col rc } ] ->
      Alcotest.(check string) "left qualified" "t1.col2" (Ast.column_to_string left);
      Alcotest.(check string) "right qualified" "t2.col2" (Ast.column_to_string rc)
  | _ -> Alcotest.fail "unexpected condition shape"

let test_parse_sample_clause () =
  let q = parse_ok "select * from t1, t2 where t1.a = t2.a sample 100 using stream" in
  (match q.Ast.sample with
  | Some { Ast.size = Ast.Abs 100; strategy = Some "stream" } -> ()
  | _ -> Alcotest.fail "sample clause not parsed");
  let q2 = parse_ok "select * from t sample 50" in
  match q2.Ast.sample with
  | Some { Ast.size = Ast.Abs 50; strategy = None } -> ()
  | _ -> Alcotest.fail "plain sample not parsed"

(* SAMPLE p%: the fraction form of the sampling clause. *)
let test_parse_sample_fraction () =
  let q = parse_ok "select * from t1, t2 where t1.a = t2.a sample 5% using stream" in
  (match q.Ast.sample with
  | Some { Ast.size = Ast.Pct 5.; strategy = Some "stream" } -> ()
  | _ -> Alcotest.fail "integer percentage not parsed");
  let q2 = parse_ok "select * from t1, t2 where t1.a = t2.a sample 2.5%" in
  (match q2.Ast.sample with
  | Some { Ast.size = Ast.Pct 2.5; strategy = None } -> ()
  | _ -> Alcotest.fail "fractional percentage not parsed");
  ignore (parse_err "select * from t sample 0%");
  ignore (parse_err "select * from t sample 150%");
  ignore (parse_err "select * from t sample -5%");
  (* A non-integer count without the % sign stays an error. *)
  ignore (parse_err "select * from t sample 2.5")

let test_parse_aggregates () =
  let q =
    parse_ok
      "select category, count(*), sum(amount) as total from sales group by category limit 5"
  in
  Alcotest.(check int) "three items" 3 (List.length q.Ast.select);
  (match q.Ast.select with
  | [ Ast.S_col _; Ast.S_agg (Ast.Count, None, None); Ast.S_agg (Ast.Sum, Some c, Some "total") ]
    ->
      Alcotest.(check string) "sum column" "amount" c.Ast.name
  | _ -> Alcotest.fail "select items wrong");
  Alcotest.(check bool) "limit" true (q.Ast.limit = Some 5);
  Alcotest.(check int) "group by" 1 (List.length q.Ast.group_by)

let test_parse_literals_and_ops () =
  let q =
    parse_ok "select a from t where a >= 10 and b < 2.5 and c = 'x' and d <> 3"
  in
  Alcotest.(check int) "four conditions" 4 (List.length q.Ast.where)

let test_parse_errors () =
  let has_err q = ignore (parse_err q) in
  has_err "FROM t";
  has_err "select from t";
  has_err "select * from";
  has_err "select * from t where";
  has_err "select * from t sample";
  has_err "select * from t sample -3";
  has_err "select * from t trailing garbage ,";
  has_err "select count( from t"

(* ---------- engine ---------- *)

let orders_schema =
  Schema.of_list [ ("oid", Value.T_int); ("cust", Value.T_int); ("amount", Value.T_float) ]

let customers_schema = Schema.of_list [ ("cust", Value.T_int); ("city", Value.T_str) ]

let catalog () =
  let orders =
    Relation.of_tuples ~name:"orders" orders_schema
      [
        [| Value.Int 1; Value.Int 10; Value.Float 5. |];
        [| Value.Int 2; Value.Int 10; Value.Float 7. |];
        [| Value.Int 3; Value.Int 20; Value.Float 11. |];
        [| Value.Int 4; Value.Int 30; Value.Float 13. |];
      ]
  in
  let customers =
    Relation.of_tuples ~name:"customers" customers_schema
      [
        [| Value.Int 10; Value.str "oslo" |];
        [| Value.Int 20; Value.str "kyoto" |];
        [| Value.Int 20; Value.str "kyoto-east" |];
      ]
  in
  let regions =
    Relation.of_tuples ~name:"regions"
      (Schema.of_list [ ("city", Value.T_str); ("region", Value.T_str) ])
      [
        [| Value.str "oslo"; Value.str "north" |];
        [| Value.str "kyoto"; Value.str "east" |];
        [| Value.str "kyoto"; Value.str "west" |];
      ]
  in
  [ ("orders", orders); ("customers", customers); ("regions", regions) ]

let run_ok q =
  match Engine.run (catalog ()) q with
  | Ok r -> r
  | Error msg -> Alcotest.failf "query failed: %s (%s)" msg q

let run_err q =
  match Engine.run (catalog ()) q with
  | Ok _ -> Alcotest.failf "expected failure: %s" q
  | Error msg -> msg

let test_single_table_scan () =
  let r = run_ok "select * from orders" in
  Alcotest.(check int) "4 rows" 4 (List.length r.Engine.rows);
  Alcotest.(check int) "arity 3" 3 (Schema.arity r.Engine.schema)

let test_projection_and_filter () =
  let r = run_ok "select oid from orders where amount > 6 and cust = 10" in
  Alcotest.(check int) "one row" 1 (List.length r.Engine.rows);
  Alcotest.(check int) "oid 2" 2 (Value.to_int_exn (Tuple.get (List.hd r.Engine.rows) 0))

let test_join () =
  let r = run_ok "select * from orders, customers where orders.cust = customers.cust" in
  (* orders 1,2 join cust 10 (1 row); order 3 joins cust 20 (2 rows);
     order 4 unmatched: 2 + 2 = 4 rows *)
  Alcotest.(check int) "join rows" 4 (List.length r.Engine.rows);
  Alcotest.(check int) "arity 5" 5 (Schema.arity r.Engine.schema)

let test_join_with_alias () =
  let r = run_ok "select o.oid, c.city from orders o, customers c where o.cust = c.cust" in
  Alcotest.(check int) "4 rows" 4 (List.length r.Engine.rows);
  Alcotest.(check int) "2 cols" 2 (Schema.arity r.Engine.schema)

let test_aggregation () =
  let r =
    run_ok
      "select cust, count(*) as n, sum(amount) as total from orders group by cust"
  in
  Alcotest.(check int) "3 groups" 3 (List.length r.Engine.rows);
  let by_cust =
    List.map
      (fun row ->
        ( Value.to_int_exn (Tuple.get row 0),
          (Value.to_int_exn (Tuple.get row 1), Value.to_float_exn (Tuple.get row 2)) ))
      r.Engine.rows
  in
  Alcotest.(check bool) "cust 10" true (List.assoc 10 by_cust = (2, 12.));
  Alcotest.(check bool) "cust 20" true (List.assoc 20 by_cust = (1, 11.))

let test_global_aggregate () =
  let r = run_ok "select count(*), avg(amount) from orders" in
  match r.Engine.rows with
  | [ row ] ->
      Alcotest.(check int) "count 4" 4 (Value.to_int_exn (Tuple.get row 0));
      Alcotest.(check (float 1e-9)) "avg" 9. (Value.to_float_exn (Tuple.get row 1))
  | _ -> Alcotest.fail "expected one row"

let test_min_max_count_col () =
  let r = run_ok "select min(amount), max(amount), count(amount) from orders" in
  match r.Engine.rows with
  | [ row ] ->
      Alcotest.(check (float 0.)) "min" 5. (Value.to_float_exn (Tuple.get row 0));
      Alcotest.(check (float 0.)) "max" 13. (Value.to_float_exn (Tuple.get row 1));
      Alcotest.(check int) "count col" 4 (Value.to_int_exn (Tuple.get row 2))
  | _ -> Alcotest.fail "expected one row"

let test_limit () =
  let r = run_ok "select * from orders limit 2" in
  Alcotest.(check int) "2 rows" 2 (List.length r.Engine.rows)

let test_plain_sample () =
  let r = run_ok "select * from orders, customers where orders.cust = customers.cust sample 3" in
  Alcotest.(check int) "3 rows" 3 (List.length r.Engine.rows)

let test_strategy_sample () =
  let r =
    run_ok
      "select * from orders, customers where orders.cust = customers.cust sample 6 using stream"
  in
  Alcotest.(check int) "6 rows (WR)" 6 (List.length r.Engine.rows);
  (* Every sampled row is a genuine join row: cust columns match. *)
  List.iter
    (fun row ->
      Alcotest.(check bool) "join keys equal" true
        (Value.equal (Tuple.get row 1) (Tuple.get row 3)))
    r.Engine.rows

let test_strategy_sample_with_filter_pushdown () =
  let r =
    run_ok
      "select * from orders, customers where orders.cust = customers.cust and amount > 6 \
       sample 5 using fps"
  in
  Alcotest.(check int) "5 rows" 5 (List.length r.Engine.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "filter applied below sampling" true
        (Value.to_float_exn (Tuple.get row 2) > 6.))
    r.Engine.rows

let test_sample_then_aggregate () =
  let r =
    run_ok
      "select count(*) from orders, customers where orders.cust = customers.cust sample 10 \
       using naive"
  in
  match r.Engine.rows with
  | [ row ] -> Alcotest.(check int) "aggregates the sample" 10 (Value.to_int_exn (Tuple.get row 0))
  | _ -> Alcotest.fail "one row expected"

let test_engine_errors () =
  let check_msg q fragment =
    let msg = run_err q in
    let contains needle haystack =
      let nl = String.length needle and hl = String.length haystack in
      let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (q ^ " -> " ^ msg) true (contains fragment msg)
  in
  check_msg "select * from nope" "unknown table";
  check_msg "select nope from orders" "unknown column";
  check_msg "select cust from orders, customers where orders.cust = customers.cust" "ambiguous";
  check_msg "select * from orders, customers" "no equi-join";
  check_msg "select oid, count(*) from orders" "GROUP BY";
  check_msg "select * from orders sample 5 using stream" "two tables";
  check_msg
    "select * from orders, customers where orders.cust = customers.cust sample 5 using bogus"
    "unknown sampling strategy";
  check_msg "select sum(*) from orders" "requires a column"

let test_explain_available () =
  let r = run_ok "select * from orders, customers where orders.cust = customers.cust" in
  let s = Format.asprintf "%a" Rsj_exec.Plan.explain r.Engine.plan in
  Alcotest.(check bool) "plan renders" true (String.length s > 0)

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Satellite: the unknown-strategy error enumerates every valid name,
   so the user can fix the query without reading the source. *)
let test_unknown_strategy_lists_names () =
  let msg =
    run_err
      "select * from orders, customers where orders.cust = customers.cust sample 5 using bogus"
  in
  Alcotest.(check bool) ("mentions the bad name: " ^ msg) true (contains "\"bogus\"" msg);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("lists " ^ Rsj_core.Strategy.name s)
        true
        (contains (Rsj_core.Strategy.name s) msg))
    Rsj_core.Strategy.all

(* SAMPLE without USING on the two-table equi-join shape routes
   through the cost-based picker: the decision is reported, and the
   rows are a genuine WR join sample. *)
let test_picker_routed_sample () =
  let r =
    run_ok "select * from orders, customers where orders.cust = customers.cust sample 3"
  in
  Alcotest.(check int) "3 rows" 3 (List.length r.Engine.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "join keys equal" true
        (Value.equal (Tuple.get row 1) (Tuple.get row 3)))
    r.Engine.rows;
  match r.Engine.decision with
  | None -> Alcotest.fail "picker decision missing"
  | Some d ->
      Alcotest.(check string) "picker chose the cheapest feasible strategy"
        "Olken-Sample"
        (Rsj_core.Strategy.name d.Rsj_optimizer.Picker.chosen);
      let trace = Rsj_optimizer.Picker.to_string d in
      Alcotest.(check bool) "trace shows the reason" true (contains "cheapest" trace);
      Alcotest.(check bool) "trace lists candidates" true (contains "Naive-Sample" trace)

(* An explicit USING bypasses the picker: no decision is attached. *)
let test_named_strategy_skips_picker () =
  let r =
    run_ok
      "select * from orders, customers where orders.cust = customers.cust sample 4 using stream"
  in
  Alcotest.(check bool) "no picker decision" true (r.Engine.decision = None)

(* EXPLAIN plans (and, for picker-routed samples, decides) without
   executing: with telemetry on, neither a two-table strategy nor the
   chain walker records a draw span, while the same queries run
   without EXPLAIN do. *)
let test_explain_query () =
  let q = parse_ok "explain select * from orders sample 2" in
  Alcotest.(check bool) "parser flags explain" true q.Ast.explain;
  let r =
    run_ok "explain select * from orders, customers where orders.cust = customers.cust sample 3"
  in
  Alcotest.(check bool) "explained" true r.Engine.explained;
  Alcotest.(check int) "no rows executed" 0 (List.length r.Engine.rows);
  Alcotest.(check bool) "decision still attached" true (r.Engine.decision <> None);
  let plain = run_ok "explain select * from orders" in
  Alcotest.(check bool) "single-table explain" true plain.Engine.explained;
  Alcotest.(check int) "no rows" 0 (List.length plain.Engine.rows);
  let draw_spans q =
    let was = Rsj_obs.enabled () in
    Rsj_obs.set_enabled true;
    Rsj_obs.Trace.clear ();
    Fun.protect ~finally:(fun () ->
        Rsj_obs.Trace.clear ();
        Rsj_obs.set_enabled was)
    @@ fun () ->
    ignore (run_ok q);
    List.filter
      (fun (e : Rsj_obs.Trace.event) ->
        String.starts_with ~prefix:"strategy." e.name || e.name = "chain_sample.sample_rows")
      (Rsj_obs.Trace.events ())
    |> List.length
  in
  List.iter
    (fun q ->
      Alcotest.(check int) ("EXPLAIN draws nothing: " ^ q) 0 (draw_spans ("explain " ^ q));
      Alcotest.(check bool) ("running it draws: " ^ q) true (draw_spans q > 0))
    [
      "select * from orders, customers where orders.cust = customers.cust sample 5 using naive";
      "select * from orders, customers, regions where orders.cust = customers.cust and \
       customers.city = regions.city sample 5";
    ]

(* A sampler's own failure is an [Error], not an exception: Olken
   cannot draw from an empty R1. *)
let test_sampler_failure_is_error () =
  let cat = ("empty", Relation.create ~name:"empty" orders_schema) :: catalog () in
  match
    Engine.run cat "select * from empty, customers where empty.cust = customers.cust sample 5 \
                    using olken"
  with
  | Ok _ -> Alcotest.fail "sampling an empty R1 with Olken succeeded"
  | Error msg -> Alcotest.(check bool) ("reports the empty R1: " ^ msg) true (contains "empty R1" msg)

(* A two-table SAMPLE runs the same chunked runner a daemon sample
   request runs: for every strategy, the rows are exactly
   Rsj_parallel.run at one domain on an env with the same seed. *)
let test_strategy_sample_is_the_fast_path () =
  let module Strategy = Rsj_core.Strategy in
  let module Zipf_tables = Rsj_workload.Zipf_tables in
  let pair = Zipf_tables.make_pair ~seed:31 ~n1:200 ~n2:800 ~z1:1. ~z2:2. ~domain:30 () in
  let cat = [ ("t1", pair.Zipf_tables.outer); ("t2", pair.Zipf_tables.inner) ] in
  List.iter
    (fun s ->
      let using = String.map (function '-' -> '_' | c -> c) (Strategy.name s) in
      let q = "select * from t1, t2 where t1.col2 = t2.col2 sample 25 using " ^ using in
      let rows =
        match Engine.run ~seed:17 cat q with
        | Ok r -> List.map Tuple.to_string r.Engine.rows
        | Error e -> Alcotest.failf "%s: %s" q e
      in
      let env =
        Strategy.make_env ~seed:17 ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
          ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
      in
      let fast =
        (Rsj_parallel.run env s ~r:25 ~domains:1).Strategy.sample
        |> Array.map Tuple.to_string |> Array.to_list
      in
      Alcotest.(check (list string)) (Strategy.name s ^ ": SQL rows = Rsj_parallel.run d=1") fast rows)
    Strategy.all

let test_seed_reproducibility () =
  let q = "select * from orders, customers where orders.cust = customers.cust sample 4 using stream" in
  match (Engine.run ~seed:9 (catalog ()) q, Engine.run ~seed:9 (catalog ()) q) with
  | Ok a, Ok b ->
      List.iter2
        (fun x y -> Alcotest.(check bool) "same rows" true (Tuple.equal x y))
        a.Engine.rows b.Engine.rows
  | _ -> Alcotest.fail "queries failed"

let test_order_by () =
  let r = run_ok "select oid, amount from orders order by amount desc" in
  let amounts =
    List.map (fun t -> Value.to_float_exn (Tuple.get t 1)) r.Engine.rows
  in
  Alcotest.(check (list (float 0.))) "descending" [ 13.; 11.; 7.; 5. ] amounts;
  let r2 = run_ok "select oid from orders order by amount limit 2" in
  Alcotest.(check (list int)) "asc + limit" [ 1; 2 ]
    (List.map (fun t -> Value.to_int_exn (Tuple.get t 0)) r2.Engine.rows)

let test_order_by_aggregate_output () =
  let r =
    run_ok "select cust, sum(amount) as total from orders group by cust order by total desc"
  in
  let totals = List.map (fun t -> Value.to_float_exn (Tuple.get t 1)) r.Engine.rows in
  Alcotest.(check (list (float 1e-9))) "sorted by aggregate" [ 13.; 12.; 11. ] totals

let test_order_by_unknown_column () =
  let msg = run_err "select oid from orders order by nope" in
  Alcotest.(check bool) "mentions output" true (String.length msg > 0)

(* SAMPLE p% resolves against the exact join size before execution:
   |orders ⋈ customers| = 4, so 50% is ceil(2) = 2 rows, and a tiny
   fraction still draws the guaranteed minimum of one. *)
let test_engine_sample_fraction () =
  let r =
    run_ok
      "select * from orders, customers where orders.cust = customers.cust sample 50% using \
       stream"
  in
  Alcotest.(check int) "50% of |J|=4 is 2 rows" 2 (List.length r.Engine.rows);
  let r2 = run_ok "select * from orders, customers where orders.cust = customers.cust sample 5%" in
  Alcotest.(check int) "5% resolves to the minimum single row" 1 (List.length r2.Engine.rows);
  Alcotest.(check bool) "the fraction form still routes the picker" true
    (r2.Engine.decision <> None);
  let msg = run_err "select * from orders sample 50%" in
  Alcotest.(check bool) ("fraction needs the join shape: " ^ msg) true (contains "equi-join" msg)

(* The engine's auxiliary structures come from the shared warm cache:
   rerunning a query over the *same* relations rebuilds nothing, while
   fresh relations (new fingerprints) can never reuse stale entries. *)
let test_engine_warm_cache_reuse () =
  let module C = Rsj_cache.Structure_cache in
  let cache = C.shared () in
  let cat = catalog () in
  let q =
    "select * from orders, customers where orders.cust = customers.cust sample 50% using olken"
  in
  let run_q c =
    match Engine.run c q with Ok _ -> () | Error m -> Alcotest.failf "query failed: %s" m
  in
  let s0 = C.stats cache in
  run_q cat;
  let s1 = C.stats cache in
  Alcotest.(check bool) "first run pays the builds" true (s1.C.misses > s0.C.misses);
  run_q cat;
  let s2 = C.stats cache in
  Alcotest.(check int) "second run over the same relations builds nothing" s1.C.misses
    s2.C.misses;
  Alcotest.(check bool) "second run is served warm" true (s2.C.hits > s1.C.hits);
  run_q (catalog ());
  Alcotest.(check bool) "fresh relations miss (fingerprints differ)" true
    ((C.stats cache).C.misses > s2.C.misses)

(* A linear three-table chain with plain SAMPLE routes to the
   chain-walker: exactly r rows, both key pairs equal on every row, no
   picker decision (the walker is the only k>=3 strategy, so there is
   nothing to pick between), and the plan names the walk. *)
let test_chain_sample () =
  let r =
    run_ok
      "select * from orders, customers, regions where orders.cust = customers.cust and \
       customers.city = regions.city sample 5"
  in
  Alcotest.(check int) "5 rows" 5 (List.length r.Engine.rows);
  Alcotest.(check int) "arity 3+2+2" 7 (Schema.arity r.Engine.schema);
  List.iter
    (fun row ->
      Alcotest.(check bool) "cust keys equal" true
        (Value.equal (Tuple.get row 1) (Tuple.get row 3));
      Alcotest.(check bool) "city keys equal" true
        (Value.equal (Tuple.get row 4) (Tuple.get row 5)))
    r.Engine.rows;
  Alcotest.(check bool) "no picker decision on the chain path" true (r.Engine.decision = None);
  let s = Format.asprintf "%a" Rsj_exec.Plan.explain r.Engine.plan in
  Alcotest.(check bool) ("plan names the walker: " ^ s) true (contains "chain-walk" s)

(* SAMPLE p% on the chain resolves against the exact three-way join
   size: |orders ⋈ customers ⋈ regions| = 4 (orders 1,2 → oslo →
   north; order 3 → kyoto → {east,west}), so 50% is 2 rows. Constant
   predicates still push below the walk. *)
let test_chain_sample_fraction_and_filter () =
  let r =
    run_ok
      "select * from orders, customers, regions where orders.cust = customers.cust and \
       customers.city = regions.city sample 50%"
  in
  Alcotest.(check int) "50% of |J|=4 is 2 rows" 2 (List.length r.Engine.rows);
  let r2 =
    run_ok
      "select * from orders, customers, regions where orders.cust = customers.cust and \
       customers.city = regions.city and amount > 6 sample 4"
  in
  Alcotest.(check int) "4 rows" 4 (List.length r2.Engine.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "filter pushed below the walk" true
        (Value.to_float_exn (Tuple.get row 2) > 6.))
    r2.Engine.rows

(* run is parse + run_query: a pre-parsed query gives the same rows,
   and run_query reports engine errors as values too. *)
let test_run_query_on_ast () =
  let q = "select * from orders, customers where orders.cust = customers.cust sample 6" in
  let ast = match Parser.parse q with Ok a -> a | Error e -> Alcotest.failf "parse: %s" e in
  match (Engine.run ~seed:21 (catalog ()) q, Engine.run_query ~seed:21 (catalog ()) ast) with
  | Ok a, Ok b ->
      Alcotest.(check (list string)) "same rows"
        (List.map Tuple.to_string a.Engine.rows)
        (List.map Tuple.to_string b.Engine.rows);
      Alcotest.(check (option string)) "same sampler" a.Engine.sampler b.Engine.sampler;
      let missing =
        match Parser.parse "select * from nowhere" with Ok a -> a | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "unknown table is an Error" true
        (Result.is_error (Engine.run_query (catalog ()) missing))
  | Error e, _ | _, Error e -> Alcotest.failf "query failed: %s" e

let test_strategy_of_name () =
  List.iter
    (fun s ->
      match Rsj_sql.Sampler.strategy_of_name (Rsj_core.Strategy.name s) with
      | Ok s' ->
          Alcotest.(check string) "by paper name" (Rsj_core.Strategy.name s)
            (Rsj_core.Strategy.name s')
      | Error e -> Alcotest.fail e)
    Rsj_core.Strategy.all;
  Alcotest.(check bool) "short names" true
    (Rsj_sql.Sampler.strategy_of_name "hybrid-count" = Ok Rsj_core.Strategy.Hybrid_count);
  match Rsj_sql.Sampler.strategy_of_name "quantum" with
  | Ok _ -> Alcotest.fail "accepted an unknown strategy"
  | Error msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "%S mentions %s" msg needle) true
            (let n = String.length needle and l = String.length msg in
             let rec scan i = i + n <= l && (String.sub msg i n = needle || scan (i + 1)) in
             scan 0))
        ("\"quantum\"" :: List.map Rsj_core.Strategy.name Rsj_core.Strategy.all)

let suite =
  [
    Alcotest.test_case "tokenizer" `Quick test_tokenize;
    Alcotest.test_case "parse: the paper's query" `Quick test_parse_star_join;
    Alcotest.test_case "parse: sample clause" `Quick test_parse_sample_clause;
    Alcotest.test_case "parse: SAMPLE p%" `Quick test_parse_sample_fraction;
    Alcotest.test_case "parse: aggregates/group by/limit" `Quick test_parse_aggregates;
    Alcotest.test_case "parse: literals and operators" `Quick test_parse_literals_and_ops;
    Alcotest.test_case "parse: error cases" `Quick test_parse_errors;
    Alcotest.test_case "engine: single-table scan" `Quick test_single_table_scan;
    Alcotest.test_case "engine: run_query on a parsed query" `Quick test_run_query_on_ast;
    Alcotest.test_case "sampler: strategy names and the unknown-name error" `Quick
      test_strategy_of_name;
    Alcotest.test_case "engine: projection + filter" `Quick test_projection_and_filter;
    Alcotest.test_case "engine: join" `Quick test_join;
    Alcotest.test_case "engine: aliases" `Quick test_join_with_alias;
    Alcotest.test_case "engine: group by" `Quick test_aggregation;
    Alcotest.test_case "engine: global aggregates" `Quick test_global_aggregate;
    Alcotest.test_case "engine: min/max/count(col)" `Quick test_min_max_count_col;
    Alcotest.test_case "engine: limit" `Quick test_limit;
    Alcotest.test_case "engine: SAMPLE n (picker-routed)" `Quick test_plain_sample;
    Alcotest.test_case "engine: unknown USING lists valid names" `Quick
      test_unknown_strategy_lists_names;
    Alcotest.test_case "engine: picker routes plain SAMPLE" `Quick test_picker_routed_sample;
    Alcotest.test_case "engine: USING bypasses picker" `Quick test_named_strategy_skips_picker;
    Alcotest.test_case "engine: EXPLAIN plans without executing" `Quick test_explain_query;
    Alcotest.test_case "engine: a sampler failure is an Error" `Quick
      test_sampler_failure_is_error;
    Alcotest.test_case "engine: SAMPLE USING stream" `Quick test_strategy_sample;
    Alcotest.test_case "engine: filter pushdown below sampling" `Quick
      test_strategy_sample_with_filter_pushdown;
    Alcotest.test_case "engine: aggregate over a sample" `Quick test_sample_then_aggregate;
    Alcotest.test_case "engine: error messages" `Quick test_engine_errors;
    Alcotest.test_case "engine: explain" `Quick test_explain_available;
    Alcotest.test_case "engine: seeded reproducibility" `Quick test_seed_reproducibility;
    Alcotest.test_case "engine: SAMPLE USING runs the parallel runner at d=1" `Quick
      test_strategy_sample_is_the_fast_path;
    Alcotest.test_case "engine: order by" `Quick test_order_by;
    Alcotest.test_case "engine: order by aggregate alias" `Quick test_order_by_aggregate_output;
    Alcotest.test_case "engine: order by unknown column" `Quick test_order_by_unknown_column;
    Alcotest.test_case "engine: SAMPLE p% resolves against |J|" `Quick
      test_engine_sample_fraction;
    Alcotest.test_case "engine: warm cache reuse across runs" `Quick
      test_engine_warm_cache_reuse;
    Alcotest.test_case "engine: 3-table chain SAMPLE routes to the walker" `Quick
      test_chain_sample;
    Alcotest.test_case "engine: chain SAMPLE p% + filter pushdown" `Quick
      test_chain_sample_fraction_and_filter;
  ]
