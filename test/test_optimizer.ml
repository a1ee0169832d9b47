(* The cost-based strategy picker: golden decision table over synthetic
   catalog states, cost-formula agreement with the Join_size analytics
   on a real instance, the normal quantile, and the error-report
   machinery backing the per-query guarantees. *)

module Strategy = Rsj_core.Strategy
module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Join_size = Rsj_stats.Join_size
module Zipf_tables = Rsj_workload.Zipf_tables
module Stats_math = Rsj_util.Stats_math
module Catalog = Rsj_optimizer.Catalog
module Cost_model = Rsj_optimizer.Cost_model
module Picker = Rsj_optimizer.Picker
module Error_report = Rsj_optimizer.Error_report
module Tuple = Rsj_relation.Tuple
module Value = Rsj_relation.Value

(* ------------------------------------------------------------------ *)
(* Synthetic fixtures: n1 = 40 over 8 uniform values; n2 = 80 either
   uniform (8 × 10) or skewed (v1:50, v2..v7:5). |J| = 400 both ways.
   The 20% end-biased histogram (threshold 16) tracks only v1 in the
   skewed table and nothing in the uniform one. *)

let v i = Value.Int i
(* A frequency table holding exactly these (value, count) pairs, built
   the library's way: from a relation's key column. *)
let freq_of_assoc pairs =
  Rsj_stats.Frequency.of_relation ~key:0
    (Rsj_relation.Relation.of_tuples
       (Rsj_relation.Schema.of_list [ ("k", Rsj_relation.Value.T_int) ])
       (List.concat_map (fun (v, n) -> List.init n (fun _ -> [| v |])) pairs))

let m1_uniform = freq_of_assoc (List.init 8 (fun i -> (v (i + 1), 5)))
let m2_uniform = freq_of_assoc (List.init 8 (fun i -> (v (i + 1), 10)))

let m2_skew =
  freq_of_assoc ((v 1, 50) :: List.init 6 (fun i -> (v (i + 2), 5)))

let hist_of m2 = Histogram.End_biased.build_fraction m2 ~fraction:0.2

type profile = Full | No_index | Histogram_only | Index_only | Bare

let availability = function
  | Full -> Strategy.all_available
  | No_index ->
      { Strategy.left_index = false; right_index = false; right_stats = true; right_histogram = true }
  | Histogram_only ->
      { Strategy.left_index = false; right_index = false; right_stats = false; right_histogram = true }
  | Index_only ->
      { Strategy.left_index = true; right_index = true; right_stats = false; right_histogram = false }
  | Bare -> Strategy.nothing_available

let catalog ?(join_size = 400.) profile m2 =
  let a = availability profile in
  let stats = a.Strategy.right_stats in
  {
    Catalog.availability = a;
    n1 = 40;
    n2 = 80;
    left_stats = (if stats then Some m1_uniform else None);
    right_stats = (if stats then Some m2 else None);
    histogram = (if a.Strategy.right_histogram then Some (hist_of m2) else None);
    join_size;
    join_size_exact = stats;
    join_size_stderr = 0.;
  }

(* The empty join: full statistics over disjoint domains (no histogram,
   so the partition strategies stay out of the comparison). *)
let empty_join_catalog =
  {
    Catalog.availability = { Strategy.all_available with Strategy.right_histogram = false };
    n1 = 40;
    n2 = 35;
    left_stats = Some m1_uniform;
    right_stats = Some (freq_of_assoc (List.init 7 (fun i -> (v (i + 101), 5))));
    histogram = None;
    join_size = 0.;
    join_size_exact = true;
    join_size_stderr = 0.;
  }

(* ------------------------------------------------------------------ *)
(* Golden decision table: every row hand-checked against the paper's
   formulas (Theorems 5-9, §6.4). *)

let golden_cells =
  [
    (* label, catalog, r, expected winner, expected reason *)
    ("full uniform r=8", catalog Full m2_uniform, 8, Strategy.Olken, Picker.Cheapest);
    ("full uniform r=64", catalog Full m2_uniform, 64, Strategy.Olken, Picker.Cheapest);
    ("full skew r=8", catalog Full m2_skew, 8, Strategy.Olken, Picker.Cheapest);
    (* Olken pays r·M·n1/|J| = 64·50·40/400 = 320 > Stream's 104. *)
    ("full skew r=64", catalog Full m2_skew, 64, Strategy.Stream, Picker.Cheapest);
    ("full skew r=0", catalog Full m2_skew, 0, Strategy.Olken, Picker.Cheapest);
    (* |J| = 0 makes Olken's acceptance loop run forever (Thm 5 cost is
       infinite); Group degenerates to its n1 scan and wins. *)
    ("full empty join r=8", empty_join_catalog, 8, Strategy.Group, Picker.Cheapest);
    ("no-index uniform r=8", catalog No_index m2_uniform, 8, Strategy.Stream, Picker.Cheapest);
    ("no-index skew r=8", catalog No_index m2_skew, 8, Strategy.Stream, Picker.Cheapest);
    ("no-index skew r=64", catalog No_index m2_skew, 64, Strategy.Stream, Picker.Cheapest);
    ("histogram-only skew r=8", catalog Histogram_only m2_skew, 8, Strategy.Hybrid_count, Picker.Cheapest);
    ("histogram-only uniform r=8", catalog Histogram_only m2_uniform, 8, Strategy.Hybrid_count, Picker.Cheapest);
    (* At r = 320 Hybrid (n1+n2+r = 440) ties Frequency-Partition
       (n1 + lo + 0 = 440, nothing tracked): rank breaks the tie. *)
    ("histogram-only uniform r=320 tie", catalog Histogram_only m2_uniform, 320, Strategy.Hybrid_count, Picker.Cheapest);
    (* Index but no statistics: M is only bounded by n2 = 80, so Olken
       costs r·80·40/400; Stream still wins at r=8, Olken at r=2. *)
    ("index-only r=8", catalog Index_only m2_uniform, 8, Strategy.Stream, Picker.Cheapest);
    ("index-only r=2", catalog Index_only m2_uniform, 2, Strategy.Olken, Picker.Cheapest);
    ("bare r=8", catalog Bare m2_skew, 8, Strategy.Naive, Picker.Only_feasible);
  ]

let test_golden_decisions () =
  List.iter
    (fun (label, cat, r, expect, expect_reason) ->
      let chosen, decision = Picker.choose cat (Cost_model.shape ~r) in
      Alcotest.(check string) label (Strategy.name expect) (Strategy.name chosen);
      Alcotest.(check string)
        (label ^ " reason")
        (Picker.reason_to_string expect_reason)
        (Picker.reason_to_string decision.Picker.reason);
      Alcotest.(check int)
        (label ^ " candidates cover all strategies")
        (List.length Strategy.all)
        (List.length decision.Picker.candidates))
    golden_cells;
  Alcotest.(check bool) "table has at least 12 cells" true (List.length golden_cells >= 12)

let feasible_cost decision strategy =
  match
    List.find_opt
      (fun (c : Cost_model.costing) -> c.Cost_model.strategy = strategy)
      decision.Picker.candidates
  with
  | Some { Cost_model.verdict = Cost_model.Feasible cost; _ } -> cost
  | Some { Cost_model.verdict = Cost_model.Infeasible _; _ } ->
      Alcotest.failf "%s unexpectedly infeasible" (Strategy.name strategy)
  | None -> Alcotest.failf "%s missing from candidates" (Strategy.name strategy)

let test_golden_costs_pinned () =
  (* Spot-pin the arithmetic behind the headline rows. *)
  let _, d = Picker.choose (catalog Full m2_skew) (Cost_model.shape ~r:8) in
  Alcotest.(check (float 1e-9)) "Olken skew r=8" 40. (feasible_cost d Strategy.Olken);
  Alcotest.(check (float 1e-9)) "Stream skew r=8" 48. (feasible_cost d Strategy.Stream);
  Alcotest.(check (float 1e-9)) "Naive skew" 520. (feasible_cost d Strategy.Naive);
  Alcotest.(check (float 1e-9)) "Count skew r=8" 128. (feasible_cost d Strategy.Count_sample);
  (* FPS with exact stats: lo = 150, per-draw = Σ_hi m1m2²/Σ_hi m1m2 =
     12500/250 = 50 → 40 + 150 + 8·50 = 590. *)
  Alcotest.(check (float 1e-9)) "FPS skew r=8" 590.
    (feasible_cost d Strategy.Frequency_partition);
  Alcotest.(check (float 1e-9)) "Index-Sample skew r=8" 198.
    (feasible_cost d Strategy.Index_sample);
  (* Group: Σ m1m2² = 5·2500 + 6·5·25 = 13250 → 40 + 8·13250/400 = 305. *)
  Alcotest.(check (float 1e-9)) "Group skew r=8" 305. (feasible_cost d Strategy.Group);
  let _, d0 = Picker.choose empty_join_catalog (Cost_model.shape ~r:8) in
  Alcotest.(check bool) "Olken infinite on empty join" true
    (feasible_cost d0 Strategy.Olken = infinity);
  Alcotest.(check (float 1e-9)) "Group = n1 on empty join" 40.
    (feasible_cost d0 Strategy.Group)

let test_decision_trace () =
  let _, d = Picker.choose (catalog Bare m2_skew) (Cost_model.shape ~r:8) in
  let missing strategy =
    match
      List.find
        (fun (c : Cost_model.costing) -> c.Cost_model.strategy = strategy)
        d.Picker.candidates
    with
    | { Cost_model.verdict = Cost_model.Infeasible m; _ } -> m
    | _ -> Alcotest.failf "%s unexpectedly feasible on a bare catalog" (Strategy.name strategy)
  in
  Alcotest.(check (list string)) "Olken names both gaps"
    [ "index(R1)"; "index(R2) or statistics(R2)" ]
    (missing Strategy.Olken);
  Alcotest.(check (list string)) "Group needs statistics" [ "statistics(R2)" ]
    (missing Strategy.Group);
  Alcotest.(check (list string)) "FPS needs the histogram"
    [ "end-biased histogram(R2)" ]
    (missing Strategy.Frequency_partition);
  Alcotest.(check (list string)) "Index-Sample needs histogram and hi-index"
    [ "end-biased histogram(R2)"; "index(R2hi)" ]
    (missing Strategy.Index_sample);
  let text = Picker.to_string d in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "trace mentions %S" needle)
        true
        (let n = String.length needle and ln = String.length text in
         let rec scan i = i + n <= ln && (String.sub text i n = needle || scan (i + 1)) in
         scan 0))
    [ "only-feasible"; "Naive-Sample"; "infeasible"; "no structures" ]

(* Exact ties: on empty operands at r = 0 every feasible strategy costs
   0, so the preference order alone decides. Stream leads whenever it
   is feasible; with only a histogram, Hybrid-Count beats
   Frequency-Partition and Naive. *)
let test_rank_order () =
  let zero availability =
    {
      Catalog.availability;
      n1 = 0;
      n2 = 0;
      left_stats = None;
      right_stats = None;
      histogram = None;
      join_size = 0.;
      join_size_exact = true;
      join_size_stderr = 0.;
    }
  in
  List.iter
    (fun (label, availability, want) ->
      let chosen, d = Picker.choose (zero availability) (Cost_model.shape ~r:0) in
      List.iter
        (fun (c : Cost_model.costing) ->
          match c.Cost_model.verdict with
          | Cost_model.Feasible cost ->
              Alcotest.(check (float 0.)) (label ^ ": tie at 0") 0. cost
          | Cost_model.Infeasible _ -> ())
        d.Picker.candidates;
      Alcotest.(check string) label (Strategy.name want) (Strategy.name chosen))
    [
      ("everything", Strategy.all_available, Strategy.Stream);
      ("statistics only", availability No_index, Strategy.Stream);
      ("histogram only", availability Histogram_only, Strategy.Hybrid_count);
    ]

(* ------------------------------------------------------------------ *)
(* The cost model against the Join_size analytics on a real instance.  *)

let test_costs_agree_with_join_size () =
  let pair = Zipf_tables.make_pair ~seed:0x0C0D ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  let env =
    Strategy.make_env ~seed:0x0C0D ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
      ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
  in
  let cat = Catalog.of_env ~availability:Strategy.all_available env in
  let m1 = Option.get cat.Catalog.left_stats and m2 = Option.get cat.Catalog.right_stats in
  Alcotest.(check bool) "catalog join size is exact" true cat.Catalog.join_size_exact;
  Alcotest.(check (float 1e-9)) "catalog |J| = frequency join size"
    (float_of_int (Frequency.join_size m1 m2))
    cat.Catalog.join_size;
  let r = 16 in
  let _, d = Picker.choose cat (Cost_model.shape ~r) in
  Alcotest.(check (float 1e-6)) "Olken cost = r x Thm-5 iterations"
    (float_of_int r *. Join_size.olken_expected_iterations ~m1 ~m2)
    (feasible_cost d Strategy.Olken);
  Alcotest.(check (float 1e-6)) "Group cost = n1 + r x Thm-7 moment ratio"
    (float_of_int cat.Catalog.n1
    +. (float_of_int r *. Join_size.self_join_moment m1 m2 /. cat.Catalog.join_size))
    (feasible_cost d Strategy.Group)

let test_of_env_masks_structures () =
  let pair = Zipf_tables.make_pair ~seed:0x0C0E ~n1:30 ~n2:60 ~z1:0. ~z2:1. ~domain:5 () in
  let env =
    Strategy.make_env ~seed:0x0C0E ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
      ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
  in
  let bare = Catalog.of_env ~availability:Strategy.nothing_available env in
  Alcotest.(check bool) "bare: no stats" true (bare.Catalog.right_stats = None);
  Alcotest.(check bool) "bare: no histogram" true (bare.Catalog.histogram = None);
  Alcotest.(check bool) "bare: join size estimated" false bare.Catalog.join_size_exact;
  Alcotest.(check bool) "bare: estimate non-negative" true (bare.Catalog.join_size >= 0.);
  let exact = float_of_int (Zipf_tables.join_size pair) in
  let full = Catalog.of_env ~availability:Strategy.all_available env in
  Alcotest.(check (float 1e-9)) "full: exact join size" exact full.Catalog.join_size;
  (* The estimators carry sampling error; index-assisted on this small
     instance should still land within a few sigma of the truth. *)
  let indexed =
    Catalog.of_env
      ~availability:{ Strategy.all_available with Strategy.right_stats = false; right_histogram = false }
      env
  in
  Alcotest.(check bool) "index-assisted estimate close to exact" true
    (Float.abs (indexed.Catalog.join_size -. exact)
    <= Float.max 1. (4. *. indexed.Catalog.join_size_stderr))

(* On a structure-cache env the catalog's m1 is the cached R1 table
   itself, not a rescan; and [Picker.decide] is the named strategy
   as given, or the counted choice over that catalog. *)
let test_of_env_shares_cached_stats () =
  let module Cache = Rsj_cache.Structure_cache in
  let pair = Zipf_tables.make_pair ~seed:0x0C0F ~n1:30 ~n2:60 ~z1:1. ~z2:1. ~domain:5 () in
  let left = pair.Zipf_tables.outer and right = pair.Zipf_tables.inner in
  let key = Zipf_tables.col2 in
  let cache = Cache.create () in
  let env = Cache.env cache ~seed:1 ~left ~right ~left_key:key ~right_key:key () in
  let cat = Catalog.of_env ~availability:Strategy.all_available env in
  Alcotest.(check bool) "left_stats is the cached frequency table" true
    (Option.get cat.Catalog.left_stats == Cache.frequency cache left ~key);
  let r = 12 in
  (match Picker.decide env ~r (Some Strategy.Group) with
  | Strategy.Group, None -> ()
  | _ -> Alcotest.fail "a named strategy runs as given, undecided");
  let expected, _ = Picker.choose cat (Cost_model.shape ~r) in
  match Picker.decide env ~r None with
  | s, Some d ->
      Alcotest.(check string) "picked = choose over the env's catalog" (Strategy.name expected)
        (Strategy.name s);
      Alcotest.(check bool) "the decision names it" true (d.Picker.chosen = s)
  | _, None -> Alcotest.fail "an unnamed strategy carries a decision"

(* ------------------------------------------------------------------ *)
(* Normal quantile                                                     *)

let test_normal_quantile () =
  Alcotest.(check (float 1e-6)) "q(0.975)" 1.959964 (Stats_math.normal_quantile 0.975);
  Alcotest.(check (float 1e-6)) "q(0.5)" 0. (Stats_math.normal_quantile 0.5);
  Alcotest.(check (float 1e-6)) "q symmetric" (-1.959964) (Stats_math.normal_quantile 0.025);
  Alcotest.(check (float 1e-6)) "q(0.995)" 2.575829 (Stats_math.normal_quantile 0.995);
  (* Round-trips through the survival function it inverts. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sf(q(%g)) = 1-%g" p p)
        (1. -. p)
        (Stats_math.normal_sf (Stats_math.normal_quantile p)))
    [ 0.01; 0.1; 0.5; 0.9; 0.99 ];
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p=%g rejected" p)
        (Invalid_argument (Printf.sprintf "Stats_math.normal_quantile: p=%g outside (0,1)" p))
        (fun () -> ignore (Stats_math.normal_quantile p)))
    [ 0.; 1.; -0.5 ]

(* ------------------------------------------------------------------ *)
(* Error report                                                        *)

let toy_sample =
  (* 8 draws of (rid, amount) rows; amounts span [1, 9]. *)
  Array.of_list
    (List.map
       (fun (rid, amount) -> Tuple.create [ Value.Int rid; Value.Int amount ])
       [ (1, 2); (2, 4); (3, 9); (4, 1); (5, 6); (6, 3); (7, 8); (8, 5) ])

let line_of (report : Error_report.t) name =
  List.find (fun l -> l.Error_report.aggregate = name) report.Error_report.lines

let width (i : Error_report.interval) = i.hi -. i.lo
let contains (i : Error_report.interval) x = i.lo <= x && x <= i.hi

let test_error_report_units () =
  let report = Error_report.make ~range:(0., 10.) ~sample:toy_sample ~n:100 ~col:1 () in
  Alcotest.(check int) "three lines" 3 (List.length report.Error_report.lines);
  let line = line_of report in
  let sum = line "sum" and count = line "count" and avg = line "avg" in
  (* HT-SUM: mean of n·g = 100 · 38/8 = 475. *)
  Alcotest.(check (float 1e-9)) "HT sum estimate" 475. sum.Error_report.estimate;
  (* Default predicate keeps everything: the count estimate is exactly
     n with a degenerate CLT interval. *)
  Alcotest.(check (float 1e-9)) "HT count estimate" 100. count.Error_report.estimate;
  Alcotest.(check (float 1e-9)) "count CLT interval degenerate" 0.
    (width count.Error_report.clt);
  Alcotest.(check bool) "count Hoeffding interval is not degenerate" true
    (width count.Error_report.hoeffding > 0.);
  Alcotest.(check (float 1e-9)) "avg estimate" 4.75 avg.Error_report.estimate;
  List.iter
    (fun (l : Error_report.line) ->
      Alcotest.(check bool)
        (l.Error_report.aggregate ^ " estimate inside both intervals")
        true
        (contains l.Error_report.clt l.Error_report.estimate
        && contains l.Error_report.hoeffding l.Error_report.estimate))
    report.Error_report.lines;
  (* With a declared range, the distribution-free interval must be the
     wider one for SUM and AVG (the count CLT is degenerate here). *)
  List.iter
    (fun name ->
      let l = line name in
      Alcotest.(check bool)
        (name ^ ": Hoeffding at least as wide as CLT")
        true
        (width l.Error_report.hoeffding
        >= width l.Error_report.clt))
    [ "sum"; "count"; "avg" ];
  Alcotest.(check bool) "range not assumed" false report.Error_report.range_assumed;
  let assumed = Error_report.make ~sample:toy_sample ~n:100 ~col:1 () in
  Alcotest.(check bool) "absent range flagged" true assumed.Error_report.range_assumed

let test_error_report_predicate () =
  let pred t = match Tuple.get t 1 with Value.Int a -> a mod 2 = 0 | _ -> false in
  let report = Error_report.make ~range:(0., 10.) ~pred ~sample:toy_sample ~n:100 ~col:1 () in
  let line = line_of report in
  (* 4 of 8 draws qualify (amounts 2, 4, 6, 8). *)
  Alcotest.(check (float 1e-9)) "HT count with predicate" 50.
    (line "count").Error_report.estimate;
  Alcotest.(check (float 1e-9)) "HT sum with predicate" (100. *. 20. /. 8.)
    (line "sum").Error_report.estimate;
  Alcotest.(check (float 1e-9)) "avg over qualifying draws" 5.
    (line "avg").Error_report.estimate;
  (* A predicate nothing satisfies: avg degrades to an infinite
     interval instead of a bogus point estimate. *)
  let none = Error_report.make ~range:(0., 10.) ~pred:(fun _ -> false) ~sample:toy_sample ~n:100 ~col:1 () in
  let avg = line_of none "avg" in
  Alcotest.(check bool) "empty avg has infinite interval" true
    (avg.Error_report.clt.Error_report.lo = neg_infinity
    && avg.Error_report.clt.Error_report.hi = infinity);
  Alcotest.(check (float 1e-9)) "empty count estimate 0" 0.
    (line_of none "count").Error_report.estimate

let test_error_report_validation () =
  let check_invalid name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  check_invalid "empty sample rejected" (fun () ->
      Error_report.make ~sample:[||] ~n:10 ~col:0 ());
  check_invalid "negative join size rejected" (fun () ->
      Error_report.make ~sample:toy_sample ~n:(-1) ~col:0 ());
  check_invalid "confidence 1 rejected" (fun () ->
      Error_report.make ~confidence:1. ~sample:toy_sample ~n:10 ~col:0 ());
  check_invalid "inverted range rejected" (fun () ->
      Error_report.make ~range:(5., 1.) ~sample:toy_sample ~n:10 ~col:0 ());
  check_invalid "negative shape rejected" (fun () -> Cost_model.shape ~r:(-1))

(* ------------------------------------------------------------------ *)

(* The one-line catalog summary of decision traces: sizes, the join
   size (exact, or estimated with its standard error), the structures
   present, and the skew. *)
let test_catalog_describe () =
  let full = Catalog.describe (catalog Full m2_skew) in
  Alcotest.(check bool) ("full: " ^ full) true
    (String.starts_with ~prefix:"n1=40 n2=80 |J|=400 [index(R1) index(R2) stats(R2) histogram(R2)] skew="
       full);
  let bare = Catalog.describe { (catalog Bare m2_skew) with Catalog.join_size_stderr = 12. } in
  Alcotest.(check bool) ("bare, estimated: " ^ bare) true
    (String.starts_with ~prefix:"n1=40 n2=80 |J|~400 (±12) [no structures] skew=" bare);
  Alcotest.(check bool) "index-only lists just the indexes" true
    (String.starts_with ~prefix:"n1=40 n2=80 |J|~400 (±0) [index(R1) index(R2)] skew="
       (Catalog.describe (catalog Index_only m2_uniform)))

(* all_costs is one costing per strategy in Strategy.all order — the
   picker's candidate list — priced by the paper's formulas. *)
let test_all_costs () =
  let cat = catalog Full m2_skew in
  let costs = Cost_model.all_costs cat (Cost_model.shape ~r:8) in
  Alcotest.(check (list string)) "Strategy.all order"
    (List.map Strategy.name Strategy.all)
    (List.map (fun (c : Cost_model.costing) -> Strategy.name c.Cost_model.strategy) costs);
  let _, d = Picker.choose cat (Cost_model.shape ~r:8) in
  Alcotest.(check bool) "the picker's candidates" true (costs = d.Picker.candidates);
  let cost s =
    let c = List.find (fun (c : Cost_model.costing) -> c.Cost_model.strategy = s) costs in
    match c.Cost_model.verdict with
    | Cost_model.Feasible c -> c
    | Cost_model.Infeasible _ -> Alcotest.failf "%s infeasible" (Strategy.name s)
  in
  Alcotest.(check (float 1e-9)) "Naive = n1 + n2 + |J|" 520. (cost Strategy.Naive);
  Alcotest.(check (float 1e-9)) "Stream = n1 + r" 48. (cost Strategy.Stream);
  Alcotest.(check (float 1e-9)) "Count = n1 + n2 + r" 128. (cost Strategy.Count_sample);
  List.iter
    (fun (c : Cost_model.costing) ->
      Alcotest.(check bool) (Strategy.name c.Cost_model.strategy ^ " has a formula") true
        (c.Cost_model.formula <> ""))
    costs;
  let bare = Cost_model.all_costs (catalog Bare m2_skew) (Cost_model.shape ~r:8) in
  Alcotest.(check (list string)) "a bare catalog leaves only Naive feasible" [ "Naive-Sample" ]
    (List.filter_map
       (fun (c : Cost_model.costing) ->
         match c.Cost_model.verdict with
         | Cost_model.Feasible _ -> Some (Strategy.name c.Cost_model.strategy)
         | Cost_model.Infeasible _ -> None)
       bare)

(* choose_counted decides as choose does and counts the decision under
   its strategy and reason labels. *)
let test_choose_counted () =
  let cat = catalog Histogram_only m2_skew in
  let shape = Cost_model.shape ~r:8 in
  let chosen, decision = Picker.choose cat shape in
  let counter =
    Rsj_obs.Registry.counter "rsj_picker_choice_total"
      ~labels:
        [ ("strategy", Strategy.name chosen); ("reason", Picker.reason_to_string decision.Picker.reason) ]
  in
  let before = Rsj_obs.Registry.value counter in
  let chosen', decision' = Picker.choose_counted cat shape in
  Alcotest.(check string) "same choice" (Strategy.name chosen) (Strategy.name chosen');
  Alcotest.(check bool) "same decision" true (decision = decision');
  Alcotest.(check int) "counted once" (before + 1) (Rsj_obs.Registry.value counter);
  ignore (Picker.choose cat shape);
  Alcotest.(check int) "choose alone counts nothing" (before + 1) (Rsj_obs.Registry.value counter)

let suite =
  [
    Alcotest.test_case "golden decision table" `Quick test_golden_decisions;
    Alcotest.test_case "golden costs pinned" `Quick test_golden_costs_pinned;
    Alcotest.test_case "decision trace explains infeasibility" `Quick test_decision_trace;
    Alcotest.test_case "tie-break rank order" `Quick test_rank_order;
    Alcotest.test_case "catalog describe" `Quick test_catalog_describe;
    Alcotest.test_case "all_costs: one costing per strategy" `Quick test_all_costs;
    Alcotest.test_case "choose_counted counts the decision" `Quick test_choose_counted;
    Alcotest.test_case "costs agree with Join_size analytics" `Quick test_costs_agree_with_join_size;
    Alcotest.test_case "of_env respects availability mask" `Quick test_of_env_masks_structures;
    Alcotest.test_case "of_env shares the cached R1 statistics" `Quick
      test_of_env_shares_cached_stats;
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "error report units" `Quick test_error_report_units;
    Alcotest.test_case "error report predicate" `Quick test_error_report_predicate;
    Alcotest.test_case "error report validation" `Quick test_error_report_validation;
  ]
