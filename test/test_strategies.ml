open Rsj_relation
open Rsj_core
module Zipf_tables = Rsj_workload.Zipf_tables
module Frequency = Rsj_stats.Frequency
module Metrics = Rsj_exec.Metrics

(* A small skewed join instance on which the full join is cheap to
   enumerate, so uniformity can be chi-square tested cell by cell. *)
(* A frequency table holding exactly these (value, count) pairs, built
   the library's way: from a relation's key column. *)
let freq_of_assoc pairs =
  Rsj_stats.Frequency.of_relation ~key:0
    (Rsj_relation.Relation.of_tuples
       (Rsj_relation.Schema.of_list [ ("k", Rsj_relation.Value.T_int) ])
       (List.concat_map (fun (v, n) -> List.init n (fun _ -> [| v |])) pairs))

let small_env ?(seed = 0xAB) ?(histogram_fraction = 0.05) ?(z1 = 1.) ?(z2 = 2.) () =
  let pair = Zipf_tables.make_pair ~seed ~n1:40 ~n2:80 ~z1 ~z2 ~domain:6 () in
  Strategy.make_env ~seed ~histogram_fraction ~left:pair.outer ~right:pair.inner
    ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()

let full_join env =
  let plan =
    Rsj_exec.Plan.Join
      {
        Rsj_exec.Plan.algorithm = Rsj_exec.Plan.Hash;
        left = Rsj_exec.Plan.Scan (Strategy.env_left env);
        right = Rsj_exec.Plan.Scan (Strategy.env_right env);
        left_key = Zipf_tables.col2;
        right_key = Zipf_tables.col2;
      }
  in
  Array.of_list (Rsj_exec.Plan.collect plan)

let join_member_set env =
  let tbl = Hashtbl.create 1024 in
  Array.iter (fun t -> Hashtbl.replace tbl t ()) (full_join env);
  tbl

let test_all_strategies_return_r () =
  let env = small_env () in
  List.iter
    (fun s ->
      let res = Strategy.run env s ~r:25 in
      Alcotest.(check int) (Strategy.name s ^ " returns r") 25 (Array.length res.sample))
    Strategy.all

let test_all_strategies_emit_join_tuples () =
  let env = small_env () in
  let members = join_member_set env in
  List.iter
    (fun s ->
      let res = Strategy.run env s ~r:40 in
      Array.iter
        (fun t ->
          Alcotest.(check bool)
            (Strategy.name s ^ " emits only join tuples")
            true (Hashtbl.mem members t))
        res.sample)
    Strategy.all

let test_all_strategies_uniform () =
  let env = small_env () in
  let universe = full_join env in
  List.iter
    (fun s ->
      let report =
        Negative.uniformity_check ~trials:200 ~universe ~draw:(fun () ->
            (Strategy.run env s ~r:20).sample)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s uniform over J (p=%.5f, %d cells)" (Strategy.name s)
           report.chi_square.p_value report.cells)
        true
        (report.chi_square.p_value > 0.0005))
    Strategy.all

let test_r_zero () =
  let env = small_env () in
  List.iter
    (fun s ->
      let res = Strategy.run env s ~r:0 in
      Alcotest.(check int) (Strategy.name s ^ " r=0") 0 (Array.length res.sample))
    Strategy.all

let test_r_larger_than_join () =
  let env = small_env () in
  let n = Strategy.env_join_size env in
  let r = (2 * n) + 7 in
  (* WR semantics allow r > |J|; every strategy must deliver. *)
  List.iter
    (fun s ->
      let res = Strategy.run env s ~r in
      Alcotest.(check int) (Strategy.name s ^ " oversampling") r (Array.length res.sample))
    Strategy.all

let empty_join_env () =
  let schema = Zipf_tables.schema in
  let mk name vals =
    Relation.of_tuples ~name schema
      (List.mapi (fun i v -> [| Value.Int i; Value.Int v; Value.str "p" |]) vals)
  in
  Strategy.make_env ~left:(mk "L" [ 1; 2; 3 ]) ~right:(mk "R" [ 4; 5; 6 ])
    ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()

let test_empty_join () =
  let env = empty_join_env () in
  List.iter
    (fun s ->
      let res = Strategy.run env s ~r:5 in
      Alcotest.(check int) (Strategy.name s ^ " empty join") 0 (Array.length res.sample))
    Strategy.all;
  (* Olken finds the join empty by probing R1's keys, without running a
     single accept/reject round. *)
  let res = Strategy.run env Strategy.Olken ~r:5 in
  Alcotest.(check int) "olken runs no round on an empty join" 0
    res.metrics.Metrics.random_accesses

let test_naive_work_is_full_join () =
  let env = small_env () in
  let n = Strategy.env_join_size env in
  let res = Strategy.run env Strategy.Naive ~r:10 in
  Alcotest.(check int) "naive computes all of J" n res.metrics.Metrics.join_output_tuples

let test_stream_sample_work_is_r () =
  let env = small_env () in
  let res = Strategy.run env Strategy.Stream ~r:30 in
  Alcotest.(check int) "one join output per sample (Thm 6)" 30
    res.metrics.Metrics.join_output_tuples;
  Alcotest.(check int) "no rejections" 0 res.metrics.Metrics.rejected_samples

let test_olken_produces_r_with_rejections () =
  let env = small_env () in
  let res = Strategy.run env Strategy.Olken ~r:50 in
  Alcotest.(check int) "accepted = r" 50 res.metrics.Metrics.join_output_tuples;
  Alcotest.(check bool) "skewed join causes rejections" true
    (res.metrics.Metrics.rejected_samples > 0)

let test_olken_iteration_count_matches_theorem5 () =
  (* Iterations = accepted + rejected; expectation r * M*n1/n. *)
  let env = small_env () in
  let m1 = Frequency.of_relation (Strategy.env_left env) ~key:Zipf_tables.col2 in
  let m2 = Strategy.env_right_stats env in
  let per_tuple = Rsj_stats.Join_size.olken_expected_iterations ~m1 ~m2 in
  let r = 400 in
  let res = Strategy.run env Strategy.Olken ~r in
  let iterations =
    res.metrics.Metrics.join_output_tuples + res.metrics.Metrics.rejected_samples
  in
  let expected = per_tuple *. float_of_int r in
  Alcotest.(check bool)
    (Printf.sprintf "iterations %d within 35%% of %.0f" iterations expected)
    true
    (Float.abs (float_of_int iterations -. expected) < 0.35 *. expected)

let test_group_sample_work_matches_theorem7 () =
  let env = small_env () in
  let m1 = Frequency.of_relation (Strategy.env_left env) ~key:Zipf_tables.col2 in
  let m2 = Strategy.env_right_stats env in
  let r = 25 in
  let alpha = Rsj_stats.Join_size.alpha_group_sample ~m1 ~m2 ~r in
  let n = Strategy.env_join_size env in
  let expected = alpha *. float_of_int n in
  (* Average over runs to damp the variance. *)
  let runs = 30 in
  let acc = ref 0 in
  for _ = 1 to runs do
    let res = Strategy.run env Strategy.Group ~r in
    acc := !acc + res.metrics.Metrics.join_output_tuples
  done;
  let mean = float_of_int !acc /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.1f ~ predicted %.1f" mean expected)
    true
    (mean > 0.6 *. expected && mean < 1.4 *. expected)

let test_fps_partition_bookkeeping () =
  let env = small_env () in
  let histogram = Strategy.env_histogram env in
  let rng = Rsj_util.Prng.create ~seed:99 () in
  let metrics = Metrics.create () in
  let sample, detail =
    Frequency_partition.sample rng ~metrics ~r:20
      ~left:(Relation.to_stream (Strategy.env_left env))
      ~left_key:Zipf_tables.col2 ~right:(Strategy.env_right env)
      ~right_key:Zipf_tables.col2 ~histogram
  in
  Alcotest.(check int) "r samples" 20 (Array.length sample);
  Alcotest.(check int) "n_hi + n_lo = |J|" (Strategy.env_join_size env)
    (detail.n_hi + detail.n_lo);
  Alcotest.(check int) "r_hi + r_lo = r" 20 (detail.r_hi + detail.r_lo)

let test_fps_work_below_naive_under_skew () =
  let env = small_env ~z1:1. ~z2:3. () in
  let n = Strategy.env_join_size env in
  let res = Strategy.run env Strategy.Frequency_partition ~r:10 in
  Alcotest.(check bool)
    (Printf.sprintf "FPS intermediate %d < |J| = %d"
       res.metrics.Metrics.join_output_tuples n)
    true
    (res.metrics.Metrics.join_output_tuples < n)

let test_index_sample_work_matches_theorem9 () =
  let env = small_env () in
  let m1 = Frequency.of_relation (Strategy.env_left env) ~key:Zipf_tables.col2 in
  let m2 = Strategy.env_right_stats env in
  let histogram = Strategy.env_histogram env in
  let is_high v = Rsj_stats.Histogram.End_biased.is_high histogram v in
  let r = 15 in
  let alpha = Rsj_stats.Join_size.alpha_index_sample ~m1 ~m2 ~is_high ~r in
  let n = Strategy.env_join_size env in
  let res = Strategy.run env Strategy.Index_sample ~r in
  (* Thm 9 is an upper bound in expectation; the measured intermediate
     should sit at alpha*n exactly (lo side deterministic, hi side = r). *)
  Alcotest.(check int) "deterministic work"
    (int_of_float (Float.round (alpha *. float_of_int n)))
    res.metrics.Metrics.join_output_tuples

let test_count_sample_scans_not_joins () =
  let env = small_env () in
  let res = Strategy.run env Strategy.Count_sample ~r:20 in
  Alcotest.(check int) "exactly r join outputs" 20 res.metrics.Metrics.join_output_tuples;
  let n1 = Relation.cardinality (Strategy.env_left env) in
  let n2 = Relation.cardinality (Strategy.env_right env) in
  Alcotest.(check int) "one scan of each relation" (n1 + n2)
    res.metrics.Metrics.tuples_scanned

let test_group_sample_stale_stats_fails () =
  let schema = Zipf_tables.schema in
  let left =
    Relation.of_tuples ~name:"L" schema [ [| Value.Int 1; Value.Int 7; Value.str "p" |] ]
  in
  let right =
    Relation.of_tuples ~name:"R" schema [ [| Value.Int 1; Value.Int 8; Value.str "p" |] ]
  in
  (* Stats claim value 7 exists in R2; it does not. *)
  let stale = freq_of_assoc [ (Value.Int 7, 3) ] in
  let rng = Rsj_util.Prng.create () in
  Alcotest.(check bool) "stale stats detected" true
    (try
       ignore
         (Group_sample.sample rng ~metrics:(Metrics.create ()) ~r:2
            ~left:(Relation.to_stream left) ~left_key:Zipf_tables.col2 ~right
            ~right_key:Zipf_tables.col2 ~right_stats:stale);
       false
     with Failure _ -> true)

let test_count_sample_overstated_stats_fails () =
  let schema = Zipf_tables.schema in
  let left =
    Relation.of_tuples ~name:"L" schema [ [| Value.Int 1; Value.Int 7; Value.str "p" |] ]
  in
  let right =
    Relation.of_tuples ~name:"R" schema [ [| Value.Int 1; Value.Int 7; Value.str "p" |] ]
  in
  (* Stats claim m2(7) = 5; only 1 tuple exists, so U1 cannot finish. *)
  let stale = freq_of_assoc [ (Value.Int 7, 5) ] in
  let rng = Rsj_util.Prng.create ~seed:123 () in
  let failed = ref false in
  (try
     (* The per-value U1 may or may not exhaust early depending on the
        draw; repeat until the failure path triggers. *)
     for _ = 1 to 50 do
       ignore
         (Count_sample.sample rng ~metrics:(Metrics.create ()) ~r:3
            ~left:(Relation.to_stream left) ~left_key:Zipf_tables.col2 ~right
            ~right_key:Zipf_tables.col2 ~right_stats:stale)
     done
   with Failure _ -> failed := true);
  Alcotest.(check bool) "overstated stats detected" true !failed

let test_foreign_key_join () =
  (* R2's join column is a key: m2(v) = 1. Stream-Sample reduces to
     uniform sampling of matching R1 tuples. *)
  let schema = Zipf_tables.schema in
  let left =
    Relation.of_tuples ~name:"fact" schema
      (List.init 50 (fun i -> [| Value.Int i; Value.Int (i mod 10); Value.str "p" |]))
  in
  let right =
    Relation.of_tuples ~name:"dim" schema
      (List.init 10 (fun i -> [| Value.Int i; Value.Int i; Value.str "p" |]))
  in
  let env = Strategy.make_env ~left ~right ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 () in
  Alcotest.(check int) "|J| = n1 for FK join" 50 (Strategy.env_join_size env);
  List.iter
    (fun s ->
      let res = Strategy.run env s ~r:20 in
      Alcotest.(check int) (Strategy.name s ^ " FK join") 20 (Array.length res.sample))
    Strategy.all

let test_run_wor_distinct () =
  let env = small_env () in
  List.iter
    (fun s ->
      let res = Strategy.run_wor env s ~r:15 in
      Alcotest.(check int) (Strategy.name s ^ " WoR size") 15 (Array.length res.sample);
      let distinct =
        List.sort_uniq compare (Array.to_list res.sample) |> List.length
      in
      Alcotest.(check int) (Strategy.name s ^ " WoR distinct") 15 distinct)
    [ Strategy.Naive; Strategy.Stream; Strategy.Frequency_partition ]

(* Inverse of an odd int modulo 2^63 (native wrap-around), by Newton
   iteration: each step doubles the number of correct low bits. *)
let odd_inverse a =
  let x = ref a in
  for _ = 1 to 6 do
    x := !x * (2 - (a * !x))
  done;
  !x

(* Two distinct join tuples (k1, x1, k1) and (k2, x2, k2) with equal
   Tuple.hash. The middle slot enters the hash as 31 * H(x), with
   H(x) = x * M mod 2^62 for Value.hash's odd multiplier M, so H(x2)
   is solved from the target hash and x2 recovered through M^-1. *)
let colliding_join_rows () =
  let k1 = 1 and k2 = 2 in
  let hash k x = Tuple.hash [| Value.Int k; Value.Int x; Value.Int k |] in
  let m_inv = odd_inverse 0x2545F4914F6CDD1D in
  let rec search x1 =
    let h = (hash k1 x1 - hash k2 0) * odd_inverse 31 in
    if h < 0 then search (x1 + 1) else (x1, (h * m_inv) land max_int)
  in
  let x1, x2 = search 1 in
  let t1 = [| Value.Int k1; Value.Int x1; Value.Int k1 |] in
  let t2 = [| Value.Int k2; Value.Int x2; Value.Int k2 |] in
  Alcotest.(check int) "constructed tuples collide" (Tuple.hash t1) (Tuple.hash t2);
  Alcotest.(check bool) "constructed tuples differ" false (Tuple.equal t1 t2);
  ((k1, x1), (k2, x2))

(* WoR distinctness is tuple equality: a join of exactly two tuples
   whose hashes collide must come back whole, through the sequential
   driver and the parallel runtime alike. *)
let test_run_wor_hash_collision () =
  let (k1, x1), (k2, x2) = colliding_join_rows () in
  let rel name cols rows =
    Relation.of_tuples ~name (Schema.of_list cols) (List.map (fun row -> Array.of_list (List.map Value.int row)) rows)
  in
  let env () =
    Strategy.make_env
      ~left:(rel "L" [ ("k", Value.T_int); ("x", Value.T_int) ] [ [ k1; x1 ]; [ k2; x2 ] ])
      ~right:(rel "R" [ ("k", Value.T_int) ] [ [ k1 ]; [ k2 ] ])
      ~left_key:0 ~right_key:0 ()
  in
  List.iter
    (fun s ->
      List.iter
        (fun (label, run) ->
          let sample = (run (env ()) s).Strategy.sample in
          let what = Printf.sprintf "%s %s" (Strategy.name s) label in
          Alcotest.(check int) (what ^ ": both tuples") 2 (Array.length sample);
          Alcotest.(check bool) (what ^ ": distinct") false (Tuple.equal sample.(0) sample.(1)))
        [
          ("sequential", fun env s -> Strategy.run_wor env s ~r:2);
          ("d=1", fun env s -> Rsj_parallel.run_wor env s ~r:2 ~domains:1);
        ])
    Strategy.all

let test_table1 () =
  let rows = Strategy.table1 () in
  Alcotest.(check int) "eight strategies" 8 (List.length rows);
  let find n = List.find (fun (name, _, _) -> name = n) rows in
  let _, r1, r2 = find "Naive-Sample" in
  Alcotest.(check string) "naive r1" "-" r1;
  Alcotest.(check string) "naive r2" "-" r2;
  let _, r1, r2 = find "Olken-Sample" in
  Alcotest.(check string) "olken r1" "Index" r1;
  Alcotest.(check string) "olken r2" "Index/Stats." r2;
  let _, r1, r2 = find "Stream-Sample" in
  Alcotest.(check string) "stream r1" "-" r1;
  Alcotest.(check string) "stream r2" "Index/Stats." r2;
  let _, r1, r2 = find "Group-Sample" in
  Alcotest.(check string) "group r1" "-" r1;
  Alcotest.(check string) "group r2" "Statistics" r2;
  let _, r1, r2 = find "Frequency-Partition-Sample" in
  Alcotest.(check string) "fps r1" "-" r1;
  Alcotest.(check string) "fps r2" "Partial Stats." r2

(* The negative side of Table 1: every strategy, deprived of each
   structure it requires, must name exactly that structure as
   missing. *)
let test_missing_structure_matrix () =
  let a = Strategy.all_available in
  let no_left_index = { a with Strategy.left_index = false } in
  let no_right_access = { a with Strategy.right_index = false; right_stats = false } in
  let no_right_stats = { a with Strategy.right_stats = false } in
  let no_histogram = { a with Strategy.right_histogram = false } in
  let no_right_index = { a with Strategy.right_index = false } in
  (* strategy, crippled availability, exact missing-structure list *)
  let matrix =
    [
      (Strategy.Olken, no_left_index, [ "index(R1)" ]);
      (Strategy.Olken, no_right_access, [ "index(R2) or statistics(R2)" ]);
      ( Strategy.Olken,
        Strategy.nothing_available,
        [ "index(R1)"; "index(R2) or statistics(R2)" ] );
      (Strategy.Stream, no_right_access, [ "index(R2) or statistics(R2)" ]);
      (Strategy.Group, no_right_stats, [ "statistics(R2)" ]);
      (Strategy.Count_sample, no_right_stats, [ "statistics(R2)" ]);
      (Strategy.Frequency_partition, no_histogram, [ "end-biased histogram(R2)" ]);
      (Strategy.Hybrid_count, no_histogram, [ "end-biased histogram(R2)" ]);
      (Strategy.Index_sample, no_histogram, [ "end-biased histogram(R2)" ]);
      (Strategy.Index_sample, no_right_index, [ "index(R2hi)" ]);
      ( Strategy.Index_sample,
        Strategy.nothing_available,
        [ "end-biased histogram(R2)"; "index(R2hi)" ] );
    ]
  in
  List.iter
    (fun (s, availability, expected) ->
      let label = Strategy.name s in
      Alcotest.(check (list string))
        (label ^ " missing list") expected
        (Strategy.missing_structures availability s))
    matrix;
  (* Partial deprivation that leaves an alternative must still run:
     Index/Stats. requirements accept either structure. *)
  List.iter
    (fun availability ->
      List.iter
        (fun s ->
          Alcotest.(check (list string))
            (Strategy.name s ^ " satisfied by the surviving structure")
            []
            (Strategy.missing_structures availability s))
        [ Strategy.Olken; Strategy.Stream ])
    [ no_right_index; no_right_stats ];
  (* And the two poles: everything runs fully equipped; only Naive
     runs bare. *)
  List.iter
    (fun s ->
      Alcotest.(check (list string)) (Strategy.name s ^ " fully equipped") []
        (Strategy.missing_structures a s))
    Strategy.all;
  List.iter
    (fun s ->
      let missing = Strategy.missing_structures Strategy.nothing_available s in
      if s = Strategy.Naive then
        Alcotest.(check (list string)) "naive needs nothing" [] missing
      else
        Alcotest.(check bool)
          (Strategy.name s ^ " cannot run bare")
          false (missing = []))
    Strategy.all

let test_of_name () =
  Alcotest.(check bool) "paper spelling" true
    (Strategy.of_name "Stream-Sample" = Some Strategy.Stream);
  Alcotest.(check bool) "short form" true (Strategy.of_name "naive" = Some Strategy.Naive);
  Alcotest.(check bool) "fps alias" true
    (Strategy.of_name "FPS" = Some Strategy.Frequency_partition);
  Alcotest.(check bool) "underscores" true
    (Strategy.of_name "hybrid_count" = Some Strategy.Hybrid_count);
  Alcotest.(check bool) "unknown" true (Strategy.of_name "bogus" = None);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("roundtrip " ^ Strategy.name s)
        true
        (Strategy.of_name (Strategy.name s) = Some s))
    Strategy.all

let test_reproducibility () =
  (* Same seed, same strategy -> identical sample. *)
  List.iter
    (fun s ->
      let r1 = Strategy.run (small_env ~seed:7 ()) s ~r:10 in
      let r2 = Strategy.run (small_env ~seed:7 ()) s ~r:10 in
      Array.iteri
        (fun i t ->
          Alcotest.(check bool) (Strategy.name s ^ " reproducible") true
            (Tuple.equal t r2.sample.(i)))
        r1.sample)
    Strategy.all

(* The env's accessors describe the join it was made for: its key
   columns, the frequency statistics of each side, the flat key views
   the data plane scans, and |J| from those statistics. *)
let test_env_accessors () =
  let pair = Zipf_tables.make_pair ~seed:0xE1 ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  let env =
    Strategy.make_env ~seed:0xE1 ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col_rid ()
  in
  Alcotest.(check int) "left key" Zipf_tables.col2 (Strategy.env_left_key env);
  Alcotest.(check int) "right key" Zipf_tables.col_rid (Strategy.env_right_key env);
  let left_stats = Strategy.env_left_stats env and right_stats = Strategy.env_right_stats env in
  Alcotest.(check int) "left stats cover R1" 40 (Frequency.total left_stats);
  Alcotest.(check int) "right stats cover R2" 80 (Frequency.total right_stats);
  Relation.iter pair.outer (fun t ->
      let v = Tuple.get t Zipf_tables.col2 in
      Alcotest.(check bool) "left stats count the left key column" true
        (Frequency.frequency left_stats v > 0));
  Alcotest.(check (array int)) "left key view"
    (Column.int_view pair.outer ~col:Zipf_tables.col2)
    (Strategy.env_left_key_view env);
  Alcotest.(check (array int)) "right key view"
    (Column.int_view pair.inner ~col:Zipf_tables.col_rid)
    (Strategy.env_right_key_view env);
  Alcotest.(check bool) "views are cached per env" true
    (Strategy.env_left_key_view env == Strategy.env_left_key_view env);
  Alcotest.(check int) "|J| from the statistics"
    (Frequency.join_size left_stats right_stats)
    (Strategy.env_join_size env)

(* The WR-to-WoR driver keeps each distinct element once, in
   acceptance order, and asks for batches only until the target is
   met; elements whose hashes collide stay apart. *)
let test_wor_batches () =
  let calls = ref 0 in
  let batches = [| [| 1; 2; 2 |]; [| 2; 3; 1 |]; [| 4; 4; 5 |]; [| 6 |] |] in
  let next () =
    let b = batches.(!calls) in
    incr calls;
    (Rsj_util.Prng.create ~seed:!calls (), b)
  in
  let got =
    Strategy.wor_batches ~equal:Int.equal ~hash:(fun _ -> 0) ~caller:"test" ~target:4 next
  in
  Alcotest.(check int) "target distinct elements" 4 (List.length got);
  Alcotest.(check int) "no duplicates" 4 (List.length (List.sort_uniq compare got));
  Alcotest.(check int) "three batches were enough" 3 !calls;
  Alcotest.(check bool) "first two batches' elements come first" true
    (List.sort compare (List.filteri (fun i _ -> i < 3) got) = [ 1; 2; 3 ]);
  Alcotest.(check bool) "the fourth is from the third batch" true
    (List.mem (List.nth got 3) [ 4; 5 ]);
  let calls = ref 0 in
  match
    Strategy.wor_batches ~equal:Int.equal ~hash:Fun.id ~caller:"stuck" ~target:2 (fun () ->
        incr calls;
        (Rsj_util.Prng.create ~seed:1 (), [| 7; 7 |]))
  with
  | _ -> Alcotest.fail "one distinct element reached a target of two"
  | exception Strategy.Wor_shortfall { caller; target; distinct } ->
      Alcotest.(check string) "caller" "stuck" caller;
      Alcotest.(check int) "target" 2 target;
      Alcotest.(check int) "distinct" 1 distinct;
      Alcotest.(check int) "gives up after 64 batches" 64 !calls

(* One Olken round over the flat key column: an accepted pair is a
   real join pair, and acceptances arrive at rate |J| / (n1·M), the
   inverse of Theorem 5's expected iterations per output. *)
let test_olken_attempt_int () =
  let env = small_env () in
  let left = Strategy.env_left env and right = Strategy.env_right env in
  let right_index = Strategy.env_right_index env in
  let keys1 = Strategy.env_left_key_view env in
  let m = Rsj_index.Hash_index.max_multiplicity right_index in
  let rng = Rsj_util.Prng.create ~seed:0x01 () in
  let metrics = Metrics.create () in
  let rounds = 40_000 in
  let accepted = ref 0 in
  for _ = 1 to rounds do
    let p =
      Olken_sample.attempt_int rng ~metrics ~left_n:(Relation.cardinality left) ~keys1 ~right_index ~m
    in
    if p >= 0 then begin
      incr accepted;
      let i = Internals_int.unpack_left p and j = Internals_int.unpack_right p in
      Alcotest.(check bool) "accepted rows join" true
        (Value.equal
           (Tuple.get (Relation.get left i) Zipf_tables.col2)
           (Tuple.get (Relation.get right j) Zipf_tables.col2))
    end
  done;
  let p_accept =
    float_of_int (Strategy.env_join_size env) /. float_of_int (Relation.cardinality left * m)
  in
  let mean = float_of_int rounds *. p_accept in
  let sd = sqrt (mean *. (1. -. p_accept)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d acceptances, %.0f expected" !accepted mean)
    true
    (Float.abs (float_of_int !accepted -. mean) < 5. *. sd);
  Alcotest.(check int) "every round is one random access" rounds metrics.Metrics.random_accesses;
  Alcotest.(check int) "every rejection is counted" (rounds - !accepted)
    metrics.Metrics.rejected_samples;
  Alcotest.(check int) "every acceptance is a join output" !accepted
    metrics.Metrics.join_output_tuples

(* r = 0 returns before looking at the input; an empty join is the
   empty sample; a budget too small to accept r pairs (each round
   accepts at most one) turns the loop into a Failure. *)
let test_olken_budget () =
  Alcotest.(check int) "default budget" 500_000_000 Olken_sample.default_max_iterations;
  let env = small_env () in
  let run ?max_iterations ~r left =
    Olken_sample.sample (Rsj_util.Prng.create ~seed:2 ()) ~metrics:(Metrics.create ()) ~r ~left
      ~left_key:Zipf_tables.col2 ~right_index:(Strategy.env_right_index env) ?max_iterations ()
  in
  let empty = Relation.of_tuples (Relation.schema (Strategy.env_left env)) [] in
  Alcotest.(check int) "r = 0 on an empty R1" 0 (Array.length (run ~r:0 empty));
  Alcotest.(check bool) "an empty R1 with r > 0 is invalid" true
    (try
       ignore (run ~r:1 empty);
       false
     with Invalid_argument _ -> true);
  let no_match =
    Relation.of_tuples (Relation.schema (Strategy.env_left env))
      [
        Array.mapi
          (fun c v -> if c = Zipf_tables.col2 then Value.Int 999_999 else v)
          (Relation.get (Strategy.env_left env) 0);
      ]
  in
  Alcotest.(check int) "an empty join is the empty sample" 0
    (Array.length (run ~max_iterations:50 ~r:1 no_match));
  Alcotest.(check bool) "an exhausted budget fails" true
    (try
       ignore (run ~max_iterations:3 ~r:5 (Strategy.env_left env));
       false
     with Failure _ -> true);
  Alcotest.(check int) "a budget that suffices" 5
    (Array.length (run ~max_iterations:1_000_000 ~r:5 (Strategy.env_left env)))

let suite =
  [
    Alcotest.test_case "every strategy returns r tuples" `Quick test_all_strategies_return_r;
    Alcotest.test_case "every output is a join tuple" `Quick test_all_strategies_emit_join_tuples;
    Alcotest.test_case "every strategy is WR-uniform (chi-square)" `Slow test_all_strategies_uniform;
    Alcotest.test_case "r = 0" `Quick test_r_zero;
    Alcotest.test_case "r > |J| (oversampling)" `Quick test_r_larger_than_join;
    Alcotest.test_case "empty join" `Quick test_empty_join;
    Alcotest.test_case "naive work = |J|" `Quick test_naive_work_is_full_join;
    Alcotest.test_case "stream-sample work = r (Thm 6)" `Quick test_stream_sample_work_is_r;
    Alcotest.test_case "olken rejections happen" `Quick test_olken_produces_r_with_rejections;
    Alcotest.test_case "olken iterations match Thm 5" `Slow test_olken_iteration_count_matches_theorem5;
    Alcotest.test_case "group-sample work matches Thm 7" `Slow test_group_sample_work_matches_theorem7;
    Alcotest.test_case "FPS partition bookkeeping" `Quick test_fps_partition_bookkeeping;
    Alcotest.test_case "FPS beats naive under skew" `Quick test_fps_work_below_naive_under_skew;
    Alcotest.test_case "index-sample work matches Thm 9" `Quick test_index_sample_work_matches_theorem9;
    Alcotest.test_case "count-sample work = scans + r" `Quick test_count_sample_scans_not_joins;
    Alcotest.test_case "group-sample detects stale stats" `Quick test_group_sample_stale_stats_fails;
    Alcotest.test_case "count-sample detects overstated stats" `Quick test_count_sample_overstated_stats_fails;
    Alcotest.test_case "foreign-key join" `Quick test_foreign_key_join;
    Alcotest.test_case "WoR variant yields distinct tuples" `Quick test_run_wor_distinct;
    Alcotest.test_case "WoR keeps hash-colliding tuples apart" `Quick test_run_wor_hash_collision;
    Alcotest.test_case "table 1 requirements" `Quick test_table1;
    Alcotest.test_case "missing-structure matrix" `Quick test_missing_structure_matrix;
    Alcotest.test_case "strategy name parsing" `Quick test_of_name;
    Alcotest.test_case "seeded reproducibility" `Quick test_reproducibility;
    Alcotest.test_case "env accessors describe the join" `Quick test_env_accessors;
    Alcotest.test_case "wor_batches: first occurrences up to the target" `Quick test_wor_batches;
    Alcotest.test_case "olken attempt_int: join pairs at rate |J|/(n1 M)" `Quick test_olken_attempt_int;
    Alcotest.test_case "olken iteration budget" `Quick test_olken_budget;
  ]
