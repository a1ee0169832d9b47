(* The statistical conformance subsystem: oracle exactness, kernel
   policy mechanics, per-strategy distribution gates (including the
   strategies the parallel suite cannot cover), the 3-relation chain
   walker, and the end-to-end matrix runner with its negative
   control. *)

open Rsj_relation
open Rsj_core
module Kernel = Rsj_verify.Kernel
module Oracle = Rsj_verify.Oracle
module Conformance = Rsj_verify.Conformance
module Zipf_tables = Rsj_workload.Zipf_tables
module Chain_sample = Rsj_core.Chain_sample
module Prng = Rsj_util.Prng
module Stats_math = Rsj_util.Stats_math

let small_pair ?(seed = 0xAB) ~z1 ~z2 () =
  Zipf_tables.make_pair ~seed ~n1:40 ~n2:80 ~z1 ~z2 ~domain:6 ()

let env_of ?(seed = 0xAB) (pair : Zipf_tables.pair) =
  Strategy.make_env ~seed ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
    ~right_key:Zipf_tables.col2 ()

(* ------------------------------------------------------------------ *)
(* Kernel mechanics                                                    *)

let test_bucket_preserves_totals () =
  let expected = Array.make 20 1.2 in
  let observed = Array.init 20 (fun i -> i mod 3) in
  let be, bo = Kernel.bucket ~min_expected:5. ~expected ~observed in
  Alcotest.(check (float 1e-9))
    "expected total preserved" (Array.fold_left ( +. ) 0. expected)
    (Array.fold_left ( +. ) 0. be);
  Alcotest.(check int) "observed total preserved"
    (Array.fold_left ( + ) 0 observed)
    (Array.fold_left ( + ) 0 bo);
  Alcotest.(check int) "same shape" (Array.length be) (Array.length bo);
  Array.iter
    (fun e -> Alcotest.(check bool) "every bucket reaches the floor" true (e >= 5.))
    be

let test_bucket_underfull_collapses () =
  let be, bo = Kernel.bucket ~min_expected:5. ~expected:[| 0.5; 0.5; 0.5 |] ~observed:[| 1; 0; 2 |] in
  Alcotest.(check int) "single bucket" 1 (Array.length be);
  Alcotest.(check (float 1e-9)) "expected mass" 1.5 be.(0);
  Alcotest.(check int) "observed mass" 3 bo.(0)

let test_kernel_retry_policy () =
  let config = { Kernel.default with retries = 2 } in
  (* Rejects twice, passes on the third seeded attempt. *)
  let o =
    Kernel.run_custom config ~name:"scripted" ~attempt:(fun ~attempt ->
        if attempt < 2 then (99., 1, 1e-12) else (0.1, 1, 0.9))
  in
  Alcotest.(check bool) "eventually passes" true o.Kernel.passed;
  Alcotest.(check int) "used all attempts" 3 o.Kernel.attempts;
  (* Rejects every time: failed, attempts exhausted. *)
  let o = Kernel.run_custom config ~name:"scripted" ~attempt:(fun ~attempt:_ -> (99., 1, 1e-12)) in
  Alcotest.(check bool) "persistent rejection fails" false o.Kernel.passed;
  Alcotest.(check int) "attempts exhausted" 3 o.Kernel.attempts;
  (* Passes immediately: one attempt only. *)
  let o = Kernel.run_custom config ~name:"scripted" ~attempt:(fun ~attempt:_ -> (0.1, 1, 0.9)) in
  Alcotest.(check int) "stops at first pass" 1 o.Kernel.attempts

(* The per-test threshold is significance / comparisons (Bonferroni):
   at 0.05 over 50 comparisons a p-value just above 0.001 passes and
   one just below fails every attempt. *)
let test_kernel_threshold () =
  let config = { Kernel.default with significance = 0.05; comparisons = 50 } in
  let verdict p =
    (Kernel.run_custom config ~name:"scripted" ~attempt:(fun ~attempt:_ -> (1., 1, p)))
      .Kernel.passed
  in
  Alcotest.(check bool) "above the Bonferroni threshold" true (verdict 0.0011);
  Alcotest.(check bool) "below the Bonferroni threshold" false (verdict 0.0009);
  let rejected config =
    try
      ignore (Kernel.run_custom config ~name:"bad" ~attempt:(fun ~attempt:_ -> (1., 1, 0.5)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad significance rejected" true
    (rejected { Kernel.default with significance = 1.5 });
  Alcotest.(check bool) "bad comparisons rejected" true
    (rejected { Kernel.default with comparisons = 0 })

let test_kernel_g_vs_chi_agree () =
  (* On the same healthy uniform data both tests accept; on grossly
     biased data both reject. *)
  let expected = Array.make 10 50. in
  let uniform = Array.init 10 (fun i -> 48 + (i mod 3)) in
  let biased = Array.init 10 (fun i -> if i = 0 then 300 else 22) in
  let config = Kernel.default in
  List.iter
    (fun test ->
      let ok = Kernel.goodness_of_fit config test ~expected ~observed:uniform in
      Alcotest.(check bool)
        (Kernel.test_name test ^ " accepts uniform")
        true
        (ok.Stats_math.p_value > 0.01);
      let bad = Kernel.goodness_of_fit config test ~expected ~observed:biased in
      Alcotest.(check bool)
        (Kernel.test_name test ^ " rejects bias")
        true
        (bad.Stats_math.p_value < 1e-6))
    [ Kernel.Chi_square; Kernel.G_test ]

(* ------------------------------------------------------------------ *)
(* Oracle exactness                                                    *)

let test_oracle_matches_plan () =
  let pair = small_pair ~z1:1. ~z2:2. () in
  let oracle = Oracle.of_env (env_of pair) in
  Alcotest.(check int) "size = exact |J|" (Zipf_tables.join_size pair) (Oracle.size oracle);
  let universe = Oracle.universe oracle in
  Array.iteri
    (fun i t ->
      Alcotest.(check (option int)) "cell lookup is the index" (Some i) (Oracle.cell oracle t))
    universe;
  let counts = Oracle.counter oracle in
  Array.iter (Oracle.observe oracle counts) universe;
  Array.iter (fun c -> Alcotest.(check int) "each tuple lands in its cell" 1 c) counts;
  Alcotest.(check bool) "non-join tuple rejected" true
    (try
       Oracle.observe oracle counts (Array.map Value.int [| 999; 999 |]);
       false
     with Invalid_argument _ -> true)

let test_oracle_expected_laws () =
  let pair = small_pair ~z1:0. ~z2:0. () in
  let oracle = Oracle.of_env (env_of pair) in
  let n = Oracle.size oracle in
  let sum a = Array.fold_left ( +. ) 0. a in
  Alcotest.(check (float 1e-6)) "WR expectations sum to draws" 1000.
    (sum (Oracle.wr_expected oracle ~draws:1000));
  (* r >= |J|: every tuple is included in every trial. *)
  let wor = Oracle.wor_expected oracle ~trials:50 ~r:(n + 10) in
  Array.iter (fun e -> Alcotest.(check (float 1e-9)) "saturated WoR inclusion" 50. e) wor;
  Alcotest.(check (float 1e-9)) "WoR marginal" (float_of_int (min 7 n) /. float_of_int n)
    (Oracle.wor_inclusion oracle ~r:7);
  Alcotest.(check (float 1e-6)) "CF expectations sum to trials*f*n"
    (100. *. 0.25 *. float_of_int n)
    (sum (Oracle.cf_expected oracle ~trials:100 ~f:0.25));
  Alcotest.(check bool) "CF rejects f > 1" true
    (try
       ignore (Oracle.cf_expected oracle ~trials:1 ~f:1.5);
       false
     with Invalid_argument _ -> true)

(* A bag join: one cell per distinct tuple, weighted by how many join
   positions carry it; |J| still counts positions. *)
let test_oracle_bag_join () =
  let pair = Zipf_tables.bag (small_pair ~z1:1. ~z2:2. ()) in
  let oracle = Oracle.of_env (env_of pair) in
  let n = Zipf_tables.join_size pair in
  Alcotest.(check int) "size = |J| positions" n (Oracle.size oracle);
  let cells = Array.length (Oracle.universe oracle) in
  Alcotest.(check bool) "fewer cells than positions" true (cells < n);
  let mult = Array.init cells (Oracle.multiplicity oracle) in
  Alcotest.(check int) "multiplicities sum to |J|" n (Array.fold_left ( + ) 0 mult);
  let wr = Oracle.wr_expected oracle ~draws:1000 in
  let wor = Oracle.wor_expected oracle ~trials:50 ~r:7 in
  Array.iteri
    (fun i c ->
      let c = float_of_int c and n = float_of_int n in
      Alcotest.(check (float 1e-9)) "WR: draws·c_t/|J|" (1000. *. c /. n) wr.(i);
      Alcotest.(check (float 1e-9)) "WoR: trials·c_t·min(r,|J|)/|J|" (50. *. c *. 7. /. n) wor.(i))
    mult

(* Samples are join positions. On a bag join every fast-path WoR trial
   returns min r |J| tuples, none more often than its multiplicity —
   distinct positions, not distinct tuples. *)
let test_bag_join_wor_positions () =
  let pair = Zipf_tables.bag (small_pair ~z1:1. ~z2:2. ()) in
  let oracle = Oracle.of_env (env_of pair) in
  let r = 40 in
  List.iter
    (fun strategy ->
      List.iter
        (fun domains ->
          let label = Printf.sprintf "%s d=%d" (Strategy.name strategy) domains in
          let sample = (Rsj_parallel.run_wor (env_of ~seed:7 pair) strategy ~r ~domains).sample in
          Alcotest.(check int) (label ^ ": min r |J| tuples") (min r (Oracle.size oracle))
            (Array.length sample);
          let counts = Oracle.counter oracle in
          Array.iter (Oracle.observe oracle counts) sample;
          Array.iteri
            (fun i c ->
              Alcotest.(check bool) (label ^ ": within multiplicity") true
                (c <= Oracle.multiplicity oracle i))
            counts)
        [ 1; 4 ])
    Strategy.all

(* The reference kernels return tuples, so their WoR is defined for set
   joins only: on a bag join it runs out of distinct tuples and says
   so with the typed shortfall. *)
let test_reference_bag_wor_shortfall () =
  let pair = Zipf_tables.bag (small_pair ~z1:1. ~z2:2. ()) in
  match Strategy.run_wor (env_of pair) Strategy.Stream ~r:40 with
  | _ -> Alcotest.fail "reference WoR on a bag join returned a sample"
  | exception Strategy.Wor_shortfall { caller; target; distinct } ->
      Alcotest.(check string) "caller" "Strategy.run_wor" caller;
      Alcotest.(check int) "target" 40 target;
      Alcotest.(check bool) "fewer distinct tuples than the target" true (distinct < target);
      Alcotest.(check string) "printed like the old failure"
        "Strategy.run_wor: failed to accumulate distinct samples (very small join?)"
        (Printexc.to_string (Strategy.Wor_shortfall { caller; target; distinct }))

(* A walker over a fresh index of R_k (no cache to borrow one from). *)
let prepare_cold ?metrics spec =
  let last, key = Chain_sample.last_level spec in
  Chain_sample.prepare ?metrics ~index:(Rsj_index.Hash_index.build last ~key) spec

let chain_spec ?(seed = 0xC4A1) ~z () =
  let mk i rows =
    Zipf_tables.make ~seed:(seed + (31 * i)) ~name:(Printf.sprintf "c%d" i) ~rows ~z ~domain:5 ()
  in
  {
    Chain_sample.relations = [| mk 0 24; mk 1 30; mk 2 36 |];
    join_keys = [| (Zipf_tables.col2, Zipf_tables.col2); (Zipf_tables.col2, Zipf_tables.col2) |];
  }

let test_oracle_chain_matches_walker () =
  let spec = chain_spec ~z:1. () in
  let oracle = Oracle.of_chain spec in
  let prepared = prepare_cold spec in
  Alcotest.(check (float 0.5)) "chain |J| agrees with the weight tables"
    (Chain_sample.join_size prepared)
    (float_of_int (Oracle.size oracle));
  (* Every walker draw is a member of the enumerated universe. *)
  let rng = Prng.create ~seed:11 () in
  let sample = Chain_sample.sample prepared rng ~r:100 () in
  let counts = Oracle.counter oracle in
  Array.iter (Oracle.observe oracle counts) sample
(* observe raises if any draw is outside the enumerated chain join *)

(* The standalone per-strategy and chain-walker gates that used to live
   here are promoted into the matrix runner itself: every strategy now
   runs through Rsj_parallel.run in the cells (including the four
   newly-parallel ones at domains 2 and 4), and Conformance.run grows
   chain rows at two skews. The mini-run below and the full sweep
   under @conformance exercise both. *)

(* ------------------------------------------------------------------ *)
(* Negative control: the kernel must have power, not just tolerance.   *)

let test_biased_sampler_rejected () =
  let pair = small_pair ~z1:1. ~z2:2. () in
  let universe = Oracle.universe (Oracle.of_env (env_of pair)) in
  let outcome =
    Conformance.wr_uniformity ~trials:150 ~universe
      ~draw:(fun ~attempt ->
        let rng = Prng.create ~seed:(0xB1A5 + attempt) () in
        fun () -> Negative.biased_wr_draw rng ~universe ~r:16)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "biased WR sampler rejected (p=%.2e)" outcome.Kernel.p_value)
    false outcome.Kernel.passed;
  Alcotest.(check int) "every attempt rejected" 3 outcome.Kernel.attempts

(* ------------------------------------------------------------------ *)
(* End-to-end matrix runner (reduced matrix; the full 294-comparison
   sweep — 144 int-keyed cells + 32 string-keyed cells + 32 bag-join
   cells + 72 estimator KS rows (strategy × estimator × domains) + 2
   chain rows + 12 picker rows (profile × domains) — runs under
   @conformance / rsj verify). *)

(* A slice of the sweep for the mini runs: the given strategies × every
   semantics × the given domain counts, on one skew, int keys. *)
let cells ~strategies ~skew ~domain_counts =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun semantics ->
          List.map
            (fun domains -> { Conformance.strategy; semantics; skew; domains; input = Conformance.Int_keys })
            domain_counts)
        Rsj_core.Semantics.all)
    strategies

let uniform = { Conformance.label = "uniform"; z1 = 0.; z2 = 0. }
let zipf_1_2 = { Conformance.label = "zipf(1,2)"; z1 = 1.; z2 = 2. }

let test_conformance_run_mini () =
  let config =
    { (Conformance.default_config ()) with Conformance.trials = 40; seed = 0x7357 }
  in
  let cells =
    cells ~strategies:[ Strategy.Stream; Strategy.Olken ] ~skew:zipf_1_2 ~domain_counts:[ 1; 2 ]
  in
  Alcotest.(check int) "2 strategies x 3 semantics x 1 skew x 2 domains" 12 (List.length cells);
  let summary = Conformance.run ~config ~cells () in
  Alcotest.(check int) "comparisons = cells + KS rows + chain rows + picker rows"
    (12 + (2 * 3 * 2) + 2 + (4 * 2))
    summary.Conformance.comparisons;
  Alcotest.(check int) "one picker row per profile x domain count" 8
    (List.length summary.Conformance.pickers);
  (* Under the skewed instance with a full catalog the picker must not
     fall back to Naive; under the empty profile it must. *)
  List.iter
    (fun (label, _, _) ->
      if String.length label >= 12 && String.sub label 0 12 = "picker[full-" then
        Alcotest.(check bool) (label ^ " avoids Naive") false
          (label = "picker[full->Naive-Sample]");
      if String.length label >= 12 && String.sub label 0 12 = "picker[none-" then
        Alcotest.(check string) "bare catalog routes to Naive"
          "picker[none->Naive-Sample]" label)
    summary.Conformance.pickers;
  Alcotest.(check bool) "mini matrix passes and control is rejected" true
    summary.Conformance.all_pass;
  Alcotest.(check bool) "control rejected" false summary.Conformance.control.Kernel.passed;
  let report = Conformance.report summary in
  Alcotest.(check int) "one report row per comparison + control"
    (summary.Conformance.comparisons + 1)
    (List.length report.Rsj_harness.Report.rows);
  (* Both renderers accept the table (arity check happens inside). *)
  let csv = Rsj_harness.Report.to_csv report in
  Alcotest.(check bool) "csv has header + rows" true
    (List.length (String.split_on_char '\n' (String.trim csv))
    = summary.Conformance.comparisons + 2)

let test_conformance_deterministic () =
  let config =
    { (Conformance.default_config ()) with Conformance.trials = 30; seed = 42 }
  in
  let cells = cells ~strategies:[ Strategy.Stream ] ~skew:uniform ~domain_counts:[ 2 ] in
  let s1 =
    Conformance.run ~config ~cells ~with_aggregates:false ~with_control:false
      ~with_pickers:false ()
  in
  let s2 =
    Conformance.run ~config ~cells ~with_aggregates:false ~with_control:false
      ~with_pickers:false ()
  in
  List.iter2
    (fun (a : Conformance.cell_result) (b : Conformance.cell_result) ->
      Alcotest.(check (float 0.)) "same p-value bit for bit" a.outcome.Kernel.p_value
        b.outcome.Kernel.p_value;
      Alcotest.(check int) "same draw count" a.draws b.draws)
    s1.Conformance.results s2.Conformance.results

let test_trials_env_knob () =
  Alcotest.(check bool) "RSJ_CONF_TRIALS must parse" true
    (try
       Unix.putenv "RSJ_CONF_TRIALS" "not-a-number";
       let r =
         try
           ignore (Conformance.default_config ());
           false
         with Invalid_argument _ -> true
       in
       Unix.putenv "RSJ_CONF_TRIALS" "";
       r
     with e ->
       Unix.putenv "RSJ_CONF_TRIALS" "";
       raise e)

(* Edge shapes through every strategy at k = 2 — its sequential
   reference kernel and its chunked runner at d = 1 — and the walker on
   a k = 3 chain: all-Null R1 keys (|J| = 0), |J| = 1, a single-group
   join (every row shares one key) and r >= |J| on a 4-tuple join. Each
   WR sample must be r tuples of the oracle's support (none when
   |J| = 0), must raise nothing, and at r = 50·|J| must cover that
   support. Every shape has r >= |J| at k = 2, so each strategy's WoR
   sample must be the whole bag join. Relations are (rid, key, pad),
   keyed on column 1. *)
let test_walker_edge_shapes () =
  let rel name keys =
    Relation.of_tuples ~name Zipf_tables.schema
      (List.mapi (fun i k -> [| Value.Int i; k; Value.str "p" |]) keys)
  in
  let ints = List.map (fun k -> Value.Int k) in
  let key = Zipf_tables.col2 in
  let shapes =
    [
      ("all-Null R1 keys", List.init 3 (fun _ -> Value.Null), ints [ 1; 1; 2 ], ints [ 1; 2 ], 10);
      ("|J| = 1", ints [ 1; 5; 6 ], ints [ 1; 7 ], ints [ 1; 8 ], 10);
      ("single group", ints [ 3; 3; 3 ], ints [ 3; 3 ], ints [ 3; 3; 3; 3 ], 24);
      ("r >= |J|", ints [ 1; 2 ], ints [ 1; 2; 9 ], ints [ 1; 2; 2 ], 200);
    ]
  in
  List.iter
    (fun (label, k1, k2, k3, r) ->
      let r1 = rel "r1" k1 and r2 = rel "r2" k2 and r3 = rel "r3" k3 in
      let check_sample kind oracle sample =
        let size = Oracle.size oracle in
        Alcotest.(check int) (Printf.sprintf "%s, %s: r tuples" label kind)
          (if size = 0 then 0 else r) (Array.length sample);
        let counts = Oracle.counter oracle in
        Array.iter
          (fun t ->
            Alcotest.(check bool) (Printf.sprintf "%s, %s: in the support" label kind) true
              (Oracle.cell oracle t <> None);
            Oracle.observe oracle counts t)
          sample;
        if r >= 50 * size then
          Alcotest.(check bool) (Printf.sprintf "%s, %s: covers the support" label kind) true
            (Array.for_all (fun c -> c > 0) counts)
      in
      let env () = Strategy.make_env ~seed:5 ~left:r1 ~right:r2 ~left_key:key ~right_key:key () in
      let oracle = Oracle.of_relations ~left:r1 ~right:r2 ~left_key:key ~right_key:key in
      let bag_join =
        List.sort compare
          (List.concat
             (Array.to_list
                (Array.mapi
                   (fun i t -> List.init (Oracle.multiplicity oracle i) (fun _ -> t))
                   (Oracle.universe oracle))))
      in
      (* The sequential reference kernels and the chunked runners. *)
      let runners =
        [
          ("", Strategy.run, Strategy.run_wor);
          ( " d = 1",
            (fun env s ~r -> Rsj_parallel.run env s ~r ~domains:1),
            fun env s ~r -> Rsj_parallel.run_wor env s ~r ~domains:1 );
        ]
      in
      List.iter
        (fun s ->
          List.iter
            (fun (runner, run, run_wor) ->
              let name = Strategy.name s ^ runner in
              check_sample (name ^ " k = 2") oracle (run (env ()) s ~r).Strategy.sample;
              Alcotest.(check bool)
                (Printf.sprintf "%s, %s WoR: the whole bag join" label name)
                true
                (List.sort compare (Array.to_list (run_wor (env ()) s ~r).Strategy.sample)
                = bag_join))
            runners)
        Strategy.all;
      let spec =
        { Chain_sample.relations = [| r1; r2; r3 |]; join_keys = [| (key, key); (key, key) |] }
      in
      check_sample "chain k = 3" (Oracle.of_chain spec)
        (Chain_sample.sample (prepare_cold spec) (Prng.create ~seed:5 ()) ~r ()))
    shapes

let test_kernel_z_p_value () =
  Alcotest.(check (float 1e-12)) "z = 0" 1. (Kernel.z_p_value 0.);
  Alcotest.(check (float 1e-4)) "z = 1.96" 0.05 (Kernel.z_p_value 1.96);
  Alcotest.(check (float 1e-4)) "z = 2.576" 0.01 (Kernel.z_p_value 2.576);
  Alcotest.(check (float 1e-12)) "two-sided" (Kernel.z_p_value 1.3) (Kernel.z_p_value (-1.3));
  Alcotest.(check bool) "far tail" true (Kernel.z_p_value 10. < 1e-20)

(* KS with the retry policy: an evenly spread sample passes on its
   first attempt; a sample piled at one end fails every attempt. *)
let test_kernel_run_ks () =
  let config = { Kernel.default with retries = 2 } in
  let spread = Array.init 200 (fun i -> (float_of_int i +. 0.5) /. 200.) in
  let attempts = ref [] in
  let ok =
    Kernel.run_ks config ~name:"ks-uniform" ~cdf:Fun.id ~sample:(fun ~attempt ->
        attempts := attempt :: !attempts;
        spread)
  in
  Alcotest.(check bool) "spread sample passes" true ok.Kernel.passed;
  Alcotest.(check int) "on the first attempt" 1 ok.Kernel.attempts;
  Alcotest.(check (list int)) "attempt numbers from 0" [ 0 ] !attempts;
  Alcotest.(check int) "dof is the sample count" 200 ok.Kernel.dof;
  Alcotest.(check (float 1e-9)) "D of the spread sample" 0.0025 ok.Kernel.statistic;
  Alcotest.(check string) "name" "ks-uniform" ok.Kernel.name;
  let piled = Array.init 200 (fun i -> float_of_int i /. 2000.) in
  let bad = Kernel.run_ks config ~name:"ks-piled" ~cdf:Fun.id ~sample:(fun ~attempt:_ -> piled) in
  Alcotest.(check bool) "piled sample fails" false bad.Kernel.passed;
  Alcotest.(check int) "after every attempt" 3 bad.Kernel.attempts;
  Alcotest.(check bool) "D near 0.9" true (Float.abs (bad.Kernel.statistic -. 0.9005) < 1e-3)

(* An oracle over an enumerated universe: repeated tuples share a cell
   weighted by their count, and unknown tuples are refused. *)
let test_oracle_of_universe () =
  let t a b = [| Value.Int a; Value.Int b |] in
  let oracle = Oracle.of_universe [| t 1 1; t 2 2; t 1 1; t 3 3; t 1 1 |] in
  Alcotest.(check int) "|J| counts positions" 5 (Oracle.size oracle);
  Alcotest.(check int) "three distinct cells" 3 (Array.length (Oracle.universe oracle));
  let cell x =
    match Oracle.cell oracle x with Some c -> c | None -> Alcotest.fail "tuple has no cell"
  in
  Alcotest.(check int) "repeated tuple's multiplicity" 3 (Oracle.multiplicity oracle (cell (t 1 1)));
  Alcotest.(check int) "single tuple's multiplicity" 1 (Oracle.multiplicity oracle (cell (t 3 3)));
  Alcotest.(check bool) "a tuple outside the universe" true (Oracle.cell oracle (t 9 9) = None);
  let expected = Oracle.wr_expected oracle ~draws:50 in
  Alcotest.(check (float 1e-9)) "WR mass follows multiplicity" 30. expected.(cell (t 1 1));
  Alcotest.(check (float 1e-9)) "WR mass of a single" 10. expected.(cell (t 2 2));
  let counts = Oracle.counter oracle in
  List.iter (Oracle.observe oracle counts) [ t 1 1; t 1 1; t 3 3 ];
  Alcotest.(check int) "observed into the shared cell" 2 counts.(cell (t 1 1));
  Alcotest.(check bool) "observing a non-join tuple raises" true
    (try
       Oracle.observe oracle counts (t 9 9);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "kernel bucketing preserves totals" `Quick test_bucket_preserves_totals;
    Alcotest.test_case "kernel bucketing collapses underfull" `Quick test_bucket_underfull_collapses;
    Alcotest.test_case "kernel retry policy" `Quick test_kernel_retry_policy;
    Alcotest.test_case "kernel Bonferroni threshold" `Quick test_kernel_threshold;
    Alcotest.test_case "chi-square and G-test agree" `Quick test_kernel_g_vs_chi_agree;
    Alcotest.test_case "kernel z p-value" `Quick test_kernel_z_p_value;
    Alcotest.test_case "kernel KS retry policy" `Quick test_kernel_run_ks;
    Alcotest.test_case "oracle over an enumerated universe" `Quick test_oracle_of_universe;
    Alcotest.test_case "oracle matches plan enumeration" `Quick test_oracle_matches_plan;
    Alcotest.test_case "oracle expected-count laws" `Quick test_oracle_expected_laws;
    Alcotest.test_case "oracle chain = walker weights" `Quick test_oracle_chain_matches_walker;
    Alcotest.test_case "edge shapes: every strategy at k = 2, WR and WoR, and a k = 3 chain" `Quick
      test_walker_edge_shapes;
    Alcotest.test_case "oracle weights bag-join cells" `Quick test_oracle_bag_join;
    Alcotest.test_case "bag-join WoR samples positions" `Quick test_bag_join_wor_positions;
    Alcotest.test_case "reference bag-join WoR: typed shortfall" `Quick
      test_reference_bag_wor_shortfall;
    Alcotest.test_case "biased sampler is rejected" `Slow test_biased_sampler_rejected;
    Alcotest.test_case "matrix runner end to end" `Slow test_conformance_run_mini;
    Alcotest.test_case "matrix runner is deterministic" `Quick test_conformance_deterministic;
    Alcotest.test_case "RSJ_CONF_TRIALS validation" `Quick test_trials_env_knob;
  ]
