(* Empirical interval-coverage harness for Error_report.

   Draws many independent WR samples of the same join, builds the
   per-query error report for each, and checks that the CLT and
   Hoeffding intervals cover the true aggregate at least as often as
   the nominal confidence promises. Hoeffding is distribution-free, so
   its coverage must meet the nominal level outright; the CLT interval
   is asymptotic, so it gets a binomial-noise allowance below nominal.

   [RSJ_COVERAGE_TRIALS] scales the number of trials, mirroring
   [RSJ_CONF_TRIALS] in the conformance sweep. *)

open Rsj_relation
module Strategy = Rsj_core.Strategy
module Zipf_tables = Rsj_workload.Zipf_tables
module Oracle = Rsj_verify.Oracle
module Error_report = Rsj_optimizer.Error_report

let env_coverage_trials fallback =
  match Sys.getenv_opt "RSJ_COVERAGE_TRIALS" with
  | None -> fallback
  | Some s when String.trim s = "" -> fallback
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> v
      | _ ->
          invalid_arg
            (Printf.sprintf "RSJ_COVERAGE_TRIALS must be a positive integer, got %S" s))

let confidence = 0.95
let sample_r = 160

(* The aggregated column is the outer rid; the predicate keeps even
   rids, so COUNT is a genuine selectivity estimate rather than the
   degenerate all-rows case. *)
let g_col = Zipf_tables.col_rid

let numeric t =
  match Tuple.get t g_col with
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | _ -> 0.

let pred t =
  match Tuple.get t g_col with Value.Int i -> i mod 2 = 0 | _ -> false

type truth = {
  pair : Zipf_tables.pair;
  join_size : int;
  range : float * float;
  true_sum : float;
  true_count : float;
  true_avg : float;
}

let truth =
  lazy
    (let pair =
       Zipf_tables.make_pair ~seed:0xC0FE ~n1:40 ~n2:80 ~z1:1.0 ~z2:2.0 ~domain:6 ()
     in
     let oracle =
       Oracle.of_relations ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
         ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2
     in
     let universe = Oracle.universe oracle in
     let n = Array.length universe in
     let lo = ref infinity and hi = ref neg_infinity in
     let sum = ref 0. and count = ref 0 in
     Array.iter
       (fun t ->
         let x = numeric t in
         if x < !lo then lo := x;
         if x > !hi then hi := x;
         if pred t then (
           sum := !sum +. x;
           incr count))
       universe;
     {
       pair;
       join_size = n;
       range = (!lo, !hi);
       true_sum = !sum;
       true_count = float_of_int !count;
       true_avg = !sum /. float_of_int !count;
     })

let report_for_trial truth trial =
  let env =
    Strategy.make_env ~seed:(0x5EED + (trial * 7919)) ~left:truth.pair.Zipf_tables.outer
      ~right:truth.pair.Zipf_tables.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ()
  in
  let result = Strategy.run env Strategy.Stream ~r:sample_r in
  Error_report.make ~confidence ~range:truth.range ~pred ~sample:result.Strategy.sample
    ~n:truth.join_size ~col:g_col ()

(* One counter per aggregate × interval family. *)
type counters = { mutable clt : int; mutable hoeffding : int }

let find_line (report : Error_report.t) name =
  List.find_opt (fun l -> l.Error_report.aggregate = name) report.Error_report.lines

let width (i : Error_report.interval) = i.hi -. i.lo
let contains (i : Error_report.interval) x = i.lo <= x && x <= i.hi

let test_interval_coverage () =
  let truth = Lazy.force truth in
  let trials = env_coverage_trials 150 in
  let sum_c = { clt = 0; hoeffding = 0 }
  and count_c = { clt = 0; hoeffding = 0 }
  and avg_c = { clt = 0; hoeffding = 0 } in
  for trial = 0 to trials - 1 do
    let report = report_for_trial truth trial in
    let tally counters name target =
      match find_line report name with
      | None -> Alcotest.failf "report is missing the %s line" name
      | Some line ->
          if contains line.Error_report.clt target then
            counters.clt <- counters.clt + 1;
          if contains line.Error_report.hoeffding target then
            counters.hoeffding <- counters.hoeffding + 1
    in
    tally sum_c "sum" truth.true_sum;
    tally count_c "count" truth.true_count;
    tally avg_c "avg" truth.true_avg
  done;
  let ft = float_of_int trials in
  (* Binomial standard error of an empirical coverage proportion at
     the nominal level; the CLT intervals are asymptotic, so they are
     allowed to fall this far below nominal before we call it a
     failure. Hoeffding is finite-sample valid and gets no slack. *)
  let slack = 2.5 *. sqrt (confidence *. (1. -. confidence) /. ft) in
  let check name counters =
    let clt_rate = float_of_int counters.clt /. ft in
    let hoeff_rate = float_of_int counters.hoeffding /. ft in
    if clt_rate < confidence -. slack then
      Alcotest.failf "%s CLT coverage %.3f < %.3f (nominal %.2f - slack %.3f, %d trials)"
        name clt_rate (confidence -. slack) confidence slack trials;
    if hoeff_rate < confidence then
      Alcotest.failf "%s Hoeffding coverage %.3f < nominal %.2f (%d trials)" name
        hoeff_rate confidence trials
  in
  check "sum" sum_c;
  check "count" count_c;
  check "avg" avg_c

(* The Hoeffding interval must dominate the CLT interval's width once
   the range is declared: it trades the distributional assumption for
   width, never the other way round at these sample sizes. *)
let test_hoeffding_wider () =
  let truth = Lazy.force truth in
  let report = report_for_trial truth 0 in
  List.iter
    (fun name ->
      match find_line report name with
      | None -> Alcotest.failf "report is missing the %s line" name
      | Some line ->
          if
            width line.Error_report.hoeffding
            < width line.Error_report.clt
          then
            Alcotest.failf "%s: Hoeffding width %.3f < CLT width %.3f" name
              (width line.Error_report.hoeffding)
              (width line.Error_report.clt))
    [ "sum"; "count" ]

let test_trials_env_knob () =
  let with_env value f =
    Unix.putenv "RSJ_COVERAGE_TRIALS" value;
    Fun.protect ~finally:(fun () -> Unix.putenv "RSJ_COVERAGE_TRIALS" "") f
  in
  with_env "25" (fun () ->
      Alcotest.(check int) "override wins" 25 (env_coverage_trials 150));
  with_env "" (fun () ->
      Alcotest.(check int) "blank falls back" 150 (env_coverage_trials 150));
  with_env "zero-ish" (fun () ->
      Alcotest.check_raises "non-numeric rejected"
        (Invalid_argument "RSJ_COVERAGE_TRIALS must be a positive integer, got \"zero-ish\"")
        (fun () -> ignore (env_coverage_trials 150)));
  with_env "0" (fun () ->
      Alcotest.check_raises "zero rejected"
        (Invalid_argument "RSJ_COVERAGE_TRIALS must be a positive integer, got \"0\"")
        (fun () -> ignore (env_coverage_trials 150)))

let suite =
  [
    Alcotest.test_case "interval coverage >= nominal" `Slow test_interval_coverage;
    Alcotest.test_case "hoeffding dominates clt width" `Quick test_hoeffding_wider;
    Alcotest.test_case "RSJ_COVERAGE_TRIALS knob" `Quick test_trials_env_knob;
  ]
