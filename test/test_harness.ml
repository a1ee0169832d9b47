module Report = Rsj_harness.Report
module Experiments = Rsj_harness.Experiments

let render t = Format.asprintf "%a" Report.render t

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_report_renders () =
  let t =
    {
      Report.title = "demo";
      header = [ "x"; "value" ];
      rows = [ [ "a"; "1" ]; [ "long-label"; "2" ] ];
    }
  in
  let s = render t in
  Alcotest.(check bool) "title" true (contains ~needle:"== demo ==" s);
  Alcotest.(check bool) "cells" true (contains ~needle:"long-label" s);
  Alcotest.(check bool) "aligned header" true (contains ~needle:"| x " s)

let test_report_rejects_ragged_rows () =
  let t = { Report.title = "bad"; header = [ "a"; "b" ]; rows = [ [ "only-one" ] ] } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (render t);
       false
     with Invalid_argument _ -> true)

let test_cells () =
  Alcotest.(check string) "pct" "42.5%" (Report.pct 42.5);
  Alcotest.(check string) "pct nan" "-" (Report.pct nan);
  Alcotest.(check string) "float nan" "-" (Report.float_cell nan);
  Alcotest.(check string) "float large" "12345" (Report.float_cell 12345.2)

let test_table1_report () =
  let t = Experiments.table1 () in
  Alcotest.(check int) "8 strategies" 8 (List.length t.Report.rows);
  let s = render t in
  Alcotest.(check bool) "mentions stream" true (contains ~needle:"Stream-Sample" s)

let tiny_config =
  {
    Experiments.scale = { Rsj_workload.Zipf_tables.Scale.n1 = 150; n2 = 600; domain = 40; seed = 3 };
    repetitions = 1;
  }

let test_figure_a_structure () =
  let fig = Experiments.figure_a tiny_config in
  Alcotest.(check string) "id" "A" fig.Experiments.id;
  Alcotest.(check int) "five fractions" 5 (List.length fig.Experiments.points);
  List.iter
    (fun (p : Experiments.sweep_point) ->
      Alcotest.(check int) "three strategies" 3 (List.length p.Experiments.cells);
      Alcotest.(check bool) "naive work positive" true (p.Experiments.naive_work > 0);
      List.iter
        (fun (c : Experiments.cell) ->
          Alcotest.(check bool) "work pct positive" true (c.Experiments.work_pct > 0.);
          Alcotest.(check bool) "sample size positive" true (c.Experiments.sample_size > 0))
        p.Experiments.cells)
    fig.Experiments.points

let test_figure_renders () =
  let fig = Experiments.figure_c tiny_config in
  let s = Format.asprintf "%a" Experiments.render_figure fig in
  Alcotest.(check bool) "two tables" true
    (contains ~needle:"running time vs Naive" s && contains ~needle:"work model vs Naive" s);
  Alcotest.(check bool) "x axis labels" true (contains ~needle:"z2=3" s)

let test_figure_f_columns () =
  let fig = Experiments.figure_f tiny_config in
  Alcotest.(check int) "seven thresholds" 7 (List.length fig.Experiments.points);
  let first = List.hd fig.Experiments.points in
  Alcotest.(check int) "three z pairs" 3 (List.length first.Experiments.cells)

let test_stream_beats_naive_work_on_tiny () =
  (* The core claim at a glance: Stream-Sample's work is below Naive
     on every figure-A point at small fractions. *)
  let fig = Experiments.figure_a tiny_config in
  let first_point = List.hd fig.Experiments.points in
  let stream =
    List.find (fun (c : Experiments.cell) -> c.Experiments.label = "Stream-Sample")
      first_point.Experiments.cells
  in
  Alcotest.(check bool)
    (Printf.sprintf "stream work %.1f%% < 100%%" stream.Experiments.work_pct)
    true
    (stream.Experiments.work_pct < 100.)

let test_validate_uniformity_report () =
  let t = Experiments.validate_uniformity ~trials:40 () in
  Alcotest.(check int) "8 rows" 8 (List.length t.Report.rows);
  List.iter
    (fun row ->
      match List.rev row with
      | verdict :: _ -> Alcotest.(check string) "all pass" "PASS" verdict
      | [] -> Alcotest.fail "empty row")
    t.Report.rows

let test_negative_demo_report () =
  let t = Experiments.negative_demo () in
  let s = render t in
  Alcotest.(check bool) "thm10 rows" true (contains ~needle:"Thm 10" s);
  Alcotest.(check bool) "thm12 rows" true (contains ~needle:"infeasible" s)

let test_config_from_env () =
  let cfg = Experiments.config_from_env () in
  Alcotest.(check bool) "reps >= 1" true (cfg.Experiments.repetitions >= 1)

let labels (p : Experiments.sweep_point) =
  List.map (fun (c : Experiments.cell) -> c.Experiments.label) p.Experiments.cells

let work_of label (p : Experiments.sweep_point) =
  (List.find (fun (c : Experiments.cell) -> c.Experiments.label = label) p.Experiments.cells)
    .Experiments.work_pct

(* Figure B repeats Figure A's fraction sweep on the skewed pair: the
   same five fractions and three strategies, one sample size per point
   growing with the fraction, and Stream-Sample's work below Naive's
   everywhere. *)
let test_figure_b_structure () =
  let fig = Experiments.figure_b tiny_config in
  Alcotest.(check string) "id" "B" fig.Experiments.id;
  Alcotest.(check (list string)) "fractions"
    [ "100 tuples"; "sqrt(n)"; "1%"; "5%"; "10%" ]
    (List.map (fun (p : Experiments.sweep_point) -> p.Experiments.x_label) fig.Experiments.points);
  let sizes =
    List.map
      (fun (p : Experiments.sweep_point) ->
        Alcotest.(check (list string)) "strategies"
          [ "Olken-Sample"; "Stream-Sample"; "Frequency-Partition-Sample" ]
          (labels p);
        let sizes = List.map (fun (c : Experiments.cell) -> c.Experiments.sample_size) p.Experiments.cells in
        match List.sort_uniq compare sizes with
        | [ n ] -> n
        | _ -> Alcotest.failf "%s: strategies drew different sizes" p.Experiments.x_label)
      fig.Experiments.points
  in
  Alcotest.(check bool) "sizes grow with the fraction" true (List.sort compare sizes = sizes);
  List.iter
    (fun (p : Experiments.sweep_point) ->
      Alcotest.(check bool) (p.Experiments.x_label ^ ": stream below naive") true
        (work_of "Stream-Sample" p < 100.))
    fig.Experiments.points

(* Figure D sweeps the inner skew with the outer at z = 3. *)
let test_figure_d_structure () =
  let fig = Experiments.figure_d tiny_config in
  Alcotest.(check string) "id" "D" fig.Experiments.id;
  Alcotest.(check (list string)) "inner skews" [ "z2=0"; "z2=1"; "z2=2"; "z2=3" ]
    (List.map (fun (p : Experiments.sweep_point) -> p.Experiments.x_label) fig.Experiments.points);
  List.iter
    (fun (p : Experiments.sweep_point) ->
      Alcotest.(check int) "three strategies" 3 (List.length p.Experiments.cells);
      Alcotest.(check bool) "naive work positive" true (p.Experiments.naive_work > 0);
      Alcotest.(check bool) (p.Experiments.x_label ^ ": stream below naive") true
        (work_of "Stream-Sample" p < 100.))
    fig.Experiments.points

(* Figure E runs Frequency-Partition-Sample alone, one series per outer
   skew, each over the four inner skews. *)
let test_figure_e_structure () =
  let fig = Experiments.figure_e tiny_config in
  Alcotest.(check string) "id" "E" fig.Experiments.id;
  let z2 = [ "z2=0"; "z2=1"; "z2=2"; "z2=3" ] in
  Alcotest.(check (list string)) "two series over the inner skews" (z2 @ z2)
    (List.map (fun (p : Experiments.sweep_point) -> p.Experiments.x_label) fig.Experiments.points);
  Alcotest.(check (list (list string))) "one FPS cell per point"
    (List.map (fun _ -> [ "FPS (outer z=0)" ]) z2 @ List.map (fun _ -> [ "FPS (outer z=3)" ]) z2)
    (List.map labels fig.Experiments.points)

(* V1: the measured intermediate-join fraction of Group-, Frequency-
   Partition- and Index-Sample tracks Theorems 7-9 at every skew. *)
let test_validate_alphas_report () =
  let t = Experiments.validate_alphas tiny_config in
  Alcotest.(check (list string)) "header"
    [ "Z"; "strategy"; "r"; "alpha predicted"; "alpha measured" ]
    t.Report.header;
  Alcotest.(check int) "three strategies at three skews" 9 (List.length t.Report.rows);
  List.iter
    (fun row ->
      match row with
      | [ z; strategy; _; predicted; measured ] ->
          let predicted = float_of_string predicted and measured = float_of_string measured in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: measured %g within 15%% of %g" z strategy measured predicted)
            true
            (Float.abs (measured -. predicted) <= 0.15 *. predicted)
      | _ -> Alcotest.fail "row shape")
    t.Report.rows

let suite =
  [
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "report rejects ragged rows" `Quick test_report_rejects_ragged_rows;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "table 1 report" `Quick test_table1_report;
    Alcotest.test_case "figure A structure" `Slow test_figure_a_structure;
    Alcotest.test_case "figure rendering" `Slow test_figure_renders;
    Alcotest.test_case "figure F columns" `Slow test_figure_f_columns;
    Alcotest.test_case "stream-sample beats naive (work)" `Slow test_stream_beats_naive_work_on_tiny;
    Alcotest.test_case "uniformity validation report" `Slow test_validate_uniformity_report;
    Alcotest.test_case "negative-results report" `Quick test_negative_demo_report;
    Alcotest.test_case "config from env" `Quick test_config_from_env;
    Alcotest.test_case "figure B structure" `Slow test_figure_b_structure;
    Alcotest.test_case "figure D structure" `Slow test_figure_d_structure;
    Alcotest.test_case "figure E structure" `Slow test_figure_e_structure;
    Alcotest.test_case "alpha validation report" `Slow test_validate_alphas_report;
  ]
