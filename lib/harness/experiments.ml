open Rsj_core
module Zipf_tables = Rsj_workload.Zipf_tables
module Metrics = Rsj_exec.Metrics
module Frequency = Rsj_stats.Frequency
module Join_size = Rsj_stats.Join_size

type config = { scale : Zipf_tables.Scale.t; repetitions : int }

let config_from_env () =
  { scale = Zipf_tables.Scale.from_env (); repetitions = Rsj_obs.Config.reps () }

type cell = { label : string; runtime_pct : float; work_pct : float; sample_size : int }
type sweep_point = { x_label : string; naive_seconds : float; naive_work : int; cells : cell list }
type figure = { id : string; caption : string; x_axis : string; points : sweep_point list }

(* ------------------------------------------------------------------ *)
(* Measurement plumbing                                                *)

(* Median wall-clock over k runs plus the work counters of the last
   run (work is essentially deterministic across runs). *)
let measure ~reps env strategy ~r =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to max 1 reps do
    let res = Strategy.run env strategy ~r in
    times := res.Strategy.elapsed_seconds :: !times;
    last := Some res
  done;
  let med = Rsj_util.Stats_math.median (Array.of_list !times) in
  match !last with
  | Some res -> (med, Metrics.total_work res.Strategy.metrics, Array.length res.Strategy.sample)
  | None -> assert false

type fraction = Abs of int | Sqrt | Pct of float

let fraction_label = function
  | Abs k -> Printf.sprintf "%d tuples" k
  | Sqrt -> "sqrt(n)"
  | Pct p -> Printf.sprintf "%g%%" p

let resolve_r fraction ~n =
  match fraction with
  | Abs k -> min k (max n 1)
  | Sqrt -> max 1 (int_of_float (sqrt (float_of_int n)))
  | Pct p -> max 1 (int_of_float (float_of_int n *. p /. 100.))

let paper_fractions = [ Abs 100; Sqrt; Pct 1.; Pct 5.; Pct 10. ]

let make_env ?(histogram_fraction = 0.05) (cfg : config) ~z1 ~z2 () =
  let s = cfg.scale in
  let pair = Zipf_tables.make_pair ~seed:s.seed ~n1:s.n1 ~n2:s.n2 ~z1 ~z2 ~domain:s.domain () in
  Strategy.make_env ~seed:s.seed ~histogram_fraction ~left:pair.outer ~right:pair.inner
    ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()

(* One sweep point: run Naive for the baseline, then each strategy. *)
let sweep_point ~reps env ~x_label ~r strategies =
  let naive_seconds, naive_work, _ = measure ~reps env Strategy.Naive ~r in
  let cells =
    List.map
      (fun s ->
        let seconds, work, sample_size = measure ~reps env s ~r in
        {
          label = Strategy.name s;
          runtime_pct = 100. *. seconds /. Float.max naive_seconds 1e-9;
          work_pct = 100. *. float_of_int work /. float_of_int (max naive_work 1);
          sample_size;
        })
      strategies
  in
  { x_label; naive_seconds; naive_work; cells }

let figure_strategies = [ Strategy.Olken; Strategy.Stream; Strategy.Frequency_partition ]

let fraction_figure cfg ~id ~z1 ~z2 =
  let env = make_env cfg ~z1 ~z2 () in
  let n = Strategy.env_join_size env in
  let points =
    List.map
      (fun frac ->
        let r = resolve_r frac ~n in
        sweep_point ~reps:cfg.repetitions env ~x_label:(fraction_label frac) ~r figure_strategies)
      paper_fractions
  in
  {
    id;
    caption =
      Printf.sprintf "Effect of sampling fraction on performance, Z = (%g, %g), |J| = %d" z1 z2 n;
    x_axis = "sampling fraction";
    points;
  }

let figure_a cfg = fraction_figure cfg ~id:"A" ~z1:0. ~z2:0.
let figure_b cfg = fraction_figure cfg ~id:"B" ~z1:2. ~z2:3.

let skew_figure cfg ~id ~z1 =
  let points =
    List.map
      (fun z2 ->
        let env = make_env cfg ~z1 ~z2 () in
        let n = Strategy.env_join_size env in
        let r = resolve_r (Pct 1.) ~n in
        sweep_point ~reps:cfg.repetitions env
          ~x_label:(Printf.sprintf "z2=%g" z2)
          ~r figure_strategies)
      [ 0.; 1.; 2.; 3. ]
  in
  {
    id;
    caption =
      Printf.sprintf
        "Effect of skew (index on inner relation), outer z = %g, sampling fraction = 1%%" z1;
    x_axis = "inner relation skew z2";
    points;
  }

let figure_c cfg = skew_figure cfg ~id:"C" ~z1:0.
let figure_d cfg = skew_figure cfg ~id:"D" ~z1:3.

let figure_e cfg =
  let points =
    List.concat_map
      (fun z1 ->
        List.map
          (fun z2 ->
            let env = make_env cfg ~z1 ~z2 () in
            let n = Strategy.env_join_size env in
            let r = resolve_r (Pct 1.) ~n in
            let naive_seconds, naive_work, _ = measure ~reps:cfg.repetitions env Strategy.Naive ~r in
            let seconds, work, sample_size =
              measure ~reps:cfg.repetitions env Strategy.Frequency_partition ~r
            in
            {
              x_label = Printf.sprintf "z2=%g" z2;
              naive_seconds;
              naive_work;
              cells =
                [
                  {
                    label = Printf.sprintf "FPS (outer z=%g)" z1;
                    runtime_pct = 100. *. seconds /. Float.max naive_seconds 1e-9;
                    work_pct = 100. *. float_of_int work /. float_of_int (max naive_work 1);
                    sample_size;
                  };
                ];
            })
          [ 0.; 1.; 2.; 3. ])
      [ 0.; 3. ]
  in
  {
    id = "E";
    caption =
      "Frequency-Partition-Sample with no index on the inner relation, varying inner skew, \
       fraction 1%";
    x_axis = "inner relation skew z2";
    points;
  }

let figure_f cfg =
  let thresholds = [ 0.1; 0.5; 1.; 2.; 5.; 10.; 20. ] in
  let z_pairs = [ (2., 3.); (1., 2.); (1., 1.) ] in
  (* Naive does not depend on the threshold: measure it once per pair. *)
  let baselines =
    List.map
      (fun (z1, z2) ->
        let env = make_env cfg ~z1 ~z2 () in
        let n = Strategy.env_join_size env in
        let r = resolve_r (Pct 1.) ~n in
        let naive_seconds, naive_work, _ = measure ~reps:cfg.repetitions env Strategy.Naive ~r in
        ((z1, z2), (naive_seconds, naive_work, r)))
      z_pairs
  in
  let points =
    List.map
      (fun k ->
        let cells =
          List.map
            (fun (z1, z2) ->
              let naive_seconds, naive_work, r = List.assoc (z1, z2) baselines in
              let env = make_env ~histogram_fraction:(k /. 100.) cfg ~z1 ~z2 () in
              let seconds, work, sample_size =
                measure ~reps:cfg.repetitions env Strategy.Frequency_partition ~r
              in
              {
                label = Printf.sprintf "Z=(%g,%g)" z1 z2;
                runtime_pct = 100. *. seconds /. Float.max naive_seconds 1e-9;
                work_pct = 100. *. float_of_int work /. float_of_int (max naive_work 1);
                sample_size;
              })
            z_pairs
        in
        let naive_seconds, naive_work, _ = snd (List.hd baselines) in
        { x_label = Printf.sprintf "%g%%" k; naive_seconds; naive_work; cells })
      thresholds
  in
  {
    id = "F";
    caption =
      "Effect of the statistics threshold on Frequency-Partition-Sample, fraction 1%";
    x_axis = "statistics threshold";
    points;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let column_labels figure =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun p ->
      List.filter_map
        (fun c ->
          if Hashtbl.mem seen c.label then None
          else begin
            Hashtbl.replace seen c.label ();
            Some c.label
          end)
        p.cells)
    figure.points

let figure_table figure ~select ~metric_name =
  let labels = column_labels figure in
  let rows =
    List.map
      (fun p ->
        p.x_label
        :: List.map
             (fun l ->
               match List.find_opt (fun c -> c.label = l) p.cells with
               | Some c -> Report.pct (select c)
               | None -> "-")
             labels)
      figure.points
  in
  {
    Report.title = Printf.sprintf "Figure %s (%s): %s" figure.id metric_name figure.caption;
    header = figure.x_axis :: labels;
    rows;
  }

let render_figure ppf figure =
  Report.render ppf (figure_table figure ~select:(fun c -> c.runtime_pct) ~metric_name:"running time vs Naive");
  Report.render ppf (figure_table figure ~select:(fun c -> c.work_pct) ~metric_name:"work model vs Naive")

let table1 () =
  {
    Report.title = "Table 1: information about R1 and R2 required by each strategy";
    header = [ "Sampling Strategy"; "R1 Info."; "R2 Info." ];
    rows = List.map (fun (a, b, c) -> [ a; b; c ]) (Strategy.table1 ());
  }

(* ------------------------------------------------------------------ *)
(* Validations                                                         *)

let validate_alphas cfg =
  let rows = ref [] in
  List.iter
    (fun (z1, z2) ->
      let env = make_env cfg ~z1 ~z2 () in
      let n = Strategy.env_join_size env in
      let r = max 1 (n / 100) in
      let m1 = Frequency.of_relation (Strategy.env_left env) ~key:Zipf_tables.col2 in
      let m2 = Strategy.env_right_stats env in
      let histogram = Strategy.env_histogram env in
      let is_high v = Rsj_stats.Histogram.End_biased.is_high histogram v in
      let measured strategy =
        let runs = 5 in
        let acc = ref 0 in
        for _ = 1 to runs do
          let res = Strategy.run env strategy ~r in
          acc := !acc + res.Strategy.metrics.Metrics.join_output_tuples
        done;
        float_of_int !acc /. float_of_int (runs * max n 1)
      in
      let add name predicted strategy =
        rows :=
          [
            Printf.sprintf "Z=(%g,%g)" z1 z2;
            name;
            string_of_int r;
            Report.float_cell predicted;
            Report.float_cell (measured strategy);
          ]
          :: !rows
      in
      add "Group-Sample (Thm 7)" (Join_size.alpha_group_sample ~m1 ~m2 ~r) Strategy.Group;
      add "Freq-Partition (Thm 8)"
        (Join_size.alpha_frequency_partition ~m1 ~m2 ~is_high ~r)
        Strategy.Frequency_partition;
      add "Index-Sample (Thm 9)"
        (Join_size.alpha_index_sample ~m1 ~m2 ~is_high ~r)
        Strategy.Index_sample)
    [ (1., 1.); (1., 2.); (2., 3.) ];
  {
    Report.title =
      "V1: predicted vs measured intermediate-join fraction alpha (r = 1% of |J|)";
    header = [ "Z"; "strategy"; "r"; "alpha predicted"; "alpha measured" ];
    rows = List.rev !rows;
  }

let validate_uniformity ?(trials = 150) () =
  let pair = Zipf_tables.make_pair ~seed:0x11 ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  let env =
    Strategy.make_env ~seed:0x11 ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
      ~right_key:Zipf_tables.col2 ()
  in
  let universe =
    Array.of_list
      (Rsj_exec.Plan.collect
         (Rsj_exec.Plan.Join
            {
              Rsj_exec.Plan.algorithm = Rsj_exec.Plan.Hash;
              left = Rsj_exec.Plan.Scan (Strategy.env_left env);
              right = Rsj_exec.Plan.Scan (Strategy.env_right env);
              left_key = Zipf_tables.col2;
              right_key = Zipf_tables.col2;
            }))
  in
  let rows =
    List.map
      (fun s ->
        let report =
          Negative.uniformity_check ~trials ~universe ~draw:(fun () ->
              (Strategy.run env s ~r:20).Strategy.sample)
        in
        [
          Strategy.name s;
          string_of_int report.Negative.cells;
          string_of_int report.Negative.draws;
          Printf.sprintf "%.4f" report.Negative.chi_square.Rsj_util.Stats_math.p_value;
          (if report.Negative.chi_square.Rsj_util.Stats_math.p_value > 0.001 then "PASS" else "FAIL");
        ])
      Strategy.all
  in
  {
    Report.title = "V2: chi-square uniformity of every strategy over an enumerated join";
    header = [ "strategy"; "cells"; "draws"; "p-value"; "verdict" ];
    rows;
  }

let negative_demo () =
  let rng = Rsj_util.Prng.create ~seed:0xD0 () in
  let trials = 300 in
  let empirical_rate ~f1 ~f2 =
    let empty = ref 0 in
    for _ = 1 to trials do
      if Negative.oblivious_join_trial rng ~k:50 ~f1 ~f2 = 0 then incr empty
    done;
    float_of_int !empty /. float_of_int trials
  in
  let rows_thm10 =
    List.map
      (fun (f1, f2) ->
        [
          Printf.sprintf "Thm 10 demo: f1=%g f2=%g" f1 f2;
          Report.pct (100. *. Negative.oblivious_join_empty_prob ~f1 ~f2);
          Report.pct (100. *. empirical_rate ~f1 ~f2);
        ])
      [ (0.01, 0.01); (0.05, 0.05); (0.2, 0.2) ]
  in
  let rows_thm12 =
    List.map
      (fun (f, f1, f2) ->
        [
          Printf.sprintf "Thm 12: f=%g f1=%g f2=%g" f f1 f2;
          (if Negative.thm12_feasible ~f ~f1 ~f2 then "feasible" else "infeasible");
          Printf.sprintf "min symmetric f1=f2: %.3f" (Negative.min_symmetric_fraction ~f);
        ])
      [ (0.01, 0.1, 0.1); (0.01, 0.05, 0.1); (0.04, 0.5, 0.1) ]
  in
  {
    Report.title =
      "V3: negative results (Example 1 / Theorem 10 empty-join rate; Theorem 12 bounds)";
    header = [ "case"; "predicted"; "measured / note" ];
    rows = rows_thm10 @ rows_thm12;
  }

(* V4: under disk costs Olken-Sample's random accesses dominate, and
   the paper's ordering (Stream beats Olken at larger fractions)
   emerges from the same runs whose in-memory wall-clock favours
   Olken. *)
let disk_model_comparison cfg =
  let env = make_env cfg ~z1:0. ~z2:0. () in
  let n = Strategy.env_join_size env in
  let model = Rsj_exec.Io_model.default_disk in
  let rows =
    List.map
      (fun frac ->
        let r = resolve_r frac ~n in
        let baseline = (Strategy.run env Strategy.Naive ~r).Strategy.metrics in
        let cells =
          List.map
            (fun s ->
              let m = (Strategy.run env s ~r).Strategy.metrics in
              Report.pct (Rsj_exec.Io_model.relative_pct model ~baseline m))
            figure_strategies
        in
        fraction_label frac :: cells)
      paper_fractions
  in
  {
    Report.title =
      "V4: Figure A sweep under the disk cost model (random page = 4x sequential page)";
    header = "sampling fraction" :: List.map Strategy.name figure_strategies;
    rows;
  }

let all_strategies_comparison cfg =
  let env = make_env cfg ~z1:1. ~z2:2. () in
  let n = Strategy.env_join_size env in
  let r = resolve_r (Pct 1.) ~n in
  let naive = Strategy.run env Strategy.Naive ~r in
  let naive_seconds = naive.Strategy.elapsed_seconds in
  let naive_work = Metrics.total_work naive.Strategy.metrics in
  let rows =
    List.map
      (fun s ->
        let res = Strategy.run env s ~r in
        let m = res.Strategy.metrics in
        [
          Strategy.name s;
          Report.pct (100. *. res.Strategy.elapsed_seconds /. Float.max naive_seconds 1e-9);
          Report.pct (100. *. float_of_int (Metrics.total_work m) /. float_of_int (max naive_work 1));
          string_of_int m.Metrics.join_output_tuples;
          string_of_int (m.Metrics.index_probes + m.Metrics.random_accesses);
          string_of_int m.Metrics.rejected_samples;
        ])
      Strategy.all
  in
  {
    Report.title =
      Printf.sprintf
        "V5: all strategies on one cell (Z=(1,2), r = 1%% of |J| = %d, vs Naive)" n;
    header =
      [ "strategy"; "runtime"; "work"; "join tuples"; "probes+random"; "rejections" ];
    rows;
  }

(* V6: only shows a speedup on a machine with that many cores, so the
   title reports the available core count. *)
let parallel_speedup cfg =
  let domain_counts = [ 1; 2; 4 ] in
  let env = make_env cfg ~z1:0. ~z2:0. () in
  let n = Strategy.env_join_size env in
  let r = resolve_r (Pct 1.) ~n in
  let median_time strategy domains =
    let times =
      Array.init (max 1 cfg.repetitions) (fun _ ->
          (Rsj_parallel.run env strategy ~r ~domains).Strategy.elapsed_seconds)
    in
    Rsj_util.Stats_math.median times
  in
  let strategy_rows strategy =
    let base = median_time strategy 1 in
    List.map
      (fun d ->
        let t = median_time strategy d in
        [
          Printf.sprintf "%s" (Strategy.name strategy);
          string_of_int d;
          Printf.sprintf "%.4fs" t;
          Printf.sprintf "%.2fx" (base /. Float.max t 1e-9);
        ])
      domain_counts
  in
  let right = Strategy.env_right env in
  let build_base = ref nan in
  let build_rows =
    List.map
      (fun d ->
        let t0 = Rsj_obs.Clock.now_s () in
        ignore (Rsj_index.Hash_index.build right ~key:Zipf_tables.col2);
        ignore (Frequency.of_relation_parallel ~domains:d right ~key:Zipf_tables.col2);
        let t = Rsj_obs.Clock.now_s () -. t0 in
        if d = 1 then build_base := t;
        [
          "index+stats build";
          string_of_int d;
          Printf.sprintf "%.4fs" t;
          Printf.sprintf "%.2fx" (!build_base /. Float.max t 1e-9);
        ])
      domain_counts
  in
  {
    Report.title =
      Printf.sprintf
        "V6: parallel runtime speedup (Z=(0,0), r = 1%% of |J| = %d, %d cores available)" n
        (Domain.recommended_domain_count ());
    header = [ "workload"; "domains"; "time"; "speedup" ];
    rows = List.concat_map strategy_rows [ Strategy.Stream; Strategy.Group ] @ build_rows;
  }

let run_all ppf =
  let cfg = config_from_env () in
  Format.fprintf ppf "Random Sampling over Joins — experiment harness@.";
  Format.fprintf ppf "scale: %a, repetitions: %d@."
    Zipf_tables.Scale.pp cfg.scale cfg.repetitions;
  Report.render ppf (table1 ());
  List.iter
    (fun mk -> render_figure ppf (mk cfg))
    [ figure_a; figure_b; figure_c; figure_d; figure_e; figure_f ];
  Report.render ppf (validate_alphas cfg);
  Report.render ppf (validate_uniformity ());
  Report.render ppf (negative_demo ());
  Report.render ppf (disk_model_comparison cfg);
  Report.render ppf (all_strategies_comparison cfg);
  Report.render ppf (parallel_speedup cfg)
