(* Benchmark harness.

   Two layers:
   1. The paper harness: for every table and figure of the paper's §8
      (Table 1, Figures A-F) plus the analytic validations, print the
      same rows/series the paper reports (running time as % of
      Naive-Sample, and the scale-independent work model). This is the
      default output.
   2. Bechamel micro-benchmarks — one Test.make per paper artifact —
      timing the kernel of the strategy/black box each figure exercises,
      plus ablations (binomial sampler variants, reservoir vs known-n
      black boxes, hash-index probes, CF skipping).

   Environment knobs: RSJ_N1, RSJ_N2, RSJ_DOMAIN, RSJ_SCALE, RSJ_SEED,
   RSJ_REPS (paper harness); RSJ_BENCH_QUOTA (seconds per bechamel
   test, default 0.5); RSJ_PAR_N1 (outer-relation size of the
   parallel/* benches, default 1,000,000); RSJ_SKIP_MICRO=1 to skip
   layer 2; RSJ_SKIP_PAPER=1 to skip layer 1; RSJ_ONLY_PARALLEL=1 to
   run only the parallel/* benches (what `make bench-parallel` sets).

   `--json` (what `make bench-json` passes) skips both layers and
   instead writes BENCH_parallel.json: strategy × domain-count median
   wall-times over the pooled runtime plus the domain-pool spawn
   counters, at a CI-friendly scale (RSJ_PAR_N1 default 100,000). *)

open Bechamel
open Toolkit
module Strategy = Rsj_core.Strategy
module Black_box = Rsj_core.Black_box
module Zipf_tables = Rsj_workload.Zipf_tables
module Stream0 = Rsj_relation.Stream0

(* A small standing workload shared by the micro benches. *)
let micro_env ~z1 ~z2 =
  let pair = Zipf_tables.make_pair ~seed:42 ~n1:2_000 ~n2:8_000 ~z1 ~z2 ~domain:400 () in
  Strategy.make_env ~seed:42 ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
    ~right_key:Zipf_tables.col2 ()

let strategy_kernel env strategy ~r () = ignore (Strategy.run env strategy ~r)

let micro_tests () =
  let env_uniform = micro_env ~z1:0. ~z2:0. in
  let env_skewed = micro_env ~z1:2. ~z2:3. in
  (* Force auxiliary structures outside the timed region. *)
  ignore (Strategy.env_right_index env_uniform);
  ignore (Strategy.env_right_index env_skewed);
  ignore (Strategy.env_histogram env_uniform);
  ignore (Strategy.env_histogram env_skewed);
  let r_uniform = max 1 (Strategy.env_join_size env_uniform / 100) in
  let r_skewed = max 1 (Strategy.env_join_size env_skewed / 1000) in
  let rng = Rsj_util.Prng.create ~seed:7 () in
  let stream_of_ints n = Stream0.of_array (Array.init n Fun.id) in
  let fps_threshold_test =
    let pair = Zipf_tables.make_pair ~seed:42 ~n1:2_000 ~n2:8_000 ~z1:2. ~z2:3. ~domain:400 () in
    let env =
      Strategy.make_env ~seed:42 ~histogram_fraction:0.02 ~left:pair.outer ~right:pair.inner
        ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
    in
    ignore (Strategy.env_histogram env);
    Test.make ~name:"figF/fps-threshold-2pct"
      (Staged.stage (strategy_kernel env Strategy.Frequency_partition ~r:r_skewed))
  in
  let hash_probe_test =
    let idx = Strategy.env_right_index env_skewed in
    Test.make ~name:"ablation/hash-index-probe"
      (Staged.stage (fun () ->
           ignore
             (Rsj_index.Hash_index.multiplicity idx
                (Rsj_relation.Value.Int (1 + Rsj_util.Prng.int rng 400)))))
  in
  [
    (* Table 1 is about requirements, not speed; its micro bench times
       the cheapest strategy satisfying the Case B row at z=(0,0). *)
    Test.make ~name:"table1/stream-sample"
      (Staged.stage (strategy_kernel env_uniform Strategy.Stream ~r:r_uniform));
    Test.make ~name:"figA/naive-z00"
      (Staged.stage (strategy_kernel env_uniform Strategy.Naive ~r:r_uniform));
    Test.make ~name:"figA/stream-z00"
      (Staged.stage (strategy_kernel env_uniform Strategy.Stream ~r:r_uniform));
    Test.make ~name:"figB/naive-z23"
      (Staged.stage (strategy_kernel env_skewed Strategy.Naive ~r:r_skewed));
    Test.make ~name:"figB/fps-z23"
      (Staged.stage (strategy_kernel env_skewed Strategy.Frequency_partition ~r:r_skewed));
    Test.make ~name:"figC/olken-z23"
      (Staged.stage (strategy_kernel env_skewed Strategy.Olken ~r:r_skewed));
    Test.make ~name:"figD/stream-z23"
      (Staged.stage (strategy_kernel env_skewed Strategy.Stream ~r:r_skewed));
    Test.make ~name:"figE/fps-noindex-z23"
      (Staged.stage (strategy_kernel env_skewed Strategy.Hybrid_count ~r:r_skewed));
    fps_threshold_test;
    (* Ablations *)
    Test.make ~name:"ablation/u1-known-n"
      (Staged.stage (fun () ->
           ignore (Stream0.to_array (Black_box.u1 rng ~n:10_000 ~r:100 (stream_of_ints 10_000)))));
    Test.make ~name:"ablation/u2-reservoir"
      (Staged.stage (fun () -> ignore (Black_box.u2 rng ~r:100 (stream_of_ints 10_000))));
    Test.make ~name:"ablation/cf-per-tuple"
      (Staged.stage (fun () ->
           ignore (Stream0.length (Black_box.coin_flip rng ~f:0.01 (stream_of_ints 10_000)))));
    Test.make ~name:"ablation/cf-skip"
      (Staged.stage (fun () ->
           ignore (Stream0.length (Black_box.coin_flip_skip rng ~f:0.01 (stream_of_ints 10_000)))));
    Test.make ~name:"ablation/binomial-small-mean"
      (Staged.stage (fun () -> ignore (Rsj_util.Dist.binomial rng ~n:1000 ~p:0.001)));
    Test.make ~name:"ablation/binomial-large-mean"
      (Staged.stage (fun () -> ignore (Rsj_util.Dist.binomial rng ~n:100_000 ~p:0.4)));
    hash_probe_test;
  ]

(* Parallel-runtime benches. The workload is the acceptance-size Zipf
   pair (n1 from RSJ_PAR_N1, default 1,000,000); speedup at domains > 1
   only materialises when the machine actually has spare cores. *)
let parallel_tests () =
  let n1 =
    match Sys.getenv_opt "RSJ_PAR_N1" with
    | Some s -> ( match int_of_string_opt s with Some v when v > 0 -> v | _ -> 1_000_000)
    | None -> 1_000_000
  in
  let make_env ?histogram_fraction ~z1 ~z2 () =
    let pair =
      Zipf_tables.make_pair ~seed:42 ~n1 ~n2:(max 1 (n1 / 4)) ~z1 ~z2 ~domain:1_000 ()
    in
    let env =
      Strategy.make_env ~seed:42 ?histogram_fraction ~left:pair.outer ~right:pair.inner
        ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
    in
    ignore (Strategy.env_right_index env);
    ignore (Strategy.env_right_stats env);
    ignore (Strategy.env_histogram env);
    (pair, env)
  in
  let pair, env = make_env ~z1:0. ~z2:0. () in
  (* The partition strategies (and Olken's acceptance rate) are built
     for skew — at z = (0,0) almost every join value is low-frequency,
     so FPS/Index/Hybrid degenerate to scanning nearly the whole join.
     Bench them at z = (2,3), the same cell the figB/figE micro benches
     use, with a 0.5% statistics threshold (the paper's figF sweeps
     this knob): at this scale the default 5% keeps only two values,
     leaving a multi-million-tuple lo-side join; at 0.5% the histogram
     captures the heavy values and the lo side is the designed light
     tail. *)
  let _, env_skew = make_env ~histogram_fraction:0.005 ~z1:2. ~z2:3. () in
  let r = max 1 (n1 / 100) in
  let strategy_bench tag strategy d =
    let e, ztag = if tag = "stream" then (env, "z00") else (env_skew, "z23") in
    Test.make
      ~name:(Printf.sprintf "parallel/%s-%s-d%d" tag ztag d)
      (Staged.stage (fun () -> ignore (Rsj_parallel.run e strategy ~r ~domains:d)))
  in
  (* The R2 index build every index-reading strategy pays once. *)
  let index_bench =
    Test.make ~name:"parallel/index-build"
      (Staged.stage (fun () ->
           ignore (Rsj_index.Hash_index.build pair.inner ~key:Zipf_tables.col2)))
  in
  (* Skew-rebalance comparison: R2 is Zipf z=2 and R1 is sorted so its
     heavy join keys (largest m2) cluster in the leading chunks — the
     per-tuple cost of Naive's scan is proportional to m2(v), so a
     static one-shard-per-domain split strands nearly all the join
     output on domain 0 while the chunk queue lets finished domains
     claim the remaining heavy chunks. Static sharding is reproduced by
     pinning [chunk_size] to ceil(n/domains). *)
  let skew_tests =
    let sn1 = max 1 (n1 / 10) in
    let spair =
      Zipf_tables.make_pair ~seed:43 ~n1:sn1 ~n2:(max 1 (sn1 / 2)) ~z1:0. ~z2:2. ~domain:1_000 ()
    in
    let m2 = Hashtbl.create 1_024 in
    Rsj_relation.Relation.iter spair.inner (fun t ->
        let v = Rsj_relation.Tuple.attr t Zipf_tables.col2 in
        let n = try Hashtbl.find m2 v with Not_found -> 0 in
        Hashtbl.replace m2 v (n + 1));
    let weight t =
      let v = Rsj_relation.Tuple.attr t Zipf_tables.col2 in
      try Hashtbl.find m2 v with Not_found -> 0
    in
    let rows = Rsj_relation.Relation.to_array spair.outer in
    Array.sort (fun a b -> compare (weight b) (weight a)) rows;
    let sorted =
      Rsj_relation.Relation.of_tuples ~name:"outer-heavy-first"
        (Rsj_relation.Relation.schema spair.outer)
        (Array.to_list rows)
    in
    let senv =
      Strategy.make_env ~seed:42 ~left:sorted ~right:spair.inner ~left_key:Zipf_tables.col2
        ~right_key:Zipf_tables.col2 ()
    in
    let sr = max 1 (sn1 / 100) in
    let domains = 4 in
    let static_chunk = (sn1 + domains - 1) / domains in
    [
      Test.make ~name:"parallel/skew-naive-static-d4"
        (Staged.stage (fun () ->
             ignore
               (Rsj_parallel.run ~chunk_size:static_chunk senv Strategy.Naive ~r:sr ~domains)));
      Test.make ~name:"parallel/skew-naive-chunkq-d4"
        (Staged.stage (fun () -> ignore (Rsj_parallel.run senv Strategy.Naive ~r:sr ~domains)));
    ]
  in
  List.concat
    [
      List.concat_map
        (fun (tag, strategy) -> List.map (strategy_bench tag strategy) [ 1; 2; 4 ])
        [
          ("stream", Strategy.Stream);
          ("olken", Strategy.Olken);
          ("fps", Strategy.Frequency_partition);
          ("index", Strategy.Index_sample);
          ("hybrid", Strategy.Hybrid_count);
        ];
      [ index_bench ];
      skew_tests;
    ]

(* --json: machine-readable strategy × domains wall-times, written to
   BENCH_parallel.json so the perf trajectory is tracked across PRs.
   Scaled for CI (RSJ_PAR_N1 default 100,000 here, vs 1,000,000 for the
   interactive parallel/* benches); RSJ_REPS medians out scheduler
   noise. The pool counters land in the same file — the spawn economy
   is the headline number on a single-core container where wall-clock
   speedups cannot materialise. *)
let run_json () =
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
    | None -> default
  in
  let n1 = getenv_int "RSJ_PAR_N1" 100_000 in
  let n2 = max 1 (n1 / 4) in
  let reps = Rsj_obs.Config.reps ~default:3 () in
  let make_env ?histogram_fraction ~z1 ~z2 () =
    let pair = Zipf_tables.make_pair ~seed:42 ~n1 ~n2 ~z1 ~z2 ~domain:1_000 () in
    let env =
      Strategy.make_env ~seed:42 ?histogram_fraction ~left:pair.outer ~right:pair.inner
        ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
    in
    ignore (Strategy.env_right_index env);
    ignore (Strategy.env_right_stats env);
    ignore (Strategy.env_histogram env);
    env
  in
  let env_uniform = make_env ~z1:0. ~z2:0. () in
  let env_skew = make_env ~histogram_fraction:0.005 ~z1:2. ~z2:3. () in
  let r = max 1 (n1 / 100) in
  (* Same cell assignment as the parallel/* bechamel benches: the
     partition strategies (and Olken's acceptance loop) are built for
     skew; the scan strategies run the uniform cell. *)
  let cell_of = function
    | Strategy.Olken | Strategy.Frequency_partition | Strategy.Index_sample
    | Strategy.Hybrid_count ->
        (env_skew, "z23")
    | Strategy.Naive | Strategy.Stream | Strategy.Group | Strategy.Count_sample ->
        (env_uniform, "z00")
  in
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* One untimed request per cell before its timed reps, so a cell
     does not read the caches and heap the previous cell left behind. *)
  let timed_median request =
    ignore (request ());
    median (Array.init reps (fun _ -> (request ()).Strategy.elapsed_seconds))
  in
  let time_wr env strategy d =
    timed_median (fun () -> Rsj_parallel.run env strategy ~r ~domains:d)
  in
  let time_wor env strategy d =
    timed_median (fun () -> Rsj_parallel.run_wor env strategy ~r ~domains:d)
  in
  let domain_counts = [ 1; 2; 4 ] in
  (* Untraced pass first: these medians are the perf-trajectory numbers
     (telemetry off is the default, so the only instrumentation cost
     here is one branch per hook). *)
  let timings =
    List.map
      (fun strategy ->
        let env, ztag = cell_of strategy in
        ( strategy,
          ztag,
          List.map
            (fun d ->
              let wr = time_wr env strategy d in
              (* WoR over the full eight-strategy × width grid at bench
                 scale would dominate the run; one WoR series (Stream,
                 the batch-conversion path) plus Naive (the direct
                 chunked Vitter path) tracks both pooled WoR
                 mechanisms. *)
              let wor =
                match strategy with
                | Strategy.Naive | Strategy.Stream -> Some (time_wor env strategy d)
                | _ -> None
              in
              (d, wr, wor))
            domain_counts ))
      Strategy.all
  in
  let rows =
    List.concat_map
      (fun (strategy, ztag, per_d) ->
        List.concat_map
          (fun (d, wr, wor) ->
            let row semantics seconds =
              Printf.sprintf
                {|    {"strategy": %S, "skew": %S, "semantics": %S, "domains": %d, "seconds": %.6f}|}
                (Strategy.name strategy) ztag semantics d seconds
            in
            row "WR" wr :: (match wor with Some s -> [ row "WoR" s ] | None -> []))
          per_d)
      timings
  in
  (* Traced pass: the same WR grid at d = 4 with telemetry on. The
     strategy/chunk histograms observe only while enabled, so the
     quantiles below summarize exactly this pass, and the ratio against
     the untraced medians is the measured cost of tracing itself
     (EXPERIMENTS.md V10). *)
  let module Obs = Rsj_obs in
  Obs.set_enabled true;
  Obs.Trace.clear ();
  let traced =
    List.map
      (fun strategy ->
        let env, _ = cell_of strategy in
        (strategy, time_wr env strategy 4))
      Strategy.all
  in
  Obs.set_enabled false;
  let trace_events = List.length (Obs.Trace.events ()) in
  Obs.Trace.clear ();
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v in
  let strategy_hist strategy =
    Obs.Registry.histogram
      ~labels:[ ("strategy", Strategy.name strategy); ("domains", "4") ]
      "rsj_strategy_run_seconds"
  in
  let telemetry_rows =
    List.map
      (fun (strategy, traced_s) ->
        let untraced_s =
          match List.find_opt (fun (s, _, _) -> s = strategy) timings with
          | Some (_, _, per_d) ->
              List.find_map (fun (d, wr, _) -> if d = 4 then Some wr else None) per_d
          | None -> None
        in
        let h = strategy_hist strategy in
        Printf.sprintf
          {|    {"strategy": %S, "untraced_median_s": %s, "traced_median_s": %s, "trace_overhead_ratio": %s, "p50_s": %s, "p99_s": %s}|}
          (Strategy.name strategy)
          (match untraced_s with Some s -> num s | None -> "null")
          (num traced_s)
          (match untraced_s with
          | Some u when u > 0. -> num (traced_s /. u)
          | _ -> "null")
          (num (Obs.Registry.quantile h 0.5))
          (num (Obs.Registry.quantile h 0.99)))
      traced
  in
  let chunk_h = Obs.Registry.histogram "rsj_chunk_service_seconds" in
  let c = Domain_pool.counters () in
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    {|{
  "workload": {"n1": %d, "n2": %d, "domain": 1000, "seed": 42, "r": %d, "reps": %d},
  "results": [
%s
  ],
  "telemetry": {
    "trace_events": %d,
    "per_strategy_d4": [
%s
    ],
    "chunk_service": {"count": %d, "p50_s": %s, "p99_s": %s}
  },
  "pool": {"worker_spawns": %d, "parallel_jobs": %d, "unpooled_spawn_equivalent": %d}
}
|}
    n1 n2 r reps
    (String.concat ",\n" rows)
    trace_events
    (String.concat ",\n" telemetry_rows)
    (Obs.Registry.observed_count chunk_h)
    (num (Obs.Registry.quantile chunk_h 0.5))
    (num (Obs.Registry.quantile chunk_h 0.99))
    c.Domain_pool.spawned c.Domain_pool.parallel_jobs c.Domain_pool.unpooled_spawn_equivalent;
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json (%d rows; pool: %d spawns for %d parallel jobs)\n%!"
    (List.length rows) c.Domain_pool.spawned c.Domain_pool.parallel_jobs

let run_micro tests =
  let quota =
    match Sys.getenv_opt "RSJ_BENCH_QUOTA" with
    | Some s -> ( match float_of_string_opt s with Some q when q > 0. -> q | _ -> 0.5)
    | None -> 0.5
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  print_endline "";
  print_endline "== Bechamel micro-benchmarks (one Test.make per paper artifact + ablations) ==";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let tbl = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with Some (x :: _) -> x | _ -> nan
          in
          Printf.printf "  %-36s %14.1f ns/run\n%!" name est)
        tbl)
    tests

let () =
  let on name = Sys.getenv_opt name = Some "1" in
  if Array.exists (( = ) "--json") Sys.argv then run_json ()
  else if on "RSJ_ONLY_PARALLEL" then run_micro (parallel_tests ())
  else begin
    if not (on "RSJ_SKIP_PAPER") then Rsj_harness.Experiments.run_all Format.std_formatter;
    if not (on "RSJ_SKIP_MICRO") then run_micro (micro_tests () @ parallel_tests ())
  end
