(* rsj — command-line front end for the join-sampling library.

   Subcommands:
     generate    write a Zipfian table (paper §8.1) to CSV
     sample      sample a join of two CSV tables with a chosen strategy
     query       run a SQL query with an optional SAMPLE clause
     experiment  run one of the paper's figures/tables or everything
     validate    run the analytic validations (alphas, uniformity,
                 negative results)
     verify      statistical conformance sweep against the exact
                 join-distribution oracle
     trace       run one strategy with span tracing on and write a
                 Chrome Trace Event JSON (Perfetto / chrome://tracing)
     metrics     run the strategies with telemetry on and print the
                 counter/histogram registry (Prometheus text or JSON)
     explain     show the strategy requirement table (Table 1)
     config      print every RSJ_* knob in effect *)

open Cmdliner
module Zipf_tables = Rsj_workload.Zipf_tables
module Strategy = Rsj_core.Strategy
module Sampler = Rsj_sql.Sampler
module Experiments = Rsj_harness.Experiments
module Obs = Rsj_obs

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let seed_arg =
  let doc = "PRNG seed (all commands are reproducible from it)." in
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc)

let trace_arg =
  let doc =
    "Record the run as Chrome Trace Event JSON in $(docv), openable in Perfetto \
     (ui.perfetto.dev) or chrome://tracing. Equivalent to running under \
     $(b,RSJ_TRACE)=$(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* The --trace flag and the RSJ_TRACE variable resolve to one
   destination; the flag wins. *)
let trace_dest cli = match cli with Some _ -> cli | None -> Obs.Config.trace ()

let report_trace path =
  let events = List.length (Obs.Trace.events ()) in
  let dropped = Obs.Trace.dropped () in
  Obs.Trace.write_file path;
  Printf.eprintf "# trace: %d events%s -> %s\n" events
    (if dropped > 0 then Printf.sprintf " (+%d dropped by ring overflow)" dropped else "")
    path

let with_tracing dest f =
  match dest with
  | None -> f ()
  | Some path ->
      Obs.set_enabled true;
      Obs.Trace.clear ();
      Fun.protect f ~finally:(fun () -> report_trace path)

(* ------------------------------------------------------------------ *)
(* --domains resolution. Defaults are each command's preference
   clamped to Domain.recommended_domain_count (): oversubscribing
   domains is pure scheduling overhead users should not pay by default
   (on a 1-core box, Naive WoR at d4 measures ~6x slower than d1 —
   BENCH_parallel.json). An explicit --domains is honored as given,
   with a stderr warning when it exceeds the recommendation. *)

let resolve_domains ~preferred explicit =
  let recommended = Rsj_parallel.default_domains () in
  match explicit with
  | Some n ->
      if n > recommended then
        Printf.eprintf
          "# warning: %d domains requested but this machine recommends %d; the extra \
           domains add scheduling overhead without parallel speedup\n"
          n recommended;
      n
  | None -> max 1 (min preferred recommended)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let rows =
    Arg.(value & opt int 10_000 & info [ "rows"; "n" ] ~docv:"N" ~doc:"Number of tuples.")
  in
  let z = Arg.(value & opt float 1. & info [ "z" ] ~docv:"Z" ~doc:"Zipf parameter (0 = uniform).") in
  let domain =
    Arg.(value & opt int 1_000 & info [ "domain" ] ~docv:"D" ~doc:"Distinct join values.")
  in
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.csv" ~doc:"Output path.")
  in
  let run rows z domain seed out =
    if rows <= 0 then `Error (false, "--rows must be positive")
    else if domain <= 0 then `Error (false, "--domain must be positive")
    else if z < 0. then `Error (false, "--z must be non-negative")
    else begin
      let rel =
        Zipf_tables.make ~seed ~name:(Filename.basename out) ~rows ~z ~domain ()
      in
      Rsj_relation.Csv_io.save ~path:out rel;
      Printf.printf "wrote %d rows (z=%g, domain=%d, seed=%#x) to %s\n" rows z domain seed out;
      `Ok ()
    end
  in
  let info =
    Cmd.info "generate" ~doc:"Generate a Zipfian experiment table (paper \xc2\xa78.1) as CSV."
  in
  Cmd.v info Term.(ret (const run $ rows $ z $ domain $ seed_arg $ out))

(* ------------------------------------------------------------------ *)
(* sample                                                              *)

let strategy_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Sampler.strategy_of_name s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Strategy.name s))

(* The one-line stderr note of a picked strategy (`sample`, `query`). *)
let note_picker = function
  | Some (d : Rsj_optimizer.Picker.decision) ->
      Printf.eprintf "# picker: %s (%s)\n" (Strategy.name d.chosen)
        (Rsj_optimizer.Picker.reason_to_string d.reason)
  | None -> ()

let sample_cmd =
  let left =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT.csv" ~doc:"Outer relation R1.")
  in
  let right =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"RIGHT.csv" ~doc:"Inner relation R2.")
  in
  let strategy =
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "strategy"; "s" ] ~docv:"STRATEGY"
          ~doc:
            "Sampling strategy. When omitted the cost-based picker chooses one from the \
             paper's cost formulas (see --explain).")
  in
  let explain =
    Arg.(
      value
      & flag
      & info [ "explain" ]
          ~doc:
            "Print the picker's decision trace (per-strategy costs and feasibility) and a \
             per-query error report (CLT and Hoeffding confidence intervals for \
             SUM/COUNT/AVG over col_rid) on stderr.")
  in
  let r = Arg.(value & opt int 10 & info [ "r" ] ~docv:"R" ~doc:"Sample size (WR semantics).") in
  let wor =
    Arg.(value & flag & info [ "without-replacement" ] ~doc:"Convert to WoR semantics (\xc2\xa73).")
  in
  let show_metrics = Arg.(value & flag & info [ "metrics" ] ~doc:"Print the work counters.") in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~docv:"N"
          ~doc:
            "Execute across N OCaml domains (default: 1, clamped to this machine's \
             recommended domain count). All eight strategies run on \
             the pooled chunk-scheduled runtime, with or without --without-replacement; for \
             a fixed --seed the sample is identical at every N (except Olken at N > 1, \
             whose speculative rounds are timing-dependent).")
  in
  let run left right strategy explain r wor show_metrics domains seed trace =
    let domains = resolve_domains ~preferred:1 domains in
    if r < 0 then `Error (false, "--r must be non-negative")
    else if domains < 1 then `Error (false, "--domains must be at least 1")
    else begin
      try
        with_tracing (trace_dest trace) @@ fun () ->
        let l = Rsj_relation.Csv_io.load ~path:left Zipf_tables.schema in
        let rt = Rsj_relation.Csv_io.load ~path:right Zipf_tables.schema in
        let request =
          Sampler.prepare ~wor ~seed [| l; rt |]
            ~join_keys:[| (Zipf_tables.col2, Zipf_tables.col2) |]
            ~size:(Rsj_sql.Ast.Abs r) strategy
        in
        let drawn = Sampler.draw ~domains request in
        let sample = Sampler.tuples drawn in
        let decision = Sampler.decision request in
        (match decision with
        | Some d when explain -> prerr_string (Rsj_optimizer.Picker.to_string d)
        | _ -> note_picker decision);
        Array.iter (fun t -> print_endline (Rsj_relation.Tuple.to_string t)) sample;
        let join_size = int_of_float (Sampler.join_size request) in
        Printf.eprintf "# %s: %d tuples in %.4fs (join size %d)\n" (Sampler.name request)
          (Array.length sample) drawn.elapsed_seconds join_size;
        if explain && Array.length sample > 0 then
          prerr_string
            (Rsj_optimizer.Error_report.to_string
               (Rsj_optimizer.Error_report.make ~sample:sample ~n:join_size
                  ~col:Zipf_tables.col_rid ()));
        if show_metrics then Format.eprintf "%a@." Rsj_exec.Metrics.pp drawn.metrics;
        `Ok ()
      with
      | Failure msg -> `Error (false, msg)
      | Invalid_argument msg -> `Error (false, msg)
      | Strategy.Wor_shortfall _ as e -> `Error (false, Printexc.to_string e)
    end
  in
  let info =
    Cmd.info "sample"
      ~doc:
        "Sample the equi-join of two CSV tables (on col2) without computing the full join."
  in
  Cmd.v
    info
    Term.(
      ret
        (const run $ left $ right $ strategy $ explain $ r $ wor $ show_metrics $ domains
       $ seed_arg $ trace_arg))

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let which =
    let doc = "Which experiment: table1, A, B, C, D, E, F, or all." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"WHICH" ~doc)
  in
  let run which =
    let cfg = Experiments.config_from_env () in
    let ppf = Format.std_formatter in
    match String.lowercase_ascii which with
    | "all" ->
        Experiments.run_all ppf;
        `Ok ()
    | "table1" ->
        Rsj_harness.Report.render ppf (Experiments.table1 ());
        `Ok ()
    | "a" -> Experiments.render_figure ppf (Experiments.figure_a cfg); `Ok ()
    | "b" -> Experiments.render_figure ppf (Experiments.figure_b cfg); `Ok ()
    | "c" -> Experiments.render_figure ppf (Experiments.figure_c cfg); `Ok ()
    | "d" -> Experiments.render_figure ppf (Experiments.figure_d cfg); `Ok ()
    | "e" -> Experiments.render_figure ppf (Experiments.figure_e cfg); `Ok ()
    | "f" -> Experiments.render_figure ppf (Experiments.figure_f cfg); `Ok ()
    | other -> `Error (false, Printf.sprintf "unknown experiment %S" other)
  in
  let info =
    Cmd.info "experiment"
      ~doc:
        "Re-run the paper's evaluation (Table 1, Figures A-F). Scale via RSJ_N1/RSJ_N2/\
         RSJ_DOMAIN/RSJ_SCALE/RSJ_REPS."
  in
  Cmd.v info Term.(ret (const run $ which))

(* ------------------------------------------------------------------ *)
(* validate                                                            *)

let validate_cmd =
  let run () =
    let cfg = Experiments.config_from_env () in
    let ppf = Format.std_formatter in
    Rsj_harness.Report.render ppf (Experiments.validate_alphas cfg);
    Rsj_harness.Report.render ppf (Experiments.validate_uniformity ());
    Rsj_harness.Report.render ppf (Experiments.negative_demo ());
    `Ok ()
  in
  let info =
    Cmd.info "validate"
      ~doc:
        "Validate the analytic results: Theorems 5/7/8/9 cost formulas, chi-square \
         uniformity of every strategy, and the \xc2\xa77 negative results."
  in
  Cmd.v info Term.(ret (const run $ const ()))

(* ------------------------------------------------------------------ *)
(* query                                                               *)

let query_cmd =
  let tables =
    let doc = "Bind a table: NAME=PATH.csv (repeatable). Tables use the \xc2\xa78.1 schema." in
    Arg.(value & opt_all string [] & info [ "table"; "t" ] ~docv:"NAME=PATH" ~doc)
  in
  let sql =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query text.")
  in
  let explain = Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan, not the rows.") in
  let run tables sql explain seed =
    try
      let catalog =
        List.map
          (fun binding ->
            match String.index_opt binding '=' with
            | Some i ->
                let name = String.sub binding 0 i in
                let path = String.sub binding (i + 1) (String.length binding - i - 1) in
                (name, Rsj_relation.Csv_io.load ~name ~path Zipf_tables.schema)
            | None -> failwith (Printf.sprintf "bad --table binding %S (want NAME=PATH)" binding))
          tables
      in
      match Rsj_sql.Engine.run ~seed catalog sql with
      | Error msg -> `Error (false, msg)
      | Ok result ->
          if explain || result.Rsj_sql.Engine.explained then begin
            Format.printf "%a@." Rsj_exec.Plan.explain result.Rsj_sql.Engine.plan;
            match result.Rsj_sql.Engine.decision with
            | Some d -> print_string (Rsj_optimizer.Picker.to_string d)
            | None -> ()
          end
          else begin
            note_picker result.Rsj_sql.Engine.decision;
            let schema = result.Rsj_sql.Engine.schema in
            let header =
              Array.to_list (Rsj_relation.Schema.columns schema)
              |> List.map (fun (c : Rsj_relation.Schema.column) -> c.name)
              |> String.concat " | "
            in
            print_endline header;
            List.iter
              (fun row -> print_endline (Rsj_relation.Tuple.to_string row))
              result.Rsj_sql.Engine.rows;
            Printf.eprintf "# %d rows, work=%d\n"
              (List.length result.Rsj_sql.Engine.rows)
              (Rsj_exec.Metrics.total_work result.Rsj_sql.Engine.metrics)
          end;
          `Ok ()
    with Failure msg -> `Error (false, msg)
  in
  let info =
    Cmd.info "query"
      ~doc:
        "Run a SQL query with optional SAMPLE clause, e.g. 'select * from t1, t2 where \
         t1.col2 = t2.col2 sample 10 using stream'."
  in
  Cmd.v info Term.(ret (const run $ tables $ sql $ explain $ seed_arg))

(* ------------------------------------------------------------------ *)
(* verify                                                              *)

let verify_cmd =
  let trials =
    Arg.(
      value
      & opt (some int) None
      & info [ "trials" ] ~docv:"T"
          ~doc:
            "Samples pooled per conformance cell (default 60, or \\$(b,RSJ_CONF_TRIALS)). \
             Higher = more statistical power, longer runtime.")
  in
  let r = Arg.(value & opt int 16 & info [ "r" ] ~docv:"R" ~doc:"Sample size per trial.") in
  let alpha =
    Arg.(
      value
      & opt float 0.01
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Family-wise significance; each cell is tested at alpha / #comparisons.")
  in
  let retries =
    Arg.(
      value
      & opt int 2
      & info [ "retries" ] ~docv:"K"
          ~doc:"Extra independently seeded attempts before a cell is declared failed.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the report as CSV instead of a table.") in
  let run trials r alpha retries csv seed trace =
    if r <= 0 then `Error (false, "--r must be positive")
    else if alpha <= 0. || alpha >= 1. then `Error (false, "--alpha must be in (0,1)")
    else if retries < 0 then `Error (false, "--retries must be non-negative")
    else begin
      try
        with_tracing (trace_dest trace) @@ fun () ->
        let base = Rsj_verify.Conformance.default_config () in
        let config =
          {
            base with
            Rsj_verify.Conformance.trials = Option.value trials ~default:base.trials;
            r;
            significance = alpha;
            retries;
            seed;
          }
        in
        if Option.value trials ~default:1 <= 0 then failwith "--trials must be positive";
        let summary = Rsj_verify.Conformance.run ~config () in
        let report = Rsj_verify.Conformance.report summary in
        if csv then print_string (Rsj_harness.Report.to_csv report)
        else Rsj_harness.Report.print report;
        if summary.Rsj_verify.Conformance.all_pass then begin
          Printf.printf "conformance: all %d comparisons pass; negative control rejected\n"
            summary.Rsj_verify.Conformance.comparisons;
          (* The pool's spawn accounting now lives in the metric
             registry — export it from there (the one counter-export
             path) rather than re-formatting by hand. *)
          print_string
            (Obs.Registry.to_prometheus
               ~only:(fun name -> String.starts_with ~prefix:"rsj_pool_" name)
               ());
          `Ok ()
        end
        else `Error (false, "conformance failures (see report)")
      with
      | Failure msg -> `Error (false, msg)
      | Invalid_argument msg -> `Error (false, msg)
    end
  in
  let info =
    Cmd.info "verify"
      ~doc:
        "Statistical conformance sweep: every strategy \xc3\x97 semantics (WR/WoR/CF) \xc3\x97 \
         skew \xc3\x97 domains {1,2,4} against the exact join-distribution oracle, plus \
         aggregate-estimate KS tests per strategy \xc3\x97 estimator \xc3\x97 domain count and a \
         biased negative control."
  in
  Cmd.v info Term.(ret (const run $ trials $ r $ alpha $ retries $ csv $ seed_arg $ trace_arg))

(* ------------------------------------------------------------------ *)
(* trace / metrics                                                     *)

(* Synthetic §8.1 workload shared by the two telemetry commands. *)
let workload_args =
  let n1 = Arg.(value & opt int 2_000 & info [ "n1" ] ~docv:"N1" ~doc:"Outer table rows.") in
  let n2 = Arg.(value & opt int 8_000 & info [ "n2" ] ~docv:"N2" ~doc:"Inner table rows.") in
  let z1 = Arg.(value & opt float 1. & info [ "z1" ] ~docv:"Z1" ~doc:"Outer Zipf parameter.") in
  let z2 = Arg.(value & opt float 1. & info [ "z2" ] ~docv:"Z2" ~doc:"Inner Zipf parameter.") in
  let domain =
    Arg.(value & opt int 400 & info [ "domain" ] ~docv:"D" ~doc:"Distinct join values.")
  in
  Term.(const (fun n1 n2 z1 z2 domain -> (n1, n2, z1, z2, domain)) $ n1 $ n2 $ z1 $ z2 $ domain)

let make_workload ~seed (n1, n2, z1, z2, domain) =
  if n1 <= 0 || n2 <= 0 then failwith "--n1/--n2 must be positive"
  else if domain <= 0 then failwith "--domain must be positive"
  else if z1 < 0. || z2 < 0. then failwith "--z1/--z2 must be non-negative"
  else Zipf_tables.make_pair ~seed ~n1 ~n2 ~z1 ~z2 ~domain ()

let run_strategy ~seed ~wor ~r ~domains pair strategy =
  Sampler.draw ~domains
    (Sampler.prepare ~wor ~seed
       [| pair.Zipf_tables.outer; pair.Zipf_tables.inner |]
       ~join_keys:[| (Zipf_tables.col2, Zipf_tables.col2) |]
       ~size:(Rsj_sql.Ast.Abs r) (Some strategy))

let trace_cmd =
  let strategy =
    Arg.(
      required
      & pos 0 (some strategy_conv) None
      & info [] ~docv:"STRATEGY" ~doc:"Strategy to trace.")
  in
  let out =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the Chrome Trace Event JSON.")
  in
  let r = Arg.(value & opt int 256 & info [ "r" ] ~docv:"R" ~doc:"Sample size.") in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "OCaml domains to run across (default: 4, clamped to this machine's \
             recommended domain count).")
  in
  let wor =
    Arg.(value & flag & info [ "without-replacement" ] ~doc:"Trace the WoR path instead of WR.")
  in
  let run strategy out r domains wor workload seed =
    let domains = resolve_domains ~preferred:4 domains in
    if r < 0 then `Error (false, "--r must be non-negative")
    else if domains < 1 then `Error (false, "--domains must be at least 1")
    else begin
      try
        let pair = make_workload ~seed workload in
        Obs.set_enabled true;
        Obs.Trace.clear ();
        let result = run_strategy ~seed ~wor ~r ~domains pair strategy in
        report_trace out;
        Printf.printf
          "%s: traced %d-tuple %s sample over %d domains (join size %d, %.4fs) -> %s\n"
          (Strategy.name strategy)
          (Sampler.size result)
          (if wor then "WoR" else "WR")
          domains (Zipf_tables.join_size pair) result.Sampler.elapsed_seconds out;
        `Ok ()
      with
      | Failure msg -> `Error (false, msg)
      | Invalid_argument msg -> `Error (false, msg)
      | Strategy.Wor_shortfall _ as e -> `Error (false, Printexc.to_string e)
    end
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Run one strategy on a synthetic \xc2\xa78.1 workload with span tracing on and write \
         the Chrome Trace Event JSON: pool spawn/park/job spans, per-chunk scheduler spans \
         tagged by domain (skew evidence), and the strategy span. Open the file in Perfetto \
         (ui.perfetto.dev) or chrome://tracing."
  in
  Cmd.v info Term.(ret (const run $ strategy $ out $ r $ domains $ wor $ workload_args $ seed_arg))

let metrics_cmd =
  let r = Arg.(value & opt int 64 & info [ "r" ] ~docv:"R" ~doc:"Sample size per strategy.") in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "OCaml domains to run across (default: 2, clamped to this machine's \
             recommended domain count).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON (with p50/p99) instead of Prometheus text.")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:
            "Polling mode: re-render the snapshot in place every SECONDS (local registry, or \
             a live daemon's with $(b,--socket)). Ctrl-C to stop.")
  in
  let watch_count =
    Arg.(
      value
      & opt int 0
      & info [ "watch-count" ] ~docv:"N"
          ~doc:"With $(b,--watch): stop after N refreshes (0 = run until interrupted).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"ADDR"
          ~doc:
            "Scrape a running rsj serve daemon's registry over its socket instead of running \
             the local workload.")
  in
  let run r domains json watch watch_count socket workload seed =
    let domains = resolve_domains ~preferred:2 domains in
    if r < 0 then `Error (false, "--r must be non-negative")
    else if domains < 1 then `Error (false, "--domains must be at least 1")
    else begin
      try
        let snapshot =
          match socket with
          | Some s -> (
              let addr =
                match Rsj_server.Server.addr_of_string s with
                | Ok a -> a
                | Error e -> failwith e
              in
              fun () ->
                let client = Rsj_server.Client.connect addr in
                Fun.protect ~finally:(fun () -> Rsj_server.Client.close client) @@ fun () ->
                match Rsj_server.Client.metrics client with
                | Ok text -> text
                | Error e -> failwith ("metrics rpc failed: " ^ e))
          | None ->
              let pair = make_workload ~seed workload in
              Obs.set_enabled true;
              fun () ->
                List.iter
                  (fun strategy ->
                    ignore (run_strategy ~seed ~wor:false ~r ~domains pair strategy))
                  Strategy.all;
                if json then Obs.Json.to_string (Obs.Registry.to_json ()) ^ "\n"
                else Obs.Registry.to_prometheus ()
        in
        (match watch with
        | None -> print_string (snapshot ())
        | Some period ->
            let period = Float.max 0.05 period in
            let k = ref 0 in
            let continue () = watch_count <= 0 || !k < watch_count in
            while continue () do
              incr k;
              (* Clear screen + home, like watch(1). *)
              print_string "\027[2J\027[H";
              print_string (snapshot ());
              Printf.printf "# refresh %d, every %gs\n%!" !k period;
              if continue () then Unix.sleepf period
            done);
        `Ok ()
      with
      | Failure msg -> `Error (false, msg)
      | Invalid_argument msg -> `Error (false, msg)
    end
  in
  let info =
    Cmd.info "metrics"
      ~doc:
        "Run all eight strategies on a synthetic \xc2\xa78.1 workload with telemetry on and \
         print the metric registry: pool/chunk/strategy counters and histograms, in \
         Prometheus text exposition format (or JSON with $(b,--json)). With $(b,--watch), \
         re-render in place; with $(b,--socket), scrape a live daemon instead."
  in
  Cmd.v info
    Term.(ret (const run $ r $ domains $ json $ watch $ watch_count $ socket $ workload_args $ seed_arg))

(* ------------------------------------------------------------------ *)
(* logs                                                                *)

let logs_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"NDJSON request log written by the daemon (RSJ_LOG).")
  in
  let tail =
    Arg.(
      value
      & opt (some int) None
      & info [ "tail" ] ~docv:"N" ~doc:"Only pretty-print the last N log lines.")
  in
  let pretty line =
    match Obs.Json.parse line with
    | Error _ -> Printf.printf "?? %s\n" line
    | Ok j ->
        let str k = match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None in
        let num k =
          match Obs.Json.member k j with
          | Some (Obs.Json.Float f) -> Some f
          | Some (Obs.Json.Int i) -> Some (float_of_int i)
          | _ -> None
        in
        let field name render = function Some v -> " " ^ name ^ "=" ^ render v | None -> "" in
        Printf.printf "%s %s %s%s%s%s%s%s%s%s%s\n"
          (match num "ts" with Some t -> Printf.sprintf "%.3f" t | None -> "-")
          (Option.value (str "req") ~default:"-")
          (Option.value (str "op") ~default:"-")
          (field "strategy" Fun.id (str "strategy"))
          (field "picker" Fun.id (str "picker_reason"))
          (field "cache" Fun.id (str "cache"))
          (field "deadline" Fun.id (str "deadline"))
          (field "status" Fun.id (str "status"))
          (field "queued_ms" (fun v -> Printf.sprintf "%.2f" (v *. 1000.)) (num "queued_s"))
          (field "latency_ms" (fun v -> Printf.sprintf "%.2f" (v *. 1000.)) (num "latency_s"))
          (field "alloc_words" (fun v -> Printf.sprintf "%.0f" v) (num "alloc_words"));
        match str "sql" with Some q -> Printf.printf "      sql: %s\n" q | None -> ()
  in
  let run file tail =
    if not (Sys.file_exists file) then `Error (false, Printf.sprintf "no such file %S" file)
    else begin
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           let l = input_line ic in
           if String.trim l <> "" then lines := l :: !lines
         done
       with End_of_file -> close_in ic);
      let all = List.rev !lines in
      let shown =
        match tail with
        | Some n when n >= 0 ->
            let len = List.length all in
            List.filteri (fun i _ -> i >= len - n) all
        | _ -> all
      in
      List.iter pretty shown;
      `Ok ()
    end
  in
  let info =
    Cmd.info "logs"
      ~doc:
        "Pretty-print a structured NDJSON request log written by rsj serve with RSJ_LOG set: \
         one line per request with its id, operation, strategy, picker reason, cache \
         outcome, deadline verdict, latency and allocation."
  in
  Cmd.v info Term.(ret (const run $ file $ tail))

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run () =
    Rsj_harness.Report.print (Experiments.table1 ());
    `Ok ()
  in
  let info = Cmd.info "explain" ~doc:"Show which information each strategy requires (Table 1)." in
  Cmd.v info Term.(ret (const run $ const ()))

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)

module Server = Rsj_server.Server
module Client = Rsj_server.Client

let socket_arg =
  let doc = "Server address: a Unix socket path, or tcp:HOST:PORT." in
  Arg.(value & opt string "/tmp/rsj.sock" & info [ "socket" ] ~docv:"ADDR" ~doc)

let serve_cmd =
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-budget" ] ~docv:"N"
          ~doc:
            "Admission cap on queued sample tuples; requests beyond it fail with a typed \
             'overloaded' error instead of queueing (default 1000000).")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Write the final Prometheus metrics snapshot here on shutdown (default stderr).")
  in
  let run socket budget snapshot =
    match Server.addr_of_string socket with
    | Error e -> `Error (false, e)
    | Ok addr -> (
        try
          let base = Server.default_config addr in
          let config =
            {
              base with
              Server.max_queued_work = Option.value budget ~default:base.Server.max_queued_work;
              snapshot_path = snapshot;
            }
          in
          Printf.eprintf "# rsj serve: listening on %s (queue budget %d)\n%!"
            (Server.addr_to_string addr) config.Server.max_queued_work;
          Server.run config;
          Printf.eprintf "# rsj serve: drained and stopped\n%!";
          `Ok ()
        with Failure msg -> `Error (false, msg))
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the sampling daemon: clients register relations once, then sample/query over a \
         newline-delimited JSON socket protocol while auxiliary structures stay warm in the \
         per-relation cache. GET /metrics on the same socket serves Prometheus text. \
         SIGINT/SIGTERM drain gracefully."
  in
  Cmd.v info Term.(ret (const run $ socket_arg $ budget $ snapshot))

let client_cmd =
  let args =
    let doc =
      "Operation and its arguments: ping | register NAME PATH.csv | sample LEFT RIGHT | \
       query SQL | metrics | stats | invalidate NAME | shutdown."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"OP" ~doc)
  in
  let r = Arg.(value & opt int 10 & info [ "r" ] ~docv:"R" ~doc:"Sample size (sample op).") in
  let strategy =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy"; "s" ] ~docv:"STRATEGY"
          ~doc:"Strategy for the sample op (default: the server's cost-based picker).")
  in
  let wor =
    Arg.(value & flag & info [ "without-replacement" ] ~doc:"WoR semantics for the sample op.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains for the sample op (default: 1, clamped to this machine's recommended \
             domain count).")
  in
  let on =
    Arg.(value & opt string "col2" & info [ "on" ] ~docv:"COL" ~doc:"Join column (sample op).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Fail rather than start later than this.")
  in
  let print_reply (reply : Client.reply) =
    List.iter
      (fun row -> print_endline (Rsj_relation.Tuple.to_string (Array.of_list row)))
      reply.Client.rows;
    List.iter
      (fun (k, v) ->
        match v with
        | Obs.Json.Str s when k = "prometheus" || k = "plan" -> print_string s
        | v -> Printf.eprintf "# %s: %s\n" k (Obs.Json.to_string v))
      reply.Client.detail
  in
  let run socket args r strategy wor domains on deadline seed =
    let domains = resolve_domains ~preferred:1 domains in
    match Server.addr_of_string socket with
    | Error e -> `Error (false, e)
    | Ok addr -> (
        try
          let client = Client.connect addr in
          Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
          let detail f = Result.map (fun x -> { Client.rows = []; detail = f x }) in
          let wire_error =
            Result.map_error (fun (code, msg) ->
                Rsj_server.Protocol.error_code_to_string code ^ ": " ^ msg)
          in
          let reply =
            match args with
            | [ "ping" ] ->
                detail
                  (fun () -> [ ("pong", Obs.Json.Bool true) ])
                  (if Client.ping client then Ok () else Error "no pong")
            | [ "register"; name; path ] ->
                detail (fun n -> [ ("rows", Obs.Json.Int n) ]) (Client.register_path client ~name ~path)
            | [ "sample"; left; right ] ->
                wire_error
                  (Client.sample client ~left ~right ~r ?strategy ~seed ~wor ~domains ~on
                     ?deadline_ms:deadline ())
            | [ "query"; sql ] -> wire_error (Client.query client ~sql ~seed ?deadline_ms:deadline ())
            | [ "metrics" ] ->
                detail (fun text -> [ ("prometheus", Obs.Json.Str text) ]) (Client.metrics client)
            | [ "stats" ] -> detail Fun.id (Client.cache_stats client)
            | [ "invalidate"; name ] -> detail (fun () -> []) (Client.invalidate client ~name)
            | [ "shutdown" ] ->
                detail (fun () -> [ ("stopping", Obs.Json.Bool true) ]) (Client.shutdown client)
            | op :: _ -> Error (Printf.sprintf "unknown or malformed op %S (see --help)" op)
            | [] -> Error "missing op"
          in
          match reply with
          | Ok reply ->
              print_reply reply;
              `Ok ()
          | Error msg -> `Error (false, msg)
        with Failure msg -> `Error (false, msg))
  in
  let info =
    Cmd.info "client"
      ~doc:
        "Talk to a running rsj serve daemon: register tables, draw warm samples, run SQL, \
         read metrics, or shut it down."
  in
  Cmd.v
    info
    Term.(
      ret (const run $ socket_arg $ args $ r $ strategy $ wor $ domains $ on $ deadline $ seed_arg))

(* ------------------------------------------------------------------ *)
(* config                                                              *)

let config_cmd =
  let run () =
    List.iter
      (fun (e : Obs.Config.entry) ->
        Printf.printf "%-26s %-10s %-7s %s\n" e.name e.value
          (Obs.Config.source_to_string e.source) e.doc)
      (Obs.Config.effective ());
    `Ok ()
  in
  let info =
    Cmd.info "config"
      ~doc:"Print every RSJ_* knob: name, effective value, source (env or default) and doc."
  in
  Cmd.v info Term.(ret (const run $ const ()))

let main =
  let doc = "Random sampling over joins (Chaudhuri, Motwani, Narasayya; SIGMOD 1999)" in
  let info = Cmd.info "rsj" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      generate_cmd;
      sample_cmd;
      query_cmd;
      experiment_cmd;
      validate_cmd;
      verify_cmd;
      trace_cmd;
      metrics_cmd;
      logs_cmd;
      explain_cmd;
      serve_cmd;
      client_cmd;
      config_cmd;
    ]

(* A malformed knob stops every command, the daemon included, before it
   runs with a configuration other than the one the operator set. *)
let () =
  (try Obs.Config.check ()
   with Invalid_argument msg ->
     prerr_endline ("rsj: " ^ msg);
     exit 2);
  exit (Cmd.eval main)
