(* The telemetry subsystem: JSON emit/parse round-trips, registry
   semantics (counters, gauges, log-bucketed histograms, exporters),
   trace well-formedness (the emitted Chrome Trace document parses
   back), span nesting under the pooled runtime at widths 1/2/4, and
   the disabled hot path staying allocation-free.

   A second suite, obs_artifacts, validates telemetry files produced by
   the real CLI (rsj trace / rsj metrics / RSJ_TRACE=… rsj verify):
   the @obs and @conformance aliases point RSJ_TRACE_CHECK /
   RSJ_METRICS_CHECK at the artifacts; with the variables unset the
   suite passes vacuously. *)

module Obs = Rsj_obs
module Strategy = Rsj_core.Strategy
module Zipf_tables = Rsj_workload.Zipf_tables

let json = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Obs.Json.to_string j)) ( = )

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("s", Str "a\"b\\c\nd");
          ("i", Int (-42));
          ("f", Float 1.5);
          ("whole", Float 3.);
          ("null", Null);
          ("flags", List [ Bool true; Bool false ]);
          ("nested", Obj [ ("empty", List []); ("eobj", Obj []) ]);
        ])
  in
  (match Obs.Json.parse (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.check json "round-trip" v v'
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (* NaN has no JSON representation: it must come back as null, not
     break the document. *)
  (match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Float nan)) with
  | Ok Obs.Json.Null -> ()
  | Ok other -> Alcotest.failf "NaN serialized to %s" (Obs.Json.to_string other)
  | Error e -> Alcotest.failf "NaN document unparseable: %s" e);
  (* Integral floats keep their .0 so they stay floats on re-parse. *)
  (match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Float 2.)) with
  | Ok (Obs.Json.Float 2.) -> ()
  | Ok other -> Alcotest.failf "Float 2. re-parsed as %s" (Obs.Json.to_string other)
  | Error e -> Alcotest.failf "float re-parse failed: %s" e)

let test_json_parser () =
  (match Obs.Json.parse {| {"u":"Aé","n":[1,2.5,-3e2]} |} with
  | Ok v ->
      Alcotest.(check (option json)) "unicode escapes decode to UTF-8"
        (Some (Obs.Json.Str "A\xc3\xa9"))
        (Obs.Json.member "u" v);
      Alcotest.(check (option json)) "int vs float discrimination"
        (Some Obs.Json.(List [ Int 1; Float 2.5; Float (-300.) ]))
        (Obs.Json.member "n" v)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok v -> Alcotest.failf "accepted %S as %s" bad (Obs.Json.to_string v)
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}"; "" ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_bucket_boundaries () =
  let b = Obs.Registry.default_buckets in
  Alcotest.(check int) "30 bounds" 30 (Array.length b);
  Alcotest.(check (float 1e-12)) "first bound is 1us" 1e-6 b.(0);
  Alcotest.(check (float 1e-9)) "bounds double" (2. *. b.(10)) b.(11);
  (* v <= bound picks the bucket; past the last bound is the +Inf slot. *)
  Alcotest.(check int) "0 in first bucket" 0 (Obs.Registry.bucket_index 0.);
  Alcotest.(check int) "exact bound stays in its bucket" 0 (Obs.Registry.bucket_index 1e-6);
  Alcotest.(check int) "just above a bound moves up" 1 (Obs.Registry.bucket_index 1.0000001e-6);
  Alcotest.(check int) "+Inf slot" 30 (Obs.Registry.bucket_index 1e9);
  Alcotest.(check int) "custom ladder" 2
    (Obs.Registry.bucket_index ~buckets:[| 1.; 2.; 4. |] 3.)

let test_counters_and_gauges () =
  let c = Obs.Registry.counter ~help:"t" "rsjtest_counter_total" in
  Alcotest.(check int) "fresh counter" 0 (Obs.Registry.value c);
  Obs.Registry.incr c;
  Obs.Registry.add c 41;
  Alcotest.(check int) "incr+add" 42 (Obs.Registry.value c);
  (* The same (name, labels) must return the same cell. *)
  let c' = Obs.Registry.counter "rsjtest_counter_total" in
  Obs.Registry.incr c';
  Alcotest.(check int) "memoized handle" 43 (Obs.Registry.value c);
  (* Distinct labels are distinct series. *)
  let cl = Obs.Registry.counter ~labels:[ ("k", "v") ] "rsjtest_counter_total" in
  Alcotest.(check int) "labeled series independent" 0 (Obs.Registry.value cl);
  let g = Obs.Registry.gauge "rsjtest_gauge" in
  Obs.Registry.set_gauge g 2.5;
  Alcotest.(check (float 0.)) "gauge" 2.5 (Obs.Registry.gauge_value g);
  (* Re-registering a name as a different type is a bug, loudly. *)
  Alcotest.(check bool) "type mismatch raises" true
    (try
       ignore (Obs.Registry.gauge "rsjtest_counter_total");
       false
     with Invalid_argument _ -> true)

let test_histogram_quantiles () =
  let h = Obs.Registry.histogram ~buckets:[| 1.; 2.; 4.; 8. |] "rsjtest_hist_seconds" in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (Obs.Registry.quantile h 0.5));
  List.iter (Obs.Registry.observe h) [ 0.5; 1.5; 1.6; 3.; 100. ];
  Alcotest.(check int) "count" 5 (Obs.Registry.observed_count h);
  Alcotest.(check (float 1e-9)) "sum" 106.6 (Obs.Registry.observed_sum h);
  (* Cumulative counts by bucket: 1,3,4,4,(+Inf)5. p50 target 2.5 lands
     in the le=2 bucket; the +Inf overflow reports the top finite
     bound. *)
  Alcotest.(check (float 0.)) "p50" 2. (Obs.Registry.quantile h 0.5);
  Alcotest.(check (float 0.)) "p99 hits overflow = top bound" 8. (Obs.Registry.quantile h 0.99)

let test_prometheus_export () =
  let c = Obs.Registry.counter ~help:"help text" ~labels:[ ("q", {|a"b\c|}) ] "rsjtest_promc_total" in
  Obs.Registry.add c 7;
  let h = Obs.Registry.histogram ~buckets:[| 0.1; 1. |] "rsjtest_promh_seconds" in
  Obs.Registry.observe h 0.05;
  Obs.Registry.observe h 50.;
  let text = Obs.Registry.to_prometheus ~only:(String.starts_with ~prefix:"rsjtest_prom") () in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  (* Structural well-formedness: every non-comment line is
     "name{labels} value" with a numeric value. *)
  List.iter
    (fun line ->
      if not (String.starts_with ~prefix:"#" line) then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value separator in %S" line
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            if float_of_string_opt v = None then Alcotest.failf "non-numeric value in %S" line
      end)
    lines;
  let has l = List.mem l lines in
  Alcotest.(check bool) "HELP line" true (has "# HELP rsjtest_promc_total help text");
  Alcotest.(check bool) "TYPE line" true (has "# TYPE rsjtest_promc_total counter");
  Alcotest.(check bool) "label escaping" true
    (has {|rsjtest_promc_total{q="a\"b\\c"} 7|});
  Alcotest.(check bool) "cumulative buckets" true
    (has "rsjtest_promh_seconds_bucket{le=\"0.1\"} 1"
    && has "rsjtest_promh_seconds_bucket{le=\"1\"} 1"
    && has "rsjtest_promh_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram count" true (has "rsjtest_promh_seconds_count 2");
  (* The filter must actually filter. *)
  Alcotest.(check bool) "only-filter excludes" true
    (not
       (String.length (Obs.Registry.to_prometheus ~only:(fun _ -> false) ()) > 0))

let test_registry_json_export () =
  let c = Obs.Registry.counter "rsjtest_jsonc_total" in
  Obs.Registry.add c 3;
  let doc = Obs.Registry.to_json ~only:(String.starts_with ~prefix:"rsjtest_jsonc") () in
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Error e -> Alcotest.failf "registry JSON unparseable: %s" e
  | Ok v -> (
      match Obs.Json.member "rsjtest_jsonc_total" v with
      | None -> Alcotest.fail "family missing from JSON export"
      | Some fam ->
          Alcotest.(check (option json)) "type tag" (Some (Obs.Json.Str "counter"))
            (Obs.Json.member "type" fam))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let with_tracing f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect f ~finally:(fun () ->
      Obs.Trace.clear ();
      Obs.set_enabled was)

let test_trace_json_wellformed () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span ~cat:"test" ~args:[ ("k", Obs.Json.Int 1) ] "outer" (fun () ->
      Obs.Trace.with_span ~cat:"test" "inner" (fun () -> ());
      Obs.Trace.instant ~cat:"test" "mark");
  match Obs.Json.parse (Obs.Json.to_string (Obs.Trace.to_json ())) with
  | Error e -> Alcotest.failf "trace document unparseable: %s" e
  | Ok doc -> (
      match Obs.Json.member "traceEvents" doc with
      | Some (Obs.Json.List evs) ->
          let name e =
            match Obs.Json.member "name" e with Some (Obs.Json.Str s) -> s | _ -> "?"
          in
          let names = List.map name evs in
          List.iter
            (fun n ->
              Alcotest.(check bool) (n ^ " present") true (List.mem n names))
            [ "thread_name"; "outer"; "inner"; "mark" ];
          (* Every event carries the Chrome-required fields. *)
          List.iter
            (fun e ->
              List.iter
                (fun k ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s has %s" (name e) k)
                    true
                    (Obs.Json.member k e <> None))
                (if name e = "thread_name" then [ "ph"; "pid"; "tid" ]
                 else [ "ph"; "pid"; "tid"; "ts" ]))
            evs
      | _ -> Alcotest.fail "traceEvents missing or not a list")

let small_env ?(seed = 0xAB) () =
  let pair = Zipf_tables.make_pair ~seed ~n1:40 ~n2:80 ~z1:1. ~z2:2. ~domain:6 () in
  Strategy.make_env ~seed ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
    ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()

let span_end (e : Obs.Trace.event) = e.Obs.Trace.ts +. e.Obs.Trace.dur

let test_span_nesting_under_pool () =
  List.iter
    (fun domains ->
      with_tracing @@ fun () ->
      (* Naive still scans R1 through the chunk scheduler; Stream's S1
         is root-table draws with no scheduler span. *)
      ignore (Rsj_parallel.run (small_env ()) Strategy.Naive ~r:8 ~domains);
      let events = Obs.Trace.events () in
      let by_name n = List.filter (fun e -> e.Obs.Trace.name = n) events in
      let sched =
        match by_name "chunk_scheduler.run" with
        | [ s ] -> s
        | l -> Alcotest.failf "expected 1 scheduler span at d=%d, got %d" domains (List.length l)
      in
      let strat =
        match by_name "strategy.Naive-Sample" with
        | [ s ] -> s
        | l -> Alcotest.failf "expected 1 strategy span at d=%d, got %d" domains (List.length l)
      in
      Alcotest.(check bool)
        (Printf.sprintf "scheduler nested in strategy span (d=%d)" domains)
        true
        (sched.Obs.Trace.ts >= strat.Obs.Trace.ts && span_end sched <= span_end strat);
      (* Per-chunk spans are multi-domain only: a single-domain scan
         runs its chunks inline and records just the scheduler span, so
         the serving path (domains=1) never pays per-chunk clock reads. *)
      let chunks = by_name "chunk" in
      Alcotest.(check bool)
        (Printf.sprintf "chunk spans %s (d=%d)"
           (if domains > 1 then "recorded" else "absent")
           domains)
        (domains > 1) (chunks <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk span inside scheduler span (d=%d)" domains)
            true
            (c.Obs.Trace.ts >= sched.Obs.Trace.ts && span_end c <= span_end sched))
        chunks;
      if domains > 1 then begin
        let jobs = by_name "pool.job" in
        Alcotest.(check bool)
          (Printf.sprintf "pool.job spans at d=%d" domains)
          true (jobs <> []);
        Alcotest.(check bool)
          (Printf.sprintf "some job ran on a worker domain (d=%d)" domains)
          true
          (List.exists (fun e -> e.Obs.Trace.tid <> 0) jobs)
      end)
    [ 1; 2; 4 ]

(* A chain draw through the sampler is observed as a two-way run is:
   one strategy.chain-walk span enclosing the walk and a rehydrate
   span, and one rsj_strategy_run_seconds observation. *)
let test_chain_draw_observed () =
  with_tracing @@ fun () ->
  let t name seed =
    Zipf_tables.make ~seed ~name ~rows:60 ~z:1. ~domain:6 ()
  in
  let key = Zipf_tables.col2 in
  let seconds =
    Obs.Registry.histogram ~labels:[ ("strategy", "chain-walk"); ("domains", "1") ]
      "rsj_strategy_run_seconds"
  in
  let observed0 = Obs.Registry.observed_count seconds in
  let prepared =
    Rsj_sql.Sampler.prepare ~seed:9
      [| t "c1" 1; t "c2" 2; t "c3" 3 |]
      ~join_keys:[| (key, key); (key, key) |]
      ~size:(Rsj_sql.Ast.Abs 16) None
  in
  let drawn = Rsj_sql.Sampler.draw ~domains:1 prepared in
  Alcotest.(check int) "16 tuples" 16 (Array.length drawn.Rsj_sql.Sampler.sample);
  Alcotest.(check int) "one run-seconds observation" 1
    (Obs.Registry.observed_count seconds - observed0);
  let events = Obs.Trace.events () in
  let one n =
    match List.filter (fun e -> e.Obs.Trace.name = n) events with
    | [ e ] -> e
    | l -> Alcotest.failf "expected one %s span, got %d" n (List.length l)
  in
  let run = one "strategy.chain-walk" in
  List.iter
    (fun n ->
      let e = one n in
      Alcotest.(check bool) (n ^ " inside the run span") true
        (e.Obs.Trace.ts >= run.Obs.Trace.ts && span_end e <= span_end run))
    [ "chain_sample.sample_rows"; "rehydrate" ]

(* A WoR request is one strategy run whatever the number of WR batches
   its conversion draws: one strategy span, one wall-time observation,
   and the batches on their own counter. *)
let test_wor_request_observed_once () =
  with_tracing @@ fun () ->
  let pair = Zipf_tables.make_pair ~seed:0x0B5 ~n1:2000 ~n2:2000 ~z1:1. ~z2:1. ~domain:100 () in
  let env =
    Strategy.make_env ~seed:0x0B5 ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
      ~left_key:Zipf_tables.col2 ~right_key:Zipf_tables.col2 ()
  in
  let seconds =
    Obs.Registry.histogram
      ~labels:[ ("strategy", Strategy.name Strategy.Stream); ("domains", "1") ]
      "rsj_strategy_run_seconds"
  in
  let batches =
    Obs.Registry.counter ~labels:[ ("strategy", Strategy.name Strategy.Stream) ]
      "rsj_wor_batches_total"
  in
  let observed0 = Obs.Registry.observed_count seconds in
  let batches0 = Obs.Registry.value batches in
  let result = Rsj_parallel.run_wor env Strategy.Stream ~r:20000 ~domains:1 in
  Alcotest.(check int) "min r |J| tuples"
    (min 20000 (Zipf_tables.join_size pair))
    (Array.length result.Strategy.sample);
  Alcotest.(check int) "one run-seconds observation" 1
    (Obs.Registry.observed_count seconds - observed0);
  let spans =
    List.filter (fun e -> e.Obs.Trace.name = "strategy.Stream-Sample") (Obs.Trace.events ())
  in
  Alcotest.(check int) "one strategy span" 1 (List.length spans);
  let drawn = Obs.Registry.value batches - batches0 in
  Alcotest.(check bool) (Printf.sprintf "several WR batches (%d)" drawn) true (drawn > 1)

let test_disabled_path_allocation_free () =
  Obs.set_enabled false;
  let body = fun () -> () in
  (* Warm both code paths (DLS, closures) before measuring. *)
  for _ = 1 to 10 do
    Obs.Trace.with_span "warm" body
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Trace.with_span "off" body
  done;
  let delta = Gc.minor_words () -. before in
  (* One measurement's float boxing is noise; 10k traced spans would
     allocate tens of thousands of words. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled spans allocate nothing (%.0f words for 10k calls)" delta)
    true (delta < 256.)

(* ------------------------------------------------------------------ *)
(* CLI artifacts (obs_artifacts): driven by the @obs / @conformance    *)
(* aliases via RSJ_TRACE_CHECK / RSJ_METRICS_CHECK                     *)

let env_paths var =
  match Sys.getenv_opt var with
  | None | Some "" -> []
  | Some s -> String.split_on_char ':' s |> List.filter (fun p -> p <> "")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_artifacts () =
  match env_paths "RSJ_TRACE_CHECK" with
  | [] -> print_endline "RSJ_TRACE_CHECK unset; nothing to validate"
  | paths ->
      List.iter
        (fun path ->
          match Obs.Json.parse (read_file path) with
          | Error e -> Alcotest.failf "%s: invalid JSON: %s" path e
          | Ok doc -> (
              match Obs.Json.member "traceEvents" doc with
              | Some (Obs.Json.List evs) ->
                  Alcotest.(check bool)
                    (path ^ ": has events") true
                    (List.length evs > 0);
                  let cats =
                    List.filter_map
                      (fun e ->
                        match Obs.Json.member "cat" e with
                        | Some (Obs.Json.Str c) -> Some c
                        | _ -> None)
                      evs
                  in
                  (* The acceptance bar: pool, chunk-scheduler and
                     strategy spans all present in a CLI-produced
                     trace. *)
                  List.iter
                    (fun cat ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: %s spans present" path cat)
                        true (List.mem cat cats))
                    [ "pool"; "chunk"; "strategy" ]
              | _ -> Alcotest.failf "%s: traceEvents missing" path))
        paths

let test_metrics_artifacts () =
  match env_paths "RSJ_METRICS_CHECK" with
  | [] -> print_endline "RSJ_METRICS_CHECK unset; nothing to validate"
  | paths ->
      List.iter
        (fun path ->
          let text = read_file path in
          let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
          Alcotest.(check bool) (path ^ ": non-empty") true (lines <> []);
          List.iter
            (fun line ->
              if not (String.starts_with ~prefix:"#" line) then
                match String.rindex_opt line ' ' with
                | None -> Alcotest.failf "%s: malformed line %S" path line
                | Some i ->
                    let v = String.sub line (i + 1) (String.length line - i - 1) in
                    if float_of_string_opt v = None then
                      Alcotest.failf "%s: non-numeric value in %S" path line)
            lines;
          List.iter
            (fun family ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s exported" path family)
                true
                (List.exists (String.starts_with ~prefix:family) lines))
            [ "rsj_pool_workers_spawned_total"; "rsj_chunk_claims_total"; "rsj_strategy_run_seconds" ])
        paths

(* ---------- Config: one parse rule for every knob ---------- *)

let with_env name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name "") f

let raises_naming name value f =
  with_env name value @@ fun () ->
  match f () with
  | _ -> Alcotest.failf "%s=%S was accepted" name value
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names the knob: " ^ msg) true
        (String.starts_with ~prefix:name msg)

let test_config_parse_rule () =
  let module C = Obs.Config in
  let check_opt what expected got = Alcotest.(check (option int)) what expected got in
  with_env "RSJ_CACHE_BYTES" "" (fun () -> check_opt "empty = default" None (C.cache_bytes ()));
  with_env "RSJ_CACHE_BYTES" " 4096 " (fun () -> check_opt "trim" (Some 4096) (C.cache_bytes ()));
  List.iter (fun v -> raises_naming "RSJ_CACHE_BYTES" v C.cache_bytes) [ "64M"; "0"; "-1" ];
  raises_naming "RSJ_SLOW_MS" "soon" C.slow_ms;
  raises_naming "RSJ_SERVE_DRAIN_LINGER_MS" "-5" C.drain_linger_ms;
  raises_naming "RSJ_REPS" "many" (fun () -> C.reps ());
  raises_naming "RSJ_QUALITY_ALPHA" "1.5" C.quality_alpha;
  raises_naming "RSJ_SERVE_BIAS" "yes" C.serve_bias;
  raises_naming "RSJ_N1" "1e3" C.check;
  with_env "RSJ_REPS" "" (fun () -> Alcotest.(check int) "caller default" 3 (C.reps ~default:3 ()));
  with_env "RSJ_REPS" "5" (fun () -> Alcotest.(check int) "env beats it" 5 (C.reps ~default:3 ()));
  with_env "RSJ_TRACE" "1" (fun () ->
      Alcotest.(check (option string)) "RSJ_TRACE=1" (Some "trace.json") (C.trace ()))

let suite =
  [
    Alcotest.test_case "config: one parse rule for every knob" `Quick test_config_parse_rule;
    Alcotest.test_case "json to_string/parse round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser accepts/rejects" `Quick test_json_parser;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram observe and quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "prometheus export well-formed" `Quick test_prometheus_export;
    Alcotest.test_case "registry JSON export parses" `Quick test_registry_json_export;
    Alcotest.test_case "trace document parses back" `Quick test_trace_json_wellformed;
    Alcotest.test_case "span nesting under the pool (d=1,2,4)" `Quick test_span_nesting_under_pool;
    Alcotest.test_case "a WoR request is one observed run" `Quick test_wor_request_observed_once;
    Alcotest.test_case "a chain draw is one observed run" `Quick test_chain_draw_observed;
    Alcotest.test_case "disabled path allocates nothing" `Quick test_disabled_path_allocation_free;
  ]

let artifacts_suite =
  [
    Alcotest.test_case "CLI trace artifacts parse" `Quick test_trace_artifacts;
    Alcotest.test_case "CLI metrics artifacts parse" `Quick test_metrics_artifacts;
  ]
