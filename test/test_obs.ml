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

(* The parser recurses per nesting level, so depth is bounded: 64
   levels parse, 65 and a 100k-deep line are refused by name instead
   of overflowing the stack. *)
let test_json_depth_bound () =
  let nested d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "64 levels parse" true (Result.is_ok (Obs.Json.parse (nested 64)));
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok _ -> Alcotest.fail "accepted a line nested past the bound"
      | Error msg ->
          Alcotest.(check bool) ("names the bound: " ^ msg) true
            (String.starts_with ~prefix:"nesting deeper than 64" msg))
    [ nested 65; String.make 100_000 '['; String.concat "" (List.init 100_000 (fun _ -> {|{"a":|})) ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_bucket_boundaries () =
  (* One observation per fresh histogram: its p50 is the upper bound of
     the bucket the value landed in (the top finite bound for the +Inf
     slot). v <= bound picks the bucket. *)
  let fresh = ref 0 in
  let bucket_of ?buckets v =
    incr fresh;
    let h = Obs.Registry.histogram ?buckets (Printf.sprintf "rsjtest_bucket%d_seconds" !fresh) in
    Obs.Registry.observe h v;
    Obs.Registry.quantile h 0.5
  in
  Alcotest.(check (float 1e-12)) "0 in first bucket, bound 1us" 1e-6 (bucket_of 0.);
  Alcotest.(check (float 1e-12)) "exact bound stays in its bucket" 1e-6 (bucket_of 1e-6);
  Alcotest.(check (float 1e-12)) "just above a bound moves up; bounds double" 2e-6
    (bucket_of 1.0000001e-6);
  Alcotest.(check (float 1e-9)) "+Inf slot past the 30th bound" (1e-6 *. (2. ** 29.))
    (bucket_of 1e9);
  Alcotest.(check (float 0.)) "custom ladder" 4. (bucket_of ~buckets:[| 1.; 2.; 4. |] 3.)

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
  Alcotest.(check bool) "gauge" true
    (List.mem "rsjtest_gauge 2.5"
       (String.split_on_char '\n' (Obs.Registry.to_prometheus ~only:(( = ) "rsjtest_gauge") ())));
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
  Alcotest.(check bool) "sum" true
    (List.mem "rsjtest_hist_seconds_sum 106.6"
       (String.split_on_char '\n'
          (Obs.Registry.to_prometheus ~only:(( = ) "rsjtest_hist_seconds") ())));
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
  let path = Filename.temp_file "rsj_trace" ".json" in
  Obs.Trace.write_file path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Obs.Json.parse text with
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
   one strategy.chain-walk span enclosing the walk, and one
   rsj_strategy_run_seconds observation. The draw hands back positions,
   so no rehydrate span runs. *)
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
  Alcotest.(check int) "16 tuples" 16 (Rsj_sql.Sampler.size drawn);
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
    [ "chain_sample.sample_rows" ];
  Alcotest.(check int) "no tuple built" 0
    (List.length (List.filter (fun e -> e.Obs.Trace.name = "rehydrate") events))

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

(* A pre-measured span keeps the caller's timestamps, and every record
   made under a request context carries its id unless the caller named
   one itself. *)
let test_trace_complete_and_context () =
  with_tracing @@ fun () ->
  Obs.Trace.complete ~cat:"test" "bare" ~ts:5. ~dur:3.;
  Obs.Context.with_request "r-7" (fun () ->
      Obs.Trace.complete ~cat:"test" "tagged" ~ts:10. ~dur:0.5;
      Obs.Trace.complete ~args:[ ("req", Obs.Json.Str "own") ] "named" ~ts:11. ~dur:0.;
      Obs.Trace.instant "mark");
  let find n =
    match List.filter (fun e -> e.Obs.Trace.name = n) (Obs.Trace.events ()) with
    | [ e ] -> e
    | l -> Alcotest.failf "expected one %s event, got %d" n (List.length l)
  in
  let req e = List.assoc_opt "req" e.Obs.Trace.args in
  let bare = find "bare" in
  Alcotest.(check char) "complete span" 'X' bare.Obs.Trace.ph;
  Alcotest.(check (float 0.)) "caller's ts" 5. bare.Obs.Trace.ts;
  Alcotest.(check (float 0.)) "caller's dur" 3. bare.Obs.Trace.dur;
  Alcotest.(check (option json)) "no context, no req" None (req bare);
  Alcotest.(check (option json)) "context id" (Some (Obs.Json.Str "r-7")) (req (find "tagged"));
  Alcotest.(check (option json)) "an explicit req wins" (Some (Obs.Json.Str "own"))
    (req (find "named"));
  Alcotest.(check (option json)) "instants are tagged too" (Some (Obs.Json.Str "r-7"))
    (req (find "mark"))

(* Rings hold 2^15 events each; past that a record is counted as
   dropped, not stored, and clear resets the count. *)
let test_trace_ring_overflow () =
  with_tracing @@ fun () ->
  let cap = 1 lsl 15 in
  for i = 1 to cap + 5 do
    Obs.Trace.complete "fill" ~ts:(float_of_int i) ~dur:0.
  done;
  Alcotest.(check int) "ring keeps its capacity" cap (List.length (Obs.Trace.events ()));
  Alcotest.(check int) "the rest are dropped" 5 (Obs.Trace.dropped ());
  Obs.Trace.clear ();
  Alcotest.(check int) "clear resets the drop count" 0 (Obs.Trace.dropped ());
  Alcotest.(check int) "clear empties the rings" 0 (List.length (Obs.Trace.events ()))

let test_context_nesting () =
  Alcotest.(check (option string)) "none outside" None (Obs.Context.current ());
  Obs.Context.with_request "outer" (fun () ->
      Alcotest.(check (option string)) "outer" (Some "outer") (Obs.Context.current ());
      Obs.Context.with_request "inner" (fun () ->
          Alcotest.(check (option string)) "inner" (Some "inner") (Obs.Context.current ()));
      Alcotest.(check (option string)) "outer restored" (Some "outer") (Obs.Context.current ());
      (try Obs.Context.with_request "raising" (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check (option string)) "restored after a raise" (Some "outer")
        (Obs.Context.current ()));
  Alcotest.(check (option string)) "none again" None (Obs.Context.current ());
  Alcotest.(check int) "returns f's value" 7 (Obs.Context.with_request "x" (fun () -> 7))

let test_clock_now_us () =
  let a = Obs.Clock.now_us () in
  let s0 = Obs.Clock.now_s () in
  Unix.sleepf 0.02;
  let b = Obs.Clock.now_us () in
  let s1 = Obs.Clock.now_s () in
  Alcotest.(check bool) "counts from process start" true (a >= 0.);
  Alcotest.(check bool) "advances across a sleep" true (b -. a >= 20_000.);
  Alcotest.(check (float 2_000.)) "same rate as now_s" ((s1 -. s0) *. 1e6) (b -. a)

(* A metrics record folds into the registry as counters named by the
   prefix, adding on every absorb. *)
let test_registry_absorb_assoc () =
  let m = Rsj_exec.Metrics.create () in
  m.Rsj_exec.Metrics.tuples_scanned <- 12;
  m.Rsj_exec.Metrics.index_probes <- 3;
  let assoc = Rsj_exec.Metrics.to_assoc m in
  Obs.Registry.absorb_assoc ~prefix:"rsjtest_absorb_" assoc;
  Obs.Registry.absorb_assoc ~prefix:"rsjtest_absorb_" assoc;
  let value k = Obs.Registry.value (Obs.Registry.counter ("rsjtest_absorb_" ^ k)) in
  Alcotest.(check int) "tuples_scanned added twice" 24 (value "tuples_scanned");
  Alcotest.(check int) "index_probes added twice" 6 (value "index_probes");
  List.iter
    (fun (k, v) -> Alcotest.(check int) (k ^ " absorbed") (2 * v) (value k))
    assoc;
  Obs.Registry.absorb_assoc [ ("rsjtest_absorb_plain_total", 4) ];
  Alcotest.(check int) "no prefix" 4 (value "plain_total")

let test_reqlog_lines () =
  let path = Filename.temp_file "rsj_reqlog" ".ndjson" in
  Fun.protect ~finally:(fun () -> Obs.Reqlog.set_path None; Sys.remove path) @@ fun () ->
  Obs.Reqlog.set_path (Some path);
  Alcotest.(check bool) "armed" true (Obs.Reqlog.enabled ());
  Obs.Reqlog.write [ ("op", Obs.Json.Str "ping") ];
  Obs.Context.with_request "q-1" (fun () ->
      Obs.Reqlog.write [ ("op", Obs.Json.Str "sample") ];
      Obs.Reqlog.write [ ("op", Obs.Json.Str "query"); ("req", Obs.Json.Str "mine") ]);
  Obs.Reqlog.close ();
  Alcotest.(check bool) "close disarms" false (Obs.Reqlog.enabled ());
  Obs.Reqlog.write [ ("op", Obs.Json.Str "unlogged") ];
  let text = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  let parsed =
    List.map
      (fun l -> match Obs.Json.parse l with Ok v -> v | Error e -> Alcotest.failf "%S: %s" l e)
      lines
  in
  Alcotest.(check int) "one line per armed write" 3 (List.length parsed);
  let field k v = Obs.Json.member k v in
  List.iter
    (fun v ->
      match field "ts" v with
      | Some (Obs.Json.Float _) -> ()
      | _ -> Alcotest.fail "every line carries a float ts")
    parsed;
  Alcotest.(check (list (option json))) "request ids"
    [ None; Some (Obs.Json.Str "q-1"); Some (Obs.Json.Str "mine") ]
    (List.map (field "req") parsed);
  Obs.Reqlog.set_path (Some "");
  Alcotest.(check bool) "an empty path disarms" false (Obs.Reqlog.enabled ())

(* A megaword array goes straight to the major heap, so the meter sees
   it at once; minor-heap words may be accounted lazily, so the check
   leaves room for them. *)
let test_runtime_allocated_words () =
  let before = Obs.Runtime.allocated_words () in
  let keep = Sys.opaque_identity (Array.make 1_000_000 0) in
  let after = Obs.Runtime.allocated_words () in
  Alcotest.(check bool)
    (Printf.sprintf "a 1M-word array is metered (%.0f words)" (after -. before))
    true
    (after -. before >= 900_000.);
  Alcotest.(check bool) "the meter never runs backwards" true (Obs.Runtime.allocated_words () >= after);
  ignore (Sys.opaque_identity keep)

let test_runtime_publish_gc () =
  Gc.minor ();
  Obs.Runtime.publish_gc ();
  let text = Obs.Registry.to_prometheus ~only:(String.starts_with ~prefix:"rsj_gc_") () in
  let value name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " published") true (value n <> None))
    [ "rsj_gc_minor_words"; "rsj_gc_major_words"; "rsj_gc_promoted_words";
      "rsj_gc_minor_collections"; "rsj_gc_major_collections"; "rsj_gc_compactions";
      "rsj_gc_heap_words" ];
  Alcotest.(check bool) "a minor collection is counted" true
    (Option.get (value "rsj_gc_minor_collections") >= 1.);
  Alcotest.(check bool) "the heap has words" true (Option.get (value "rsj_gc_heap_words") > 0.)

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

(* RSJ_LOG is a path or off; the millisecond knobs take any
   non-negative number. *)
let test_config_log_and_ms_knobs () =
  let module C = Obs.Config in
  with_env "RSJ_LOG" "" (fun () -> Alcotest.(check (option string)) "unset = off" None (C.log_path ()));
  with_env "RSJ_LOG" " req.ndjson " (fun () ->
      Alcotest.(check (option string)) "a trimmed path" (Some "req.ndjson") (C.log_path ()));
  with_env "RSJ_SLOW_MS" "" (fun () -> Alcotest.(check (float 0.)) "slow default" 100. (C.slow_ms ()));
  with_env "RSJ_SLOW_MS" "2.5" (fun () -> Alcotest.(check (float 0.)) "fractional ms" 2.5 (C.slow_ms ()));
  with_env "RSJ_SERVE_DRAIN_LINGER_MS" "" (fun () ->
      Alcotest.(check (float 0.)) "linger default" 0. (C.drain_linger_ms ()));
  with_env "RSJ_SERVE_DRAIN_LINGER_MS" "0" (fun () ->
      Alcotest.(check (float 0.)) "zero is allowed" 0. (C.drain_linger_ms ()));
  raises_naming "RSJ_SLOW_MS" "inf" C.slow_ms;
  raises_naming "RSJ_SLOW_MS" "-0.5" C.slow_ms

(* effective lists every knob once, in declaration order, and says
   whether its value came from the environment. *)
let test_config_effective_sources () =
  let module C = Obs.Config in
  let entry name = List.find (fun e -> e.C.name = name) (C.effective ()) in
  with_env "RSJ_QUALITY_WINDOW" "" (fun () ->
      let e = entry "RSJ_QUALITY_WINDOW" in
      Alcotest.(check string) "default value" "512" e.C.value;
      Alcotest.(check string) "default source" "default" (C.source_to_string e.C.source));
  with_env "RSJ_QUALITY_WINDOW" "64" (fun () ->
      let e = entry "RSJ_QUALITY_WINDOW" in
      Alcotest.(check string) "env value" "64" e.C.value;
      Alcotest.(check string) "env source" "env" (C.source_to_string e.C.source);
      Alcotest.(check bool) "documented" true (e.C.doc <> ""));
  with_env "RSJ_CACHE_BYTES" "" (fun () ->
      Alcotest.(check string) "an unbounded cache reads as such" "unbounded"
        (entry "RSJ_CACHE_BYTES").C.value);
  let names = List.map (fun e -> e.C.name) (C.effective ()) in
  Alcotest.(check int) "each knob once" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "declaration order starts with the telemetry knobs"
    [ "RSJ_TRACE"; "RSJ_LOG" ] (List.filteri (fun i _ -> i < 2) names);
  with_env "RSJ_QUALITY_WINDOW" "wide" (fun () ->
      match C.effective () with
      | _ -> Alcotest.fail "a malformed knob was listed"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "names the knob" true
            (String.starts_with ~prefix:"RSJ_QUALITY_WINDOW" msg))

(* write appends to_string's rendering to a caller's buffer, so one
   buffer can carry several documents back to back. *)
let test_json_write () =
  let docs =
    Obs.Json.[ Obj [ ("a", List [ Int 1; Float 0.5; Null ]) ]; Str "tab\there"; Bool false ]
  in
  let buf = Buffer.create 8 in
  Buffer.add_string buf ">>";
  List.iter (Obs.Json.write buf) docs;
  Alcotest.(check string) "concatenated renderings"
    (">>" ^ String.concat "" (List.map Obs.Json.to_string docs))
    (Buffer.contents buf)

let suite =
  [
    Alcotest.test_case "config: one parse rule for every knob" `Quick test_config_parse_rule;
    Alcotest.test_case "json to_string/parse round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser accepts/rejects" `Quick test_json_parser;
    Alcotest.test_case "json nesting depth is bounded" `Quick test_json_depth_bound;
    Alcotest.test_case "json write appends to a buffer" `Quick test_json_write;
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
    Alcotest.test_case "trace: complete keeps timestamps; context tags records" `Quick
      test_trace_complete_and_context;
    Alcotest.test_case "trace: ring overflow counts drops" `Quick test_trace_ring_overflow;
    Alcotest.test_case "context: with_request nests and restores" `Quick test_context_nesting;
    Alcotest.test_case "clock: now_us counts microseconds" `Quick test_clock_now_us;
    Alcotest.test_case "registry: absorb_assoc adds a metrics record" `Quick test_registry_absorb_assoc;
    Alcotest.test_case "reqlog: one JSON line per write, tagged" `Quick test_reqlog_lines;
    Alcotest.test_case "runtime: allocated_words meters allocation" `Quick test_runtime_allocated_words;
    Alcotest.test_case "runtime: publish_gc refreshes the gc gauges" `Quick test_runtime_publish_gc;
    Alcotest.test_case "config: RSJ_LOG and the millisecond knobs" `Quick test_config_log_and_ms_knobs;
    Alcotest.test_case "config: effective reports each knob's source" `Quick
      test_config_effective_sources;
  ]

let artifacts_suite =
  [
    Alcotest.test_case "CLI trace artifacts parse" `Quick test_trace_artifacts;
    Alcotest.test_case "CLI metrics artifacts parse" `Quick test_metrics_artifacts;
  ]
