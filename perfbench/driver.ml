(* The repository benchmark (manifest: BENCHMARK.json at the root).

     driver.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the root of a built checkout. One run:
   1. generates the workload's tables from --seed into
      perfbench/work/NAME/ as CSVs;
   2. sets up a real `rsj serve` daemon (_build/default/bin/rsj.exe)
      three times: exec, register the CSVs, answer each request kind
      once; setup_s is the median of the three;
   3. drives the third daemon for --seconds with a closed loop of
      min(2, nproc) connections, one request in flight on each, every
      request at domains = 1 (with --trace 1: one connection, whose
      p50 the per-layer numbers are held against);
   4. replays the same request sequence in-process and checks every
      served answer against it byte for byte; with --trace 1 the
      replay records spans, writes them to
      perfbench/work/NAME/trace.json and reports per-layer metrics.

   The last line of stdout is one JSON object: correct, attempted,
   failed and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1). The lines before it print the same metrics by name with
   their units, and record the seed, nproc, the OCaml version and the
   daemon's knob set. *)

open Perfbench_helpers

let daemon_exe = "_build/default/bin/rsj.exe"
let work_root = "perfbench/work"
let setup_reps = 3

(* An untraced run compares one timed op in [replay_every] (plus every
   write and set-up answer) byte for byte with the replay; every op
   still gets the row-count and join-predicate checks. Re-running all
   of them would double the run for little more assurance: every op of
   a traced run is compared. *)
let replay_every = 4

(* Per-layer metrics: name, unit, the end-to-end metric it should
   move, and on which workload. The replay fills in the values;
   metrics of a layer a workload never calls read 0. *)
let per_layer =
  let builds =
    List.map
      (fun k -> ("cache.build_ms." ^ k, "ms", "setup_s; latency_p99_ms, throughput_rps", "all; churn"))
      [ "int_view"; "frequency"; "hash_index"; "histogram" ]
  in
  let executes =
    List.map
      (fun k -> ("execute_ms." ^ k, "ms", "latency_p50_ms; throughput_rps", "stream_scan; strategy_mix"))
      [ "naive"; "olken"; "stream"; "group"; "fps"; "index"; "count"; "hybrid"; "naive_wor"; "stream_wor" ]
  in
  let core =
    List.map
      (fun (k, u) -> ("core." ^ k, u, "explains execute_ms.*", "stream_scan, strategy_mix, churn"))
      [
        ("tuples_scanned", "count"); ("join_output_tuples", "count"); ("index_probes", "count");
        ("rejected_samples", "count"); ("useful_ratio", "ratio");
      ]
  in
  [ ("relation.csv_load_ms", "ms", "setup_s; throughput_rps, latency_p99_ms", "all; churn") ]
  @ builds
  @ [
      ("cache.build_ms.chain", "ms", "setup_s", "chain_walk");
      ("cache.env_us", "us", "latency_p50_ms", "stream_scan");
      ("cache.hit_ratio", "ratio", "latency_p99_ms", "churn");
      ("cache.bytes", "bytes", "daemon_rss_mb", "all");
      ("optimizer.pick_us", "us", "latency_p50_ms", "churn, strategy_mix");
    ]
  @ executes @ core
  @ [
      ("sql.parse_us", "us", "latency_p50_ms", "chain_walk");
      ("sql.engine_ms", "ms", "latency_p50_ms", "chain_walk");
      ("chain.draw_ms", "ms", "latency_p50_ms", "chain_walk");
      ("chain.materialize_ms", "ms", "latency_p50_ms", "chain_walk");
      ("protocol.decode_request_us", "us", "latency_p50_ms", "chain_walk, strategy_mix");
      ("protocol.encode_ms", "ms", "latency_p50_ms", "chain_walk, strategy_mix");
      ("protocol.response_bytes", "bytes", "latency_p50_ms", "chain_walk, strategy_mix");
      ("client.decode_ms", "ms", "latency_p50_ms", "chain_walk, strategy_mix");
      ("quality.observe_us", "us", "latency_p50_ms", "all");
      ("gc.minor_words_per_op", "words", "latency_p99_ms", "all");
      ("gc.major_collections", "count", "latency_p99_ms", "all");
      ("serve.single_p50_ms", "ms", "latency_p50_ms", "all");
      ("serve.layer_sum_ms", "ms", "latency_p50_ms", "all");
      ("serve.residual_ms", "ms", "latency_p50_ms", "all");
      ("serve.layer_share", "ratio", "latency_p50_ms", "all");
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let run (w : Workload.t) ~seed ~seconds ~traced =
  if not (Sys.file_exists daemon_exe) then failwith (daemon_exe ^ " is not built");
  let dir = Filename.concat work_root w.name in
  mkdir_p dir;
  let sock = Filename.concat dir "rsj.sock" and log = Filename.concat dir "daemon.log" in
  close_out (open_out log);
  let sizes = Workload.generate w ~seed ~dir in
  let env = Served.make_env w ~dir ~seed ~sizes in
  let setups = ref [] in
  let rec set_up k =
    let pid, admin, s = Served.setup env ~exe:daemon_exe ~sock ~log in
    setups := !setups @ [ s ];
    if k < setup_reps then begin
      Served.stop pid admin;
      set_up (k + 1)
    end
    else (pid, admin)
  in
  let pid, admin = set_up 1 in
  let conns = if traced then 1 else min 2 (Domain.recommended_domain_count ()) in
  let loop = Served.closed_loop env ~sock ~conns ~seconds in
  let alert = Served.quality_alert admin in
  let rss_mb = Served.vm_hwm_mb pid in
  Served.stop pid admin;
  (* Latencies in ms; a failed op misses every latency limit. *)
  let latencies =
    Stats.sorted
      (Array.map
         (fun (r : Served.op_result) ->
           if r.outcome.error = None then r.outcome.latency_s *. 1e3 else infinity)
         loop.results)
  in
  let oc = open_out (Filename.concat dir "ops.tsv") in
  Array.iter
    (fun (r : Served.op_result) ->
      Printf.fprintf oc "%d\t%s\t%.6f\t%.3f\n" r.index r.kind r.finished_s (r.outcome.latency_s *. 1e3))
    loop.results;
  close_out oc;
  let first = List.hd !setups in
  let report =
    Replay.run env ~traced ~every:replay_every ~setup:first ~loop
      ~single_p50_ms:(Stats.median latencies)
      ~trace_path:(Filename.concat dir "trace.json")
      ~quality_alpha:(float_of_string (List.assoc "RSJ_QUALITY_ALPHA" Served.knobs))
  in
  (* Failures: every timed op or set-up answer that errored, timed out,
     failed a check or differs from the replay; plus the quality
     monitor's verdict, and set-ups that disagree with each other. *)
  let failures = Hashtbl.create 16 in
  let fail index why = if not (Hashtbl.mem failures index) then Hashtbl.replace failures index why in
  Array.iter
    (fun (r : Served.op_result) -> Option.iter (fail r.index) r.outcome.error)
    loop.results;
  List.iteri
    (fun rep (s : Served.setup) ->
      List.iteri
        (fun k (kind, (o : Served.outcome)) ->
          let index = -(k + 1) - (1000 * rep) in
          Option.iter (fail index) o.error;
          if o.digest <> (List.assoc kind first.warm).digest then
            fail index "set-up answers differ between daemons")
        s.warm)
    !setups;
  List.iter (fun (index, why) -> fail index why) report.mismatches;
  (match alert with
  | Ok false -> ()
  | Ok true -> fail min_int "the daemon's online quality monitor raised an alert"
  | Error msg -> fail min_int ("stats: " ^ msg));
  let attempted = Array.length loop.results + (setup_reps * List.length w.kinds) in
  let failed = Hashtbl.length failures in
  let ok_ops =
    Array.fold_left
      (fun n (r : Served.op_result) -> if Hashtbl.mem failures r.index then n else n + 1)
      0 loop.results
  in
  let setup_times = List.map (fun (s : Served.setup) -> s.setup_s) !setups in
  let tail = Stats.tail_percentile latencies in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.name seed seconds
    (if traced then 1 else 0);
  Printf.printf "# host nproc=%d ocaml=%s; daemon knobs: %s, every other RSJ_* unset\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) Served.knobs));
  Printf.printf "# tables (domain %d): %s\n" Workload.domain
    (String.concat "; "
       (List.map
          (fun (t : Workload.table) -> Printf.sprintf "%s %d rows z=%g" t.file t.rows t.z)
          (w.tables @ w.spare)));
  Printf.printf "# request kinds: %s\n" (String.concat ", " (List.map fst w.kinds));
  Printf.printf "# closed loop: %d connection(s), %d timed ops in %.3f s; %d attempted, %d failed\n"
    conns (Array.length loop.results) loop.window_s attempted failed;
  Printf.printf "# set-ups (s): %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  Printf.printf "# replay: %d timed ops compared byte for byte with the served answers\n" report.replayed;
  (match tail with
  | Some t ->
      Printf.printf "# highest supported tail: p%g = %.4f ms (%d of %d samples beyond)\n" (100. *. t.q)
        t.value t.beyond (Array.length latencies)
  | None -> ());
  if Array.length latencies < 1000 then
    Printf.printf "# warning: %d timed ops; p99 needs >= 1000 for 10 samples beyond it\n"
      (Array.length latencies);
  Hashtbl.fold (fun index why acc -> (index, why) :: acc) failures []
  |> List.sort compare
  |> List.filteri (fun i _ -> i < 5)
  |> List.iter (fun (index, why) -> Printf.printf "# failed op %d: %s\n" index why);
  let metrics =
    if traced then begin
      Printf.printf "# trace: %s\n" (Filename.concat dir "trace.json");
      List.map
        (fun (name, unit, moves, on) ->
          let v = Option.value ~default:0. (List.assoc_opt name report.layers) in
          Printf.printf "%-28s %16.6f %-6s moves %s on %s\n" name v unit moves on;
          (name, unit, v))
        per_layer
    end
    else begin
      let m =
        [
          ("setup_s", "s", Stats.median (Stats.sorted (Array.of_list setup_times)));
          ("latency_p50_ms", "ms", Stats.median latencies);
          ("latency_p99_ms", "ms", Stats.percentile latencies 0.99);
          ("throughput_rps", "1/s", float_of_int ok_ops /. loop.window_s);
          ("daemon_rss_mb", "MiB", rss_mb);
        ]
      in
      List.iter (fun (name, unit, v) -> Printf.printf "%-16s %14.4f %s\n" name v unit) m;
      m
    end
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads below");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed closed loop");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced replay (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    ("driver.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  (* Whatever happens, no daemon outlives the run, and the run ends
     inside its time limit. *)
  let bail _ =
    Served.kill_all ();
    Unix._exit 3
  in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle bail)) [ Sys.sigalrm; Sys.sigterm; Sys.sigint ];
  ignore (Unix.alarm 170);
  match run w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) with
  | () -> Served.kill_all ()
  | exception e ->
      Served.kill_all ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
