(* Interleaved telemetry A/B on the served path: two `rsj serve`
   daemons run at once, one with telemetry off and one with RSJ_TRACE
   spans and an RSJ_LOG request log, and the same warm Stream request
   (r = 64) alternates between them, 400 times each. Back-to-back
   phases on a shared host disagree by >10% on their own; interleaving
   puts every drift epoch on both sides of the ratio. The p99 on/off
   ratio is checked against the < 3% telemetry envelope (EXPERIMENTS.md
   V13). Serving latency and throughput at scale are perfbench's job.

   Usage: serve_ab.exe RSJ_EXE [OUT.json]   (what `make serve-bench` runs)
   The tables are the paper-harness pair at Zipf_tables.Scale.from_env. *)

module Json = Rsj_obs.Json
module Clock = Rsj_obs.Clock
module Client = Rsj_server.Client
module Zipf_tables = Rsj_workload.Zipf_tables

let requests = 400
let seed = 0x5EED

let percentile sorted q =
  let last = Array.length sorted - 1 in
  sorted.(min last (int_of_float ((q *. float_of_int last) +. 0.5)))

(* Mean, p50, p99 and the interquartile range: the side's noise. *)
let summary latencies =
  let a = Array.of_list latencies in
  Array.sort compare a;
  let mean = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  let q = percentile a in
  ( q,
    Json.Obj
      (List.map
         (fun (k, v) -> (k, Json.Float v))
         [ ("mean_s", mean); ("p50_s", q 0.5); ("p99_s", q 0.99); ("iqr_s", q 0.75 -. q 0.25) ]) )

let must what = function Ok v -> v | Error msg -> failwith (what ^ " failed: " ^ msg)

let rec connect_with_retry sock attempts =
  match Client.connect (Rsj_server.Server.Unix_path sock) with
  | client -> client
  | exception Failure _ when attempts > 0 ->
      Unix.sleepf 0.05;
      connect_with_retry sock (attempts - 1)

(* Both daemons inherit this process's environment minus the two
   telemetry knobs, so they differ in exactly what [knobs] sets. *)
let with_daemon ~rsj ~knobs ~sock ~tables f =
  let telemetry kv =
    String.starts_with ~prefix:"RSJ_TRACE=" kv || String.starts_with ~prefix:"RSJ_LOG=" kv
  in
  let env = List.filter (fun kv -> not (telemetry kv)) (Array.to_list (Unix.environment ())) in
  let env = Array.of_list (env @ knobs) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = [| rsj; "serve"; "--socket"; sock |] in
  let pid = Unix.create_process_env rsj argv env Unix.stdin devnull devnull in
  Unix.close devnull;
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  let c = connect_with_retry sock 100 in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter (fun (name, path) -> ignore (must name (Client.register_path c ~name ~path))) tables;
  let result = f c in
  must "shutdown" (Client.shutdown c);
  result

let timed_sample c k =
  let t0 = Clock.now_s () in
  match Client.sample c ~left:"t1" ~right:"t2" ~r:64 ~strategy:"stream" ~seed:(seed + k) () with
  | Ok _ -> Clock.now_s () -. t0
  | Error (_, msg) -> failwith ("sample failed: " ^ msg)

let run ~rsj =
  let scale = Zipf_tables.Scale.from_env () in
  let dir = Filename.temp_dir "rsj-serve-ab" "" in
  let path f = Filename.concat dir f in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let { Zipf_tables.Scale.n1; n2; domain; _ } = scale in
  let pair = Zipf_tables.make_pair ~seed ~n1 ~n2 ~z1:1. ~z2:1. ~domain () in
  Rsj_relation.Csv_io.save ~path:(path "t1.csv") pair.Zipf_tables.outer;
  Rsj_relation.Csv_io.save ~path:(path "t2.csv") pair.Zipf_tables.inner;
  let tables = [ ("t1", path "t1.csv"); ("t2", path "t2.csv") ] in
  let off, on =
    with_daemon ~rsj ~knobs:[] ~sock:(path "off.sock") ~tables @@ fun c_off ->
    let knobs = [ "RSJ_TRACE=" ^ path "trace.json"; "RSJ_LOG=" ^ path "requests.ndjson" ] in
    with_daemon ~rsj ~knobs ~sock:(path "on.sock") ~tables @@ fun c_on ->
    (* Warm-ups pay the structure builds on both daemons. *)
    ignore (timed_sample c_off (-1));
    ignore (timed_sample c_on (-2));
    let off = ref [] and on = ref [] in
    for k = 0 to requests - 1 do
      off := timed_sample c_off (2 * k) :: !off;
      on := timed_sample c_on ((2 * k) + 1) :: !on
    done;
    (!off, !on)
  in
  let q_off, off_json = summary off and q_on, on_json = summary on in
  let ratio q = Json.Float (q_on q /. q_off q) in
  Json.Obj
    [
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
          ] );
      ( "request_telemetry",
        Json.Obj
          [
            ("workload", Json.Str (Format.asprintf "%a r=64 stream" Zipf_tables.Scale.pp scale));
            ("requests_each", Json.Int requests);
            ("obs_off", off_json);
            ("obs_on", on_json);
            ("p50_overhead_ratio", ratio 0.5);
            ("p99_overhead_ratio", ratio 0.99);
          ] );
    ]

let () =
  match Array.to_list Sys.argv with
  | [ _; rsj ] | [ _; rsj; _ ] ->
      let report = Json.to_string (run ~rsj) ^ "\n" in
      print_string report;
      if Array.length Sys.argv = 3 then
        Out_channel.with_open_bin Sys.argv.(2) (fun oc -> output_string oc report)
  | _ ->
      prerr_endline "usage: serve_ab.exe RSJ_EXE [OUT.json]";
      exit 2
