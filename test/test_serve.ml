(* The sampling service end to end: a real `rsj serve` subprocess
   (exec'd — OCaml 5 forbids fork once the parallel suites have spawned
   domains in this binary) driven over its Unix socket. Covers the
   conformance contract (served samples byte-identical to in-process
   runs, all eight strategies, int and string join keys; a chi-square
   cell through the served path), the operational behavior (deadlines,
   admission control, graceful SIGTERM shutdown with socket unlink +
   metrics snapshot, the warm cache's byte budget over the wire), the
   HTTP metrics endpoint and the configuration surface. *)

open Rsj_relation
module Server = Rsj_server.Server
module Client = Rsj_server.Client
module P = Rsj_server.Protocol
module Cache = Rsj_cache.Structure_cache
module Strategy = Rsj_core.Strategy
module Zipf_tables = Rsj_workload.Zipf_tables
module Oracle = Rsj_verify.Oracle
module Kernel = Rsj_verify.Kernel
module Json = Rsj_obs.Json

let key = Zipf_tables.col2

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---------- plumbing: spawn a daemon, connect, always reap ---------- *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rsj-test-serve-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let cleanup_dir dir =
  (try Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()

(* The CLI, built beside this binary (a dependency of the test rule).
   The daemon inherits our environment (RSJ_CACHE_BYTES etc.). *)
let rsj_exe =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/rsj.exe"

let spawn_server ?max_queued_work ~sock ~snapshot () =
  let budget =
    Option.fold ~none:[] ~some:(fun b -> [ "--queue-budget"; string_of_int b ]) max_queued_work
  in
  let args = [ "serve"; "--socket"; sock; "--snapshot"; snapshot ] @ budget in
  Unix.create_process rsj_exe (Array.of_list (rsj_exe :: args)) Unix.stdin Unix.stdout Unix.stderr

(* Runs the CLI with every inherited RSJ_* variable dropped and [knobs]
   set. Returns the exit code ([None]: still running after 5 s, then
   SIGTERMed), stdout and stderr. *)
let run_rsj ~knobs args =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup_dir dir) @@ fun () ->
  let file f = Filename.concat dir f in
  let fd f = Unix.openfile (file f) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let fo = fd "out" and fe = fd "err" in
  let inherited = Array.to_list (Unix.environment ()) in
  let env = List.filter (fun kv -> not (String.starts_with ~prefix:"RSJ_" kv)) inherited in
  let env = Array.of_list (env @ List.map (fun (k, v) -> k ^ "=" ^ v) knobs) in
  let argv = Array.of_list (rsj_exe :: args) in
  let pid = Unix.create_process_env rsj_exe argv env Unix.stdin fo fe in
  List.iter Unix.close [ fo; fe ];
  let deadline = Rsj_obs.Clock.now_s () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Rsj_obs.Clock.now_s () < deadline -> Unix.sleepf 0.05; wait ()
    | 0, _ -> Unix.kill pid Sys.sigterm; ignore (Unix.waitpid [] pid); None
    | _, Unix.WEXITED c -> Some c
    | _, _ -> Some (-1)
  in
  let code = wait () in
  let read f = In_channel.with_open_bin (file f) In_channel.input_all in
  (code, read "out", read "err")

let connect_with_retry addr =
  let rec go attempts =
    match Client.connect addr with
    | client -> client
    | exception Failure _ when attempts > 0 ->
        Unix.sleepf 0.05;
        go (attempts - 1)
  in
  go 100

let with_server ?max_queued_work f =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "rsj.sock" in
  let snapshot = Filename.concat dir "snapshot.prom" in
  let pid = spawn_server ?max_queued_work ~sock ~snapshot () in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ());
      cleanup_dir dir)
  @@ fun () ->
  let client = connect_with_retry (Server.Unix_path sock) in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () -> f ~sock ~snapshot client

let must what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s failed: %s" what msg

let must_reply what = function
  | Ok (reply : Client.reply) -> reply
  | Error (code, msg) ->
      Alcotest.failf "%s failed (%s): %s" what (P.error_code_to_string code) msg

let zipf_schema = [ ("rid", Value.T_int); ("col2", Value.T_int); ("pad", Value.T_str) ]
let str_key_schema = [ ("rid", Value.T_int); ("col2", Value.T_str); ("pad", Value.T_str) ]

let rows_of rel =
  let acc = ref [] in
  Relation.iter rel (fun t -> acc := Array.to_list t :: !acc);
  List.rev !acc

let make_pair ?(seed = 0xBEEF) () =
  Zipf_tables.make_pair ~seed ~n1:60 ~n2:240 ~z1:1. ~z2:1. ~domain:24 ()

(* A register request carrying its rows inline. *)
let register_rows client ~name ~schema ~rows =
  match
    Client.rpc client
      (P.Register { id = Client.fresh_id client; name; source = P.Inline (schema, rows) })
  with
  | Ok _ -> Ok ()
  | Error (code, msg) -> Error (P.error_code_to_string code ^ ": " ^ msg)

(* Response frames read straight off the socket, for tests that
   pipeline raw request lines on [Client.fd]. *)
let frame_reader client =
  let pending = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec next () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i -> (
        Buffer.clear pending;
        Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
        match P.decode_response (String.sub s 0 i) with
        | Ok frame -> frame
        | Error e -> Alcotest.failf "undecodable frame: %s" e)
    | None ->
        let n = Unix.read (Client.fd client) chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "server closed the connection";
        Buffer.add_subbytes pending chunk 0 n;
        next ()
  in
  next

let register_pair ?(schema = zipf_schema) client pair =
  ignore
    (must "register t1" (register_rows client ~name:"t1" ~schema
                           ~rows:(rows_of pair.Zipf_tables.outer)));
  ignore
    (must "register t2" (register_rows client ~name:"t2" ~schema
                           ~rows:(rows_of pair.Zipf_tables.inner)))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* ---------- conformance: served ≡ in-process ---------- *)

let local_env' ~seed pair =
  Strategy.make_env ~seed ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
    ~left_key:key ~right_key:key ()

(* For a fixed seed at domains=1 the daemon must return the very same
   bytes as the same run in this process: the FIFO loop and the warm
   cache may change who builds the structures and when, never what is
   sampled. Checked for every strategy, plus the WoR conversion, on
   int keys and on a string-keyed copy (dictionary-coded keys through
   the same chunked runners). *)
let test_served_identical () =
  List.iter
    (fun (keys, pair, schema) ->
      with_server @@ fun ~sock:_ ~snapshot:_ client ->
      register_pair ~schema client pair;
      let local_env () =
        Strategy.make_env ~seed:4242 ~left:pair.Zipf_tables.outer
          ~right:pair.Zipf_tables.inner ~left_key:key ~right_key:key ()
      in
      let strings_of (result : Strategy.result) =
        result.Strategy.sample |> Array.map Tuple.to_string |> Array.to_list
      in
      List.iter
        (fun s ->
          let label = keys ^ "/" ^ Strategy.name s in
          let served =
            (must_reply label
               (Client.sample client ~left:"t1" ~right:"t2" ~r:25
                  ~strategy:(Strategy.name s) ~seed:4242 ~domains:1 ()))
              .Client.rows
            |> List.map (fun row -> Tuple.to_string (Array.of_list row))
          in
          let local = strings_of (Rsj_parallel.run (local_env ()) s ~r:25 ~domains:1) in
          Alcotest.(check (list string)) (label ^ ": served = in-process") local served)
        Strategy.all;
      let served_wor =
        (must_reply "wor"
           (Client.sample client ~left:"t1" ~right:"t2" ~r:20 ~strategy:"stream" ~seed:99
              ~wor:true ~domains:1 ()))
          .Client.rows
        |> List.map (fun row -> Tuple.to_string (Array.of_list row))
      in
      let local_wor =
        strings_of (Rsj_parallel.run_wor (local_env' ~seed:99 pair) Strategy.Stream ~r:20 ~domains:1)
      in
      Alcotest.(check (list string))
        (keys ^ "/stream WoR: served = in-process")
        local_wor served_wor)
    [
      ("int", make_pair (), zipf_schema);
      ("str", Zipf_tables.string_keyed (make_pair ()), str_key_schema);
    ]

(* Samples are join positions on the served path too: on a bag join
   (fewer distinct tuples than r) a WoR request returns min r |J|
   tuples for every strategy, and the daemon keeps serving. *)
let test_served_bag_join_wor () =
  let pair = Zipf_tables.bag (make_pair ()) in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let want = min 30 (Zipf_tables.join_size pair) in
  List.iter
    (fun s ->
      let reply =
        must_reply
          ("bag WoR " ^ Strategy.name s)
          (Client.sample client ~left:"t1" ~right:"t2" ~r:30 ~strategy:(Strategy.name s) ~seed:5
             ~wor:true ~domains:1 ())
      in
      Alcotest.(check int) (Strategy.name s ^ ": min r |J| tuples") want
        (List.length reply.Client.rows))
    Strategy.all;
  Alcotest.(check bool) "daemon still serving" true (Client.ping client)

(* ---------- conformance: a chi-square cell through the socket ---------- *)

(* The daemon's samples must not merely match bytes at one seed — the
   distribution across seeds must still follow the WR law. Pool many
   served draws per attempt and run the standard kernel cell against
   the exact join oracle; Oracle.observe also rejects any served tuple
   that is not a genuine join row. *)
let test_served_chi_square () =
  let pair = Zipf_tables.make_pair ~seed:0xD1CE ~n1:30 ~n2:120 ~z1:1. ~z2:1. ~domain:12 () in
  let oracle =
    Oracle.of_relations ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
      ~left_key:key ~right_key:key
  in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let r = 40 and reqs = 30 in
  let outcome =
    Kernel.run
      { Kernel.default with Kernel.comparisons = 1 }
      Kernel.Chi_square
      ~sample:(fun ~attempt ->
        let counter = Oracle.counter oracle in
        for k = 0 to reqs - 1 do
          let reply =
            must_reply "served draw"
              (Client.sample client ~left:"t1" ~right:"t2" ~r ~strategy:"stream"
                 ~seed:(100_000 + (1_000 * attempt) + k) ())
          in
          List.iter (fun row -> Oracle.observe oracle counter (Array.of_list row)) reply.Client.rows
        done;
        (Oracle.wr_expected oracle ~draws:(r * reqs), counter))
  in
  Alcotest.(check bool) "served WR draws pass the chi-square cell" true outcome.Kernel.passed

(* ---------- SQL and the fraction form over the wire ---------- *)

let test_query_over_wire () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let reply =
    must_reply "query"
      (Client.query client
         ~sql:"select * from t1, t2 where t1.col2 = t2.col2 sample 8 using stream" ())
  in
  Alcotest.(check int) "8 sampled rows" 8 (List.length reply.Client.rows);
  let join_size = Strategy.env_join_size (local_env' ~seed:1 pair) in
  let expect = max 1 (int_of_float (Float.ceil (0.05 *. float_of_int join_size))) in
  let frac =
    must_reply "fraction query"
      (Client.query client
         ~sql:"select * from t1, t2 where t1.col2 = t2.col2 sample 5% using stream" ())
  in
  Alcotest.(check int)
    (Printf.sprintf "5%% of |J|=%d resolves to %d rows" join_size expect)
    expect
    (List.length frac.Client.rows)

(* ---------- typed errors and explicit invalidation ---------- *)

let stat_int stats field =
  match List.assoc_opt field stats with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "cache stats carry no integer %S" field

let test_typed_errors_and_invalidate () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  (match Client.sample client ~left:"ghost" ~right:"ghoul" ~r:4 () with
  | Error (P.Unknown_relation, _) -> ()
  | Ok _ -> Alcotest.fail "sampling unregistered relations succeeded"
  | Error (code, _) ->
      Alcotest.failf "expected unknown_relation, got %s" (P.error_code_to_string code));
  register_pair client pair;
  (match Client.sample client ~left:"t1" ~right:"t2" ~r:4 ~strategy:"bogus" () with
  | Error (P.Unknown_strategy, msg) ->
      Alcotest.(check bool) "message lists the valid names" true (contains "Olken" msg)
  | Ok _ -> Alcotest.fail "bogus strategy succeeded"
  | Error (code, _) ->
      Alcotest.failf "expected unknown_strategy, got %s" (P.error_code_to_string code));
  (* Olken forces the R2 index into the warm cache; invalidate drops it. *)
  ignore
    (must_reply "olken sample"
       (Client.sample client ~left:"t1" ~right:"t2" ~r:8 ~strategy:"olken" ~seed:3 ()));
  let entries0 = stat_int (must "stats" (Client.cache_stats client)) "entries" in
  Alcotest.(check bool) "structures cached after sampling" true (entries0 > 0);
  must "invalidate" (Client.invalidate client ~name:"t2");
  let entries1 = stat_int (must "stats" (Client.cache_stats client)) "entries" in
  Alcotest.(check bool)
    (Printf.sprintf "invalidate dropped entries (%d -> %d)" entries0 entries1)
    true (entries1 < entries0)

(* A relation registered from a file answers to the name the client
   gave it, in errors too, not to the file's. *)
let test_register_path_keeps_its_name () =
  let pair = make_pair () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup_dir dir) @@ fun () ->
  let path = Filename.concat dir "t1b.csv" in
  Csv_io.save ~path pair.Zipf_tables.outer;
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  ignore (must "register t1 from a file" (Client.register_path client ~name:"t1" ~path));
  ignore
    (must "register t2"
       (register_rows client ~name:"t2" ~schema:zipf_schema
          ~rows:(rows_of pair.Zipf_tables.inner)));
  match Client.sample client ~left:"t1" ~right:"t2" ~r:4 ~on:"x" () with
  | Error (P.Bad_request, msg) ->
      Alcotest.(check bool) ("the error names t1: " ^ msg) true
        (contains {|relation "t1"|} msg && not (contains "t1b.csv" msg))
  | Ok _ -> Alcotest.fail "sampling on a missing column succeeded"
  | Error (code, _) -> Alcotest.failf "expected bad_request, got %s" (P.error_code_to_string code)

(* Any exception other than the engine's own Failure/Invalid_argument
   fails its request typed as internal_error, is counted, and leaves
   the daemon serving. r = 2^53 passes admission (an empty queue skips
   the work budget); its 2^53-word reservoir (2^56 bytes) exceeds any
   x86-64 user address space, so the allocation raises Out_of_memory
   at once. *)
let test_internal_error_keeps_serving () =
  let pair = make_pair () in
  (* A budget that admits r = 2^53, so the sample gets as far as its
     allocation; the default budget refuses it at admission. *)
  with_server ~max_queued_work:max_int @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let huge = 1 lsl 53 in
  let expect_internal what = function
    | Error (P.Internal_error, _) ->
        Alcotest.(check bool) (what ^ ": the next ping answers") true (Client.ping client)
    | Ok _ -> Alcotest.failf "%s succeeded" what
    | Error (code, msg) ->
        Alcotest.failf "%s: expected internal_error, got %s: %s" what
          (P.error_code_to_string code) msg
  in
  expect_internal "sample r=2^53"
    (Client.sample client ~left:"t1" ~right:"t2" ~r:huge ~strategy:"stream" ());
  expect_internal "SQL SAMPLE 2^53"
    (Client.query client
       ~sql:
         (Printf.sprintf "select * from t1, t2 where t1.col2 = t2.col2 sample %d using stream"
            huge)
       ());
  let metrics = must "metrics" (Client.metrics client) in
  Alcotest.(check bool) "both counted under code=internal_error" true
    (contains "rsj_serve_errors_total{code=\"internal_error\"} 2" metrics)

(* ---------- deadlines ---------- *)

(* Pipeline three real samples and then one with a 0ms budget in a
   single write: by the time the FIFO reaches the last request its
   deadline has passed, so it must fail typed — and never run. *)
let test_deadline_exceeded () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let sample_req id ~deadline_ms =
    P.Sample
      { id; left = "t1"; right = "t2"; r = 64; strategy = Some "stream"; seed = 7 + id;
        wor = false; domains = 1; on = "col2"; deadline_ms; rid = None }
  in
  (* 0.001ms: the smallest budget the protocol accepts (0 and below are
     rejected at decode since the deadline validation landed). *)
  let reqs =
    [ sample_req 100 ~deadline_ms:None; sample_req 101 ~deadline_ms:None;
      sample_req 102 ~deadline_ms:None; sample_req 103 ~deadline_ms:(Some 0.001) ]
  in
  write_all (Client.fd client)
    (String.concat "" (List.map (fun r -> P.encode_request r ^ "\n") reqs));
  let next_frame = frame_reader client in
  let terminal = Hashtbl.create 4 in
  while Hashtbl.length terminal < 4 do
    match next_frame () with
    | P.Rows _ -> ()
    | P.Ack { id; _ } | P.Done { id; _ } -> Hashtbl.replace terminal id `Ok
    | P.Failed { id; code; _ } -> Hashtbl.replace terminal id (`Failed code)
  done;
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d completed" id)
        true
        (Hashtbl.find terminal id = `Ok))
    [ 100; 101; 102 ];
  match Hashtbl.find terminal 103 with
  | `Failed P.Deadline_exceeded -> ()
  | `Failed code ->
      Alcotest.failf "expected deadline_exceeded, got %s" (P.error_code_to_string code)
  | `Ok -> Alcotest.fail "the 0ms-deadline request ran anyway"

(* ---------- admission control ---------- *)

(* With a 100-tuple work budget, three pipelined r=60 samples in one
   write must admit exactly the first (the empty-queue guarantee) and
   reject the other two with the typed overload error. *)
let test_admission_overloaded () =
  let pair = make_pair () in
  with_server ~max_queued_work:100 @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let sample_req id =
    P.Sample
      { id; left = "t1"; right = "t2"; r = 60; strategy = Some "stream"; seed = id;
        wor = false; domains = 1; on = "col2"; deadline_ms = None; rid = None }
  in
  write_all (Client.fd client)
    (String.concat ""
       (List.map (fun id -> P.encode_request (sample_req id) ^ "\n") [ 200; 201; 202 ]));
  let next_frame = frame_reader client in
  let terminal = Hashtbl.create 4 in
  while Hashtbl.length terminal < 3 do
    match next_frame () with
    | P.Rows _ -> ()
    | P.Ack { id; _ } | P.Done { id; _ } -> Hashtbl.replace terminal id `Ok
    | P.Failed { id; code; _ } -> Hashtbl.replace terminal id (`Failed code)
  done;
  Alcotest.(check bool) "first request admitted and served" true
    (Hashtbl.find terminal 200 = `Ok);
  List.iter
    (fun id ->
      match Hashtbl.find terminal id with
      | `Failed P.Overloaded -> ()
      | `Failed code ->
          Alcotest.failf "request %d: expected overloaded, got %s" id
            (P.error_code_to_string code)
      | `Ok -> Alcotest.failf "request %d was admitted over budget" id)
    [ 201; 202 ]

(* A sample larger than the whole budget is refused even on an empty
   queue, before the draw allocates anything r-sized; one within it is
   still served. *)
let test_admission_refuses_oversized () =
  let pair = make_pair () in
  with_server ~max_queued_work:100 @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  (match Client.sample client ~left:"t1" ~right:"t2" ~r:101 ~strategy:"stream" () with
  | Error (P.Overloaded, _) -> ()
  | Ok _ -> Alcotest.fail "a sample over the whole budget was admitted"
  | Error (code, _) -> Alcotest.failf "expected overloaded, got %s" (P.error_code_to_string code));
  let reply =
    must_reply "sample at the budget"
      (Client.sample client ~left:"t1" ~right:"t2" ~r:100 ~strategy:"stream" ())
  in
  Alcotest.(check int) "r = budget is served" 100 (List.length reply.Client.rows)

(* SQL SAMPLE is admitted by the same rule: an absolute SAMPLE n is
   charged its n, so one over the whole budget is refused before any
   work, and one at the budget is served. *)
let test_admission_charges_sql_sample () =
  let pair = make_pair () in
  with_server ~max_queued_work:100 @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let sql n =
    Printf.sprintf "select * from t1, t2 where t1.col2 = t2.col2 sample %s using stream" n
  in
  List.iter
    (fun n ->
      match Client.query client ~sql:(sql n) () with
      | Error (P.Overloaded, _) -> ()
      | Ok _ -> Alcotest.failf "SAMPLE %s was admitted over the budget" n
      | Error (code, msg) ->
          Alcotest.failf "SAMPLE %s: expected overloaded, got %s: %s" n
            (P.error_code_to_string code) msg)
    [ "101"; "9007199254740992" ];
  let reply = must_reply "SAMPLE at the budget" (Client.query client ~sql:(sql "100") ()) in
  Alcotest.(check int) "SAMPLE 100 is served" 100 (List.length reply.Client.rows)

(* The two front doors are one sampler: through one daemon, a sample
   request and the equivalent two-table SQL SAMPLE with the same seed
   return byte-identical rows, and both feed the same quality
   stream. *)
let test_cross_door_same_rows_one_stream () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let streams () =
    match List.assoc_opt "quality" (must "stats" (Client.cache_stats client)) with
    | Some (Json.List l) ->
        List.map
          (fun s ->
            match (Json.member "stream" s, Json.member "seen" s) with
            | Some (Json.Str k), Some (Json.Int n) -> (k, n)
            | _ -> Alcotest.fail "a quality stream without key or count")
          l
    | _ -> Alcotest.fail "stats carry no quality stream list"
  in
  let wire rows =
    String.concat "\n"
      (List.map (fun row -> String.concat "," (List.map Value.to_string row)) rows)
  in
  let stream_of strategy =
    let suffix = "/" ^ Strategy.name (Option.get (Strategy.of_name strategy)) ^ "/wr" in
    match List.filter (fun (k, _) -> String.ends_with ~suffix k) (streams ()) with
    | [] -> None
    | [ s ] -> Some s
    | l -> Alcotest.failf "%d quality streams end in %s" (List.length l) suffix
  in
  List.iter
    (fun (strategy, seed) ->
      Alcotest.(check bool) (strategy ^ ": no stream yet") true (stream_of strategy = None);
      let sql =
        Printf.sprintf "select * from t1, t2 where t1.col2 = t2.col2 sample 40 using %s" strategy
      in
      let queried = must_reply "query" (Client.query client ~seed ~sql ()) in
      let key, seen =
        match stream_of strategy with
        | Some s -> s
        | None -> Alcotest.failf "%s: the query fed no quality stream" strategy
      in
      Alcotest.(check int) (key ^ ": the query fed its stream") 40 seen;
      let sampled =
        must_reply "sample" (Client.sample client ~left:"t1" ~right:"t2" ~r:40 ~strategy ~seed ())
      in
      Alcotest.(check string)
        (strategy ^ ": the query's rows are the sample request's")
        (wire sampled.Client.rows) (wire queried.Client.rows);
      Alcotest.(check (option (pair string int)))
        (strategy ^ ": the sample fed the same stream")
        (Some (key, 80)) (stream_of strategy))
    [ ("stream", 7); ("fps", 8); ("olken", 9); ("hybrid_count", 10) ]

(* The monitor's law depends on the join columns: the same two
   relations joined on another column are a stream of their own, not
   foreign values in the first join's stream. *)
let test_other_join_column_own_stream () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  ignore (must_reply "col2" (Client.sample client ~left:"t1" ~right:"t2" ~r:30 ~strategy:"stream" ()));
  ignore
    (must_reply "rid"
       (Client.sample client ~left:"t1" ~right:"t2" ~r:30 ~strategy:"stream" ~on:"rid" ()));
  ignore
    (must_reply "rid query"
       (Client.query client ~sql:"select * from t1, t2 where t1.rid = t2.rid sample 30 using stream" ()));
  let stats = must "stats" (Client.cache_stats client) in
  let streams =
    match List.assoc_opt "quality" stats with Some (Json.List l) -> l | _ -> []
  in
  Alcotest.(check int) "one stream per join column" 2 (List.length streams);
  List.iter
    (fun s ->
      Alcotest.(check (option int)) "no foreign values" (Some 0)
        (match Json.member "foreign" s with Some (Json.Int n) -> Some n | _ -> None))
    streams;
  Alcotest.(check bool) "no alert" true (List.assoc_opt "quality_alert" stats = Some (Json.Bool false))

(* ---------- graceful shutdown and restart ---------- *)

(* SIGTERM must exit 0, unlink the socket path and write the final
   metrics snapshot — and the unlink must be real: a second daemon on
   the very same path starts and answers. *)
let test_sigterm_shutdown_restart () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "rsj.sock" in
  let snap n = Filename.concat dir (Printf.sprintf "snap%d.prom" n) in
  let start n = spawn_server ~sock ~snapshot:(snap n) () in
  Fun.protect ~finally:(fun () -> cleanup_dir dir) @@ fun () ->
  let pid1 = start 1 in
  let c1 = connect_with_retry (Server.Unix_path sock) in
  Alcotest.(check bool) "first daemon answers" true (Client.ping c1);
  Unix.kill pid1 Sys.sigterm;
  let _, status1 = Unix.waitpid [] pid1 in
  Client.close c1;
  Alcotest.(check bool) "clean exit on SIGTERM" true (status1 = Unix.WEXITED 0);
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists sock);
  Alcotest.(check bool) "metrics snapshot written" true (Sys.file_exists (snap 1));
  let ic = open_in (snap 1) in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Alcotest.(check bool) "snapshot is the Prometheus registry" true
    (contains "rsj_serve_connections_total" text);
  let pid2 = start 2 in
  let c2 = connect_with_retry (Server.Unix_path sock) in
  Alcotest.(check bool) "replacement daemon on the same path answers" true (Client.ping c2);
  must "shutdown" (Client.shutdown c2);
  let _, status2 = Unix.waitpid [] pid2 in
  Client.close c2;
  Alcotest.(check bool) "clean exit on shutdown op" true (status2 = Unix.WEXITED 0);
  Alcotest.(check bool) "replacement unlinked the socket too" false (Sys.file_exists sock)

(* ---------- the byte budget over the wire ---------- *)

(* Measure one join's warm-structure footprint in-process, give the
   daemon (via RSJ_CACHE_BYTES, read by the child's shared cache at
   startup) room for about two, then serve five distinct joins: the
   daemon's cache must evict and stay within its budget. *)
let test_served_eviction_budget () =
  let probe_pair k =
    Zipf_tables.make_pair ~seed:(0xFACE + (31 * k)) ~n1:40 ~n2:200 ~z1:1. ~z2:1. ~domain:20 ()
  in
  let probe = Cache.create () in
  let p0 = probe_pair 0 in
  let env =
    Cache.env probe ~seed:5 ~left:p0.Zipf_tables.outer ~right:p0.Zipf_tables.inner
      ~left_key:key ~right_key:key ()
  in
  ignore (Rsj_parallel.run env Strategy.Olken ~r:16 ~domains:1);
  let per_join = (Cache.stats probe).Cache.bytes in
  Alcotest.(check bool) "probe measured a footprint" true (per_join > 0);
  let budget = 2 * per_join in
  Unix.putenv "RSJ_CACHE_BYTES" (string_of_int budget);
  Fun.protect ~finally:(fun () -> Unix.putenv "RSJ_CACHE_BYTES" "") @@ fun () ->
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  for k = 0 to 4 do
    let p = probe_pair k in
    let l = Printf.sprintf "l%d" k and r = Printf.sprintf "r%d" k in
    ignore
      (must ("register " ^ l)
         (register_rows client ~name:l ~schema:zipf_schema
            ~rows:(rows_of p.Zipf_tables.outer)));
    ignore
      (must ("register " ^ r)
         (register_rows client ~name:r ~schema:zipf_schema
            ~rows:(rows_of p.Zipf_tables.inner)));
    ignore
      (must_reply ("sample " ^ l)
         (Client.sample client ~left:l ~right:r ~r:16 ~strategy:"olken" ~seed:5 ()))
  done;
  let stats = must "stats" (Client.cache_stats client) in
  Alcotest.(check int) "daemon runs under the budget" budget (stat_int stats "max_bytes");
  Alcotest.(check bool)
    (Printf.sprintf "evictions happened (%d)" (stat_int stats "evictions"))
    true
    (stat_int stats "evictions" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "footprint %d within budget %d" (stat_int stats "bytes") budget)
    true
    (stat_int stats "bytes" <= budget)

(* ---------- HTTP metrics on the same socket ---------- *)

let test_http_metrics () =
  with_server @@ fun ~sock ~snapshot:_ client ->
  Alcotest.(check bool) "json client works first" true (Client.ping client);
  let http = Client.connect (Server.Unix_path sock) in
  write_all (Client.fd http) "GET /metrics HTTP/1.0\r\nHost: rsj\r\n\r\n";
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 4096 in
  let rec drain () =
    match Unix.read (Client.fd http) bytes 0 (Bytes.length bytes) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        drain ()
  in
  drain ();
  Client.close http;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "200 OK" true (contains "HTTP/1.1 200 OK" s);
  Alcotest.(check bool) "Content-Length present" true (contains "Content-Length:" s);
  Alcotest.(check bool) "serve metrics exported" true (contains "rsj_serve_requests_total" s);
  Alcotest.(check bool) "json clients unaffected by the sniff" true (Client.ping client)

(* ---------- protocol: rid round-trip, deadline validation ---------- *)

let test_protocol_rid_and_deadline () =
  let sample ?rid ?deadline_ms () =
    P.Sample
      { id = 7; left = "t1"; right = "t2"; r = 4; strategy = None; seed = 1; wor = false;
        domains = 1; on = "col2"; deadline_ms; rid }
  in
  let redecode req =
    match P.decode_request (P.encode_request req) with
    | Ok req' -> req'
    | Error e -> Alcotest.failf "re-decode failed: %s" e
  in
  Alcotest.(check (option string))
    "sample rid round-trips" (Some "abc-1")
    (P.request_rid (redecode (sample ~rid:"abc-1" ())));
  Alcotest.(check (option string))
    "query rid round-trips" (Some "q-9")
    (P.request_rid
       (redecode
          (P.Query { id = 3; sql = "select 1"; seed = 2; deadline_ms = Some 5.; rid = Some "q-9" })));
  (* Absent rid must be absent on the wire, and a line from a client
     that predates the field must still parse. *)
  Alcotest.(check bool)
    "absent rid leaves the wire unchanged" false
    (contains "\"rid\"" (P.encode_request (sample ())));
  (match P.decode_request {|{"op":"sample","id":11,"left":"t1","right":"t2","r":8}|} with
  | Ok (P.Sample { rid = None; deadline_ms = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "old-client line decoded with a phantom rid or deadline"
  | Error e -> Alcotest.failf "old-client line rejected: %s" e);
  (* deadline_ms: zero and negative budgets are rejected at decode with
     a speaking message; positive budgets and explicit null pass. *)
  List.iter
    (fun bad ->
      let line =
        Printf.sprintf {|{"op":"query","id":1,"sql":"select 1","deadline_ms":%s}|} bad
      in
      match P.decode_request line with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "deadline_ms=%s names the field" bad)
            true (contains "deadline_ms" msg)
      | Ok _ -> Alcotest.failf "deadline_ms=%s was accepted" bad)
    [ "0"; "0.0"; "-3"; "-0.5" ];
  (match P.decode_request {|{"op":"query","id":1,"sql":"select 1","deadline_ms":2.5}|} with
  | Ok (P.Query { deadline_ms = Some d; _ }) ->
      Alcotest.(check (float 1e-9)) "positive budget kept" 2.5 d
  | Ok _ -> Alcotest.fail "positive budget lost"
  | Error e -> Alcotest.failf "positive budget rejected: %s" e);
  match P.decode_request {|{"op":"query","id":1,"sql":"select 1","deadline_ms":null}|} with
  | Ok (P.Query { deadline_ms = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "null deadline not treated as absent"
  | Error e -> Alcotest.failf "null deadline rejected: %s" e

(* ---------- health endpoint: 200 serving, 503 while draining ---------- *)

let http_get fd path =
  write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\nHost: rsj\r\n\r\n" path);
  let buf = Buffer.create 1024 in
  let bytes = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd bytes 0 (Bytes.length bytes) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        drain ()
  in
  drain ();
  Buffer.contents buf

let test_healthz_serving () =
  with_server @@ fun ~sock ~snapshot:_ client ->
  Alcotest.(check bool) "json client works" true (Client.ping client);
  let http = Client.connect (Server.Unix_path sock) in
  let s = http_get (Client.fd http) "/healthz" in
  Client.close http;
  Alcotest.(check bool) "200 while serving" true (contains "HTTP/1.1 200 OK" s);
  Alcotest.(check bool) "body says ok" true (contains "ok" s);
  Alcotest.(check bool) "json clients unaffected" true (Client.ping client)

(* A load balancer learns about a drain from /healthz flipping to 503:
   RSJ_SERVE_DRAIN_LINGER_MS keeps the loop alive past SIGTERM so a
   probe connection accepted before the signal can still ask. *)
let test_healthz_draining () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "rsj.sock" in
  let snapshot = Filename.concat dir "snap.prom" in
  Unix.putenv "RSJ_SERVE_DRAIN_LINGER_MS" "2000";
  Fun.protect ~finally:(fun () -> Unix.putenv "RSJ_SERVE_DRAIN_LINGER_MS" "") @@ fun () ->
  let pid = spawn_server ~sock ~snapshot () in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ());
      cleanup_dir dir)
  @@ fun () ->
  let client = connect_with_retry (Server.Unix_path sock) in
  Alcotest.(check bool) "daemon answers before SIGTERM" true (Client.ping client);
  let probe = Client.connect (Server.Unix_path sock) in
  (* Give the select loop a beat to accept the probe — the listener
     closes the moment the drain begins. *)
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigterm;
  Unix.sleepf 0.3;
  let s = http_get (Client.fd probe) "/healthz" in
  Client.close probe;
  Client.close client;
  Alcotest.(check bool) "503 while draining" true (contains "HTTP/1.1 503" s);
  Alcotest.(check bool) "body says draining" true (contains "draining" s);
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "drained daemon exits clean" true (status = Unix.WEXITED 0)

(* ---------- one id across response, trace and request log ---------- *)

let read_whole path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Drive one picker-routed query with a client-chosen rid under
   RSJ_TRACE + RSJ_LOG: the very same id must come back in the done
   frame, tag the request/picker spans in the trace the daemon writes
   at exit, and key the NDJSON request-log line. Every log line also
   carries its request's FIFO wait (queued_s >= 0), and the
   rsj_serve_queue_wait_seconds histogram in the exit snapshot observed
   each executed request exactly once. *)
let test_request_id_end_to_end () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "rsj.sock" in
  let snapshot = Filename.concat dir "snap.prom" in
  let trace = Filename.concat dir "trace.json" in
  let log = Filename.concat dir "requests.ndjson" in
  let rid = "e2e-rid-42" in
  Unix.putenv "RSJ_TRACE" trace;
  Unix.putenv "RSJ_LOG" log;
  Fun.protect ~finally:(fun () ->
      Unix.putenv "RSJ_TRACE" "";
      Unix.putenv "RSJ_LOG" "";
      cleanup_dir dir)
  @@ fun () ->
  let pair = make_pair () in
  let pid = spawn_server ~sock ~snapshot () in
  let detail =
    Fun.protect ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ()))
    @@ fun () ->
    let client = connect_with_retry (Server.Unix_path sock) in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    register_pair client pair;
    let reply =
      must_reply "traced query"
        (Client.query client ~sql:"select * from t1, t2 where t1.col2 = t2.col2 sample 8"
           ~rid ())
    in
    reply.Client.detail
  in
  (* 1. The done frame echoes the id. *)
  (match List.assoc_opt "request_id" detail with
  | Some (Json.Str s) -> Alcotest.(check string) "response echoes the rid" rid s
  | _ -> Alcotest.fail "done frame carries no request_id");
  (* 2. The trace the daemon wrote at exit tags its spans with it. *)
  Alcotest.(check bool) "trace file written at exit" true (Sys.file_exists trace);
  (match Json.parse (read_whole trace) with
  | Error e -> Alcotest.failf "trace is not JSON: %s" e
  | Ok j ->
      let events =
        match Json.member "traceEvents" j with Some (Json.List l) -> l | _ -> []
      in
      let tagged name ev =
        match (Json.member "name" ev, Json.member "args" ev) with
        | Some (Json.Str n), Some args when n = name -> (
            match Json.member "req" args with Some (Json.Str s) -> s = rid | _ -> false)
        | _ -> false
      in
      Alcotest.(check bool) "the request span carries the rid" true
        (List.exists (tagged "request") events);
      Alcotest.(check bool) "the picker decision carries the rid" true
        (List.exists (tagged "picker.decision") events));
  (* 3. The request log has exactly one line keyed by it, with the
     fields an operator greps for. *)
  Alcotest.(check bool) "request log written" true (Sys.file_exists log);
  let lines =
    String.split_on_char '\n' (read_whole log) |> List.filter (fun l -> l <> "")
  in
  let parsed =
    List.filter_map
      (fun l -> match Json.parse l with Ok j -> Some j | Error _ -> None)
      lines
  in
  let mine =
    List.filter
      (fun j -> match Json.member "req" j with Some (Json.Str s) -> s = rid | _ -> false)
      parsed
  in
  Alcotest.(check int) "exactly one log line for the rid" 1 (List.length mine);
  let line = List.hd mine in
  let str k =
    match Json.member k line with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "log line carries no string %S" k
  in
  Alcotest.(check string) "log op" "query" (str "op");
  Alcotest.(check string) "log status" "ok" (str "status");
  Alcotest.(check bool) "log names the picked strategy" true (str "strategy" <> "none");
  Alcotest.(check bool) "log carries the sql" true (contains "sample 8" (str "sql"));
  Alcotest.(check bool) "log times the request" true
    (match Json.member "latency_s" line with Some (Json.Float _) -> true | _ -> false);
  Alcotest.(check bool) "log counts allocation" true
    (match Json.member "alloc_words" line with
    | Some (Json.Float _) | Some (Json.Int _) -> true
    | _ -> false);
  (* 4. Queue wait: on every line, and once per request in the
     histogram. *)
  List.iter
    (fun j ->
      Alcotest.(check bool) "log line carries queued_s >= 0" true
        (match Json.member "queued_s" j with
        | Some (Json.Float q) -> q >= 0.
        | Some (Json.Int q) -> q >= 0
        | _ -> false))
    parsed;
  let waits =
    String.split_on_char '\n' (read_whole snapshot)
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "rsj_serve_queue_wait_seconds_count"; n ] -> int_of_string_opt n
           | _ -> None)
  in
  Alcotest.(check (option int)) "one queue-wait observation per logged request"
    (Some (List.length parsed)) waits

(* A SQL SAMPLE logs the sampler that ran, not only a picked one: a
   USING strategy under its name and reason "explicit", a three-table
   chain as the chain walker. *)
let test_sql_sample_logs_its_sampler () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "rsj.sock" in
  let log = Filename.concat dir "requests.ndjson" in
  Unix.putenv "RSJ_LOG" log;
  Fun.protect ~finally:(fun () ->
      Unix.putenv "RSJ_LOG" "";
      cleanup_dir dir)
  @@ fun () ->
  let pair = make_pair () in
  let pid = spawn_server ~sock ~snapshot:(Filename.concat dir "snap.prom") () in
  (Fun.protect ~finally:(fun () ->
       (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
       (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ()))
   @@ fun () ->
   let client = connect_with_retry (Server.Unix_path sock) in
   Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
   register_pair client pair;
   ignore
     (must "register t3"
        (register_rows client ~name:"t3" ~schema:zipf_schema
           ~rows:(rows_of pair.Zipf_tables.inner)));
   List.iter
     (fun (rid, sql) -> ignore (must_reply rid (Client.query client ~sql ~rid ())))
     [
       ("fps", "select * from t1, t2 where t1.col2 = t2.col2 sample 6 using fps");
       ("chain", "select * from t1, t2, t3 where t1.col2 = t2.col2 and t2.col2 = t3.col2 sample 6");
     ]);
  let line rid =
    String.split_on_char '\n' (read_whole log)
    |> List.find_map (fun l ->
           match Json.parse l with
           | Ok j when Json.member "req" j = Some (Json.Str rid) -> Some j
           | _ -> None)
    |> function
    | Some j -> j
    | None -> Alcotest.failf "no log line for %s" rid
  in
  let field rid k =
    match Json.member k (line rid) with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "log line %s carries no string %S" rid k
  in
  Alcotest.(check string) "USING fps logs its strategy" "Frequency-Partition-Sample"
    (field "fps" "strategy");
  Alcotest.(check string) "USING is explicit" "explicit" (field "fps" "picker_reason");
  Alcotest.(check string) "a 3-table chain logs the walker" "chain-walk" (field "chain" "strategy")

(* ---------- a draw is served from its positions, a frame at a time ---------- *)

(* A query whose answer is one draw (a bare linear-chain SAMPLE) is
   served from the draw's positions, frame by frame: its rows and its
   done frame must be Engine.run_query's for the same seed, at k = 3
   and at k = 2, picked or named. *)
let test_bare_sample_is_engine_answer () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  let t3 = Relation.of_tuples ~name:"t3" (Schema.of_list zipf_schema) (List.map Array.of_list (rows_of pair.Zipf_tables.inner)) in
  ignore (must "register t3" (register_rows client ~name:"t3" ~schema:zipf_schema ~rows:(rows_of t3)));
  let catalog = [ ("t1", pair.Zipf_tables.outer); ("t2", pair.Zipf_tables.inner); ("t3", t3) ] in
  List.iter
    (fun sql ->
      let served = must_reply sql (Client.query client ~sql ~seed:11 ()) in
      let local =
        match Rsj_sql.Engine.run ~seed:11 catalog sql with
        | Ok r -> r
        | Error msg -> Alcotest.failf "%s: %s" sql msg
      in
      let module E = Rsj_sql.Engine in
      Alcotest.(check bool) (sql ^ ": the engine's rows") true
        (served.Client.rows = List.map Array.to_list local.E.rows);
      let want =
        [
          ( "columns",
            Json.List
              (Array.to_list (Schema.columns local.E.schema)
              |> List.map (fun (c : Schema.column) -> Json.Str c.name)) );
          ("tuples", Json.Int (List.length local.E.rows));
          ("work", Json.Int (Rsj_exec.Metrics.total_work local.E.metrics));
          ("explained", Json.Bool false);
        ]
        @ Option.fold ~none:[]
            ~some:(fun d -> [ ("picked", Json.Str (Strategy.name d.Rsj_optimizer.Picker.chosen)) ])
            local.E.decision
      in
      Alcotest.(check bool) (sql ^ ": the engine's done frame") true
        (List.filter (fun (k, _) -> k <> "request_id") served.Client.detail = want))
    [
      "select * from t1, t2, t3 where t1.col2 = t2.col2 and t2.col2 = t3.col2 sample 600";
      "select * from t1, t2 where t1.col2 = t2.col2 sample 300";
      "select * from t1, t2 where t1.col2 = t2.col2 sample 257 using fps";
    ]

(* ---------- the daemon's input is capped ---------- *)

(* A client that never sends a newline: past the 16 MiB line cap it
   gets a typed bad_request and its connection is closed, counted in
   rsj_oversized_lines_total, and every other client is still served.
   Without a cap the daemon buffers the drip and never answers, and
   the read below times out. *)
let test_oversized_line_closes_its_connection () =
  let pair = make_pair () in
  with_server @@ fun ~sock ~snapshot:_ client ->
  register_pair client pair;
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous) @@ fun () ->
  let drip = connect_with_retry (Server.Unix_path sock) in
  Fun.protect ~finally:(fun () -> Client.close drip) @@ fun () ->
  let fd = Client.fd drip in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let chunk = String.make 65536 'x' in
  (try
     for _ = 1 to 257 do
       write_all fd chunk
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (match (frame_reader drip) () with
  | P.Failed { code = P.Bad_request; message; _ } ->
      Alcotest.(check bool) ("names the cap: " ^ message) true (contains "exceeds" message)
  | _ -> Alcotest.fail "an over-long line got no bad_request frame"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "no answer to an over-long line within 10 s");
  let closed =
    match Unix.read fd (Bytes.create 16) 0 16 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  Alcotest.(check bool) "its connection is closed" true closed;
  let reply =
    must_reply "sample" (Client.sample client ~left:"t1" ~right:"t2" ~r:8 ~strategy:"stream" ())
  in
  Alcotest.(check int) "another client is still served" 8 (List.length reply.Client.rows);
  Alcotest.(check bool) "counted" true
    (contains "rsj_oversized_lines_total 1" (must "metrics" (Client.metrics client)))

(* ---------- the memory ledger ---------- *)

let test_stats_memory_ledger () =
  let pair = make_pair () in
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client pair;
  ignore (must_reply "sample" (Client.sample client ~left:"t1" ~right:"t2" ~r:8 ()));
  let stats = must "stats" (Client.cache_stats client) in
  let memory field =
    match Option.bind (List.assoc_opt "memory" stats) (Json.member field) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "stats carry no memory.%s" field
  in
  (* The daemon's copies own one string per cell; so do these. *)
  let copy rel =
    let fresh = function Value.Str s -> Value.Str (Bytes.to_string (Bytes.of_string s)) | v -> v in
    Relation.of_tuples (Schema.of_list zipf_schema)
      (List.map (fun row -> Array.of_list (List.map fresh row)) (rows_of rel))
  in
  Alcotest.(check int) "relations_bytes: what the registered relations own"
    (Relation.bytes (copy pair.Zipf_tables.outer) + Relation.bytes (copy pair.Zipf_tables.inner))
    (memory "relations_bytes");
  Alcotest.(check int) "cache_bytes is the cache's bytes" (stat_int stats "bytes") (memory "cache_bytes");
  Alcotest.(check bool)
    (Printf.sprintf "heap_bytes %d and top_heap_bytes %d" (memory "heap_bytes")
       (memory "top_heap_bytes"))
    true
    (* Gc.quick_stat samples the heap at the end of a major cycle, and a
       short-lived daemon may not have finished one. *)
    (0 <= memory "heap_bytes" && memory "heap_bytes" <= memory "top_heap_bytes")

(* ---------- configuration: refused when malformed, visible in effect ---------- *)

let test_malformed_knob_stops_daemon () =
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "rsj-bad-knob.sock" in
  let code, _, err = run_rsj ~knobs:[ ("RSJ_CACHE_BYTES", "64M") ] [ "serve"; "--socket"; sock ] in
  Alcotest.(check bool) "rsj serve refused to start" true (code <> None && code <> Some 0);
  Alcotest.(check bool) ("stderr names the knob: " ^ err) true (contains "RSJ_CACHE_BYTES" err)

let test_rsj_config_lists_knobs () =
  let code, out, _ = run_rsj ~knobs:[ ("RSJ_QUALITY_WINDOW", "200") ] [ "config" ] in
  Alcotest.(check (option int)) "rsj config exits 0" (Some 0) code;
  let set = "RSJ_QUALITY_WINDOW" in
  let rows =
    List.filter_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | name :: value :: source :: _ ->
            Some (name, if name = set then value ^ " " ^ source else source)
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check (list (pair string string))) "the retained knobs; only the set one from env"
    (List.map
       (fun name -> (name, if name = set then "200 env" else "default"))
       [
         "RSJ_CACHE_BYTES"; "RSJ_CONF_TRIALS"; "RSJ_DOMAIN"; "RSJ_LOG"; "RSJ_N1"; "RSJ_N2";
         "RSJ_QUALITY_ALPHA"; "RSJ_QUALITY_WINDOW"; "RSJ_REPS"; "RSJ_SCALE"; "RSJ_SEED";
         "RSJ_SERVE_BIAS"; "RSJ_SERVE_DRAIN_LINGER_MS"; "RSJ_SLOW_MS"; "RSJ_TRACE";
       ])
    (List.sort compare rows)

let test_stats_reports_config () =
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  let stats = must "stats" (Client.cache_stats client) in
  let module C = Rsj_obs.Config in
  let alpha = List.find (fun (e : C.entry) -> e.name = "RSJ_QUALITY_ALPHA") (C.effective ()) in
  let source = C.source_to_string alpha.source in
  let expected = Json.Obj [ ("value", Json.Str alpha.value); ("source", Json.Str source) ] in
  Alcotest.(check (option Test_obs.json)) "config.RSJ_QUALITY_ALPHA" (Some expected)
    (Option.bind (List.assoc_opt "config" stats) (Json.member "RSJ_QUALITY_ALPHA"))

(* ---------- the write path leaves no major-heap garbage ---------- *)

let major_words client =
  let text = must "metrics" (Client.metrics client) in
  match
    List.find_opt
      (String.starts_with ~prefix:"rsj_gc_major_words ")
      (String.split_on_char '\n' text)
  with
  | Some line -> float_of_string (List.nth (String.split_on_char ' ' line) 1)
  | None -> Alcotest.fail "rsj_gc_major_words missing from /metrics"

(* A warm Stream answer is a few kilobytes. Encoded as a fresh string
   per frame, those bytes went to the major heap on every request
   (~3,400 words each); frames now go through the connection's reused
   output buffer, so 500 warm requests on one connection must grow the
   daemon's major heap by under 1,000 words each. A warm 1000-row
   chain query grew it by 20,038 words when its rows went through
   lists and a JSON tree, and by 16,621 written straight from a whole
   answer's tuples, whose 1000-slot array lives in the major heap and
   so promotes every tuple stored in it. Built a frame (256 rows) at a
   time from the draw's positions, the tuples die young: about 5,200
   words, most of them the draw's own position arrays. The bound sits
   between. *)
let test_write_path_major_heap () =
  with_server @@ fun ~sock:_ ~snapshot:_ client ->
  register_pair client (make_pair ());
  let sample () =
    ignore
      (must_reply "stream sample"
         (Client.sample client ~left:"t1" ~right:"t2" ~r:64 ~strategy:"stream" ~seed:9 ()))
  in
  for _ = 1 to 50 do
    sample ()
  done;
  let before = major_words client in
  let n = 500 in
  for _ = 1 to n do
    sample ()
  done;
  let per_request = (major_words client -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major-heap words per warm request (< 1000)" per_request)
    true (per_request < 1000.);
  (* A warm 1000-row, 9-column chain query: each frame's tuples are
     built from the draw's positions and written straight out, so no
     tuple, per-cell list or JSON tree lives long enough to be
     promoted. *)
  ignore
    (must "register t3"
       (register_rows client ~name:"t3" ~schema:zipf_schema
          ~rows:(rows_of (make_pair ()).Zipf_tables.inner)));
  let sql = "select * from t1, t2, t3 where t1.col2 = t2.col2 and t2.col2 = t3.col2 sample 1000" in
  let query () =
    let reply = must_reply "chain query" (Client.query client ~sql ~seed:9 ()) in
    Alcotest.(check int) "1000 rows" 1000 (List.length reply.Client.rows)
  in
  for _ = 1 to 10 do
    query ()
  done;
  let before = major_words client in
  let n = 100 in
  for _ = 1 to n do
    query ()
  done;
  let per_query = (major_words client -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major-heap words per warm chain query (< 8000)" per_query)
    true (per_query < 8000.)

let suite =
  [
    Alcotest.test_case "a malformed knob stops rsj serve" `Quick
      test_malformed_knob_stops_daemon;
    Alcotest.test_case "rsj config lists every knob and its source" `Quick
      test_rsj_config_lists_knobs;
    Alcotest.test_case "stats RPC carries the knobs in effect" `Quick test_stats_reports_config;
    Alcotest.test_case "served samples byte-identical (8 strategies × 2 planes)" `Slow
      test_served_identical;
    Alcotest.test_case "chi-square cell through the served path" `Slow test_served_chi_square;
    Alcotest.test_case "served bag-join WoR (8 strategies)" `Quick test_served_bag_join_wor;
    Alcotest.test_case "SQL and SAMPLE p% over the wire" `Quick test_query_over_wire;
    Alcotest.test_case "typed errors and explicit invalidation" `Quick
      test_typed_errors_and_invalidate;
    Alcotest.test_case "a file-registered relation keeps its registered name" `Quick
      test_register_path_keeps_its_name;
    Alcotest.test_case "any other exception fails typed; the daemon keeps serving" `Quick
      test_internal_error_keeps_serving;
    Alcotest.test_case "queued past the deadline fails typed" `Quick test_deadline_exceeded;
    Alcotest.test_case "admission control sheds load" `Quick test_admission_overloaded;
    Alcotest.test_case "a sample over the whole budget is refused" `Quick
      test_admission_refuses_oversized;
    Alcotest.test_case "SQL SAMPLE n is charged n at admission" `Quick
      test_admission_charges_sql_sample;
    Alcotest.test_case "sample request and SQL SAMPLE: same rows, one quality stream" `Quick
      test_cross_door_same_rows_one_stream;
    Alcotest.test_case "a join on another column is a quality stream of its own" `Quick
      test_other_join_column_own_stream;
    Alcotest.test_case "SIGTERM: unlink, snapshot, restartable" `Quick
      test_sigterm_shutdown_restart;
    Alcotest.test_case "RSJ_CACHE_BYTES bounds the daemon cache" `Quick
      test_served_eviction_budget;
    Alcotest.test_case "GET /metrics on the service socket" `Quick test_http_metrics;
    Alcotest.test_case "rid round-trips; bad deadlines rejected at decode" `Quick
      test_protocol_rid_and_deadline;
    Alcotest.test_case "GET /healthz answers 200 while serving" `Quick test_healthz_serving;
    Alcotest.test_case "GET /healthz answers 503 during the drain" `Quick
      test_healthz_draining;
    Alcotest.test_case "one request id across response, trace and log" `Quick
      test_request_id_end_to_end;
    Alcotest.test_case "warm requests leave no major-heap garbage" `Quick
      test_write_path_major_heap;
    Alcotest.test_case "a bare SAMPLE is served as the engine answers it" `Quick
      test_bare_sample_is_engine_answer;
    Alcotest.test_case "an over-long line closes only its connection" `Quick
      test_oversized_line_closes_its_connection;
    Alcotest.test_case "stats RPC carries the memory ledger" `Quick test_stats_memory_ledger;
    Alcotest.test_case "SQL SAMPLE logs the sampler that ran" `Quick
      test_sql_sample_logs_its_sampler;
  ]
