open Rsj_relation
module Json = Rsj_obs.Json
module Registry = Rsj_obs.Registry
module Clock = Rsj_obs.Clock
module Config = Rsj_obs.Config
module Strategy = Rsj_core.Strategy
module Cache = Rsj_cache.Structure_cache
module Sampler = Rsj_sql.Sampler
module Picker = Rsj_optimizer.Picker
module P = Protocol

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  match String.split_on_char ':' s with
  | [ "tcp"; host; port ] -> (
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad TCP port in %S" s))
  | "tcp" :: _ -> Error (Printf.sprintf "bad TCP address %S (want tcp:HOST:PORT)" s)
  | [ "unix"; path ] -> Ok (Unix_path path)
  | _ -> Ok (Unix_path s)

type config = {
  addr : addr;
  max_queued_work : int;
  frame_rows : int;
  snapshot_path : string option;
  drain_linger_ms : float;
  slow_ms : float;
  log_path : string option;
}

let default_config addr =
  {
    addr;
    max_queued_work = 1_000_000;
    frame_rows = 256;
    snapshot_path = None;
    drain_linger_ms = Config.drain_linger_ms ();
    slow_ms = Config.slow_ms ();
    log_path = Config.log_path ();
  }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let m_requests op =
  Registry.counter ~help:"Requests received by the sampling service" ~labels:[ ("op", op) ]
    "rsj_serve_requests_total"

let m_errors code =
  Registry.counter ~help:"Request failures by typed error code"
    ~labels:[ ("code", P.error_code_to_string code) ]
    "rsj_serve_errors_total"

let m_connections =
  lazy (Registry.counter ~help:"Connections accepted" "rsj_serve_connections_total")

let m_request_seconds =
  lazy (Registry.histogram ~help:"Request execution latency" "rsj_serve_request_seconds")

(* Per-request latency broken out by operation kind, strategy actually
   run, and whether the warm cache served the request's structures.
   Label values are small closed sets (ops × 8 strategies × hit/miss/
   none), so the family stays scrapeable. *)
let m_request_kind ~kind ~strategy ~cache =
  Registry.histogram ~help:"Request execution latency by kind/strategy/cache outcome"
    ~labels:[ ("kind", kind); ("strategy", strategy); ("cache", cache) ]
    "rsj_request_seconds"

let m_queue_wait_seconds =
  lazy
    (Registry.histogram ~help:"Time a request waited in the FIFO before it ran"
       "rsj_serve_queue_wait_seconds")

let m_slow_requests =
  lazy
    (Registry.counter ~help:"Requests slower than the RSJ_SLOW_MS exemplar threshold"
       "rsj_serve_slow_requests_total")

let m_queue_depth = lazy (Registry.gauge ~help:"Requests waiting in the FIFO" "rsj_serve_queue_depth")

let m_queued_work =
  lazy (Registry.gauge ~help:"Sample tuples requested by waiting requests" "rsj_serve_queued_work")

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type mode = M_unknown | M_json | M_http

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : string Queue.t;  (** Encoded frames (newline included) not yet fully written. *)
  mutable out_ofs : int;  (** Bytes of [Queue.peek out] already written. *)
  mutable mode : mode;
  mutable eof : bool;  (** Peer stopped sending; flush then close. *)
  mutable dead : bool;  (** Socket error; discard without flushing. *)
  mutable queued : int;  (** Requests from this connection still in the FIFO. *)
}

type pending = { p_conn : conn; p_req : P.request; p_enqueued_s : float; p_work : int }

(* Scratch the executors fill in so the request plane (run_pending) can
   label the latency histogram and the log line without re-deriving the
   decision. Reset per request. *)
type note = {
  mutable n_strategy : string;
  mutable n_reason : string;
  mutable n_sql : string option;
}

type state = {
  config : config;
  catalog : (string, Relation.t) Hashtbl.t;
  cache : Cache.t;
  queue : pending Queue.t;
  mutable queued_work : int;
  mutable stopping : bool;
  quality : Rsj_verify.Online.t;
  biased : bool;  (* RSJ_SERVE_BIAS: serve deliberately biased WR draws *)
  bias_universes : (int * int, Tuple.t array) Hashtbl.t;
  note : note;
  mutable rid_serial : int;
}

exception Reject of P.error_code * string

let rejectf code fmt = Printf.ksprintf (fun s -> raise (Reject (code, s))) fmt

let lookup st name =
  match Hashtbl.find_opt st.catalog name with
  | Some rel -> rel
  | None -> rejectf P.Unknown_relation "no relation %S registered (use the register op)" name

(* ------------------------------------------------------------------ *)
(* Request execution (runs on the loop thread, FIFO)                   *)

let frame_rows_of lst n =
  (* Split [lst] into chunks of [n]. *)
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 tl else go acc (x :: cur) (k + 1) tl
  in
  go [] [] 0 lst

let stream_rows ~id ~frame_rows rows done_detail =
  let frames =
    List.map (fun chunk -> P.Rows { id; rows = chunk }) (frame_rows_of rows frame_rows)
  in
  frames @ [ P.Done { id; detail = done_detail } ]

let exec_register st ~id ~name ~source =
  let rel =
    match source with
    | P.From_path path ->
        if not (Sys.file_exists path) then rejectf P.Bad_request "no such file %S" path;
        (try Rsj_relation.Csv_io.load ~path Rsj_workload.Zipf_tables.schema
         with Failure msg -> rejectf P.Bad_request "cannot load %S: %s" path msg)
    | P.Inline (cols, rows) -> (
        if cols = [] then rejectf P.Bad_request "inline register needs a non-empty schema";
        try Relation.of_rows ~name (Schema.of_list cols) rows
        with Invalid_argument msg -> rejectf P.Bad_request "bad inline rows: %s" msg)
  in
  (match Hashtbl.find_opt st.catalog name with
  | Some old -> Cache.invalidate st.cache old
  | None -> ());
  Hashtbl.replace st.catalog name rel;
  [
    P.Ack
      {
        id;
        detail =
          [ ("name", Json.Str name); ("rows", Json.Int (Relation.cardinality rel)) ];
      };
  ]

(* RSJ_SERVE_BIAS: replace the strategy's output with the negative
   control's deliberately biased WR draws (Negative.biased_wr_draw) —
   the daemon keeps claiming success while serving a wrong law. Exists
   so the quality monitor's true-positive cell exercises the real
   served path end to end. *)
let biased_sample st ~l ~rt ~left_key ~right_key ~seed ~r =
  let fp = (Relation.fingerprint l, Relation.fingerprint rt) in
  let universe =
    match Hashtbl.find_opt st.bias_universes fp with
    | Some u -> u
    | None ->
        let u =
          Array.copy
            (Rsj_verify.Oracle.universe
               (Rsj_verify.Oracle.of_relations ~left:l ~right:rt ~left_key ~right_key))
        in
        (* Sort by join value so the draw's positional 4:1 tilt (first
           half of the array) lands on whole value groups: the bias the
           monitor watches for is in the join-value marginal, and an
           enumeration-ordered universe would split each value's
           tuples evenly across both halves and hide it. *)
        Array.sort (fun a b -> Value.compare a.(left_key) b.(left_key)) u;
        Hashtbl.replace st.bias_universes fp u;
        u
  in
  if Array.length universe = 0 then [||]
  else Rsj_core.Negative.biased_wr_draw (Rsj_util.Prng.create ~seed ()) ~universe ~r

let exec_sample st ~id ~left ~right ~r ~strategy ~seed ~wor ~domains ~on =
  if r < 0 then rejectf P.Bad_request "r must be non-negative, got %d" r;
  if domains < 1 then rejectf P.Bad_request "domains must be at least 1, got %d" domains;
  let l = lookup st left and rt = lookup st right in
  let key_of rel =
    match Schema.column_index_opt (Relation.schema rel) on with
    | Some i -> i
    | None -> rejectf P.Bad_request "relation %S has no column %S" (Relation.name rel) on
  in
  let left_key = key_of l and right_key = key_of rt in
  let strategy_of name =
    Result.fold ~ok:Fun.id ~error:(rejectf P.Unknown_strategy "%s") (Sampler.strategy_of_name name)
  in
  let request =
    Sampler.prepare ~cache:st.cache ~wor ~seed [| l; rt |]
      ~join_keys:[| (left_key, right_key) |] ~size:(Rsj_sql.Ast.Abs r)
      (Option.map strategy_of strategy)
  in
  let reason =
    Option.map
      (fun (d : Picker.decision) -> Picker.reason_to_string d.reason)
      (Sampler.decision request)
  in
  st.note.n_strategy <- Sampler.name request;
  st.note.n_reason <- Option.value reason ~default:"explicit";
  let drawn =
    try Sampler.draw ~domains request
    with Strategy.Wor_shortfall _ as e -> rejectf P.Engine_error "%s" (Printexc.to_string e)
  in
  let sample =
    if st.biased then biased_sample st ~l ~rt ~left_key ~right_key ~seed ~r
    else drawn.Sampler.sample
  in
  (* The monitor watches what actually leaves the daemon, biased or not. *)
  Sampler.observe st.quality request sample;
  let rows = Array.to_list (Array.map Array.to_list sample) in
  let detail =
    [
      ("strategy", Json.Str (Sampler.name request));
      ("tuples", Json.Int (Array.length sample));
      ("join_size", Json.Int (int_of_float (Sampler.join_size request)));
      ("elapsed_s", Json.Float drawn.Sampler.elapsed_seconds);
    ]
    @ match reason with Some r -> [ ("picker_reason", Json.Str r) ] | None -> []
  in
  stream_rows ~id ~frame_rows:st.config.frame_rows rows detail

let exec_query st ~id ~sql ~seed =
  st.note.n_sql <- Some sql;
  let catalog = Hashtbl.fold (fun name rel acc -> (name, rel) :: acc) st.catalog [] in
  match Rsj_sql.Engine.run ~seed ~monitor:st.quality catalog sql with
  | Error msg -> rejectf P.Engine_error "%s" msg
  | Ok result ->
      let open Rsj_sql in
      (match result.Engine.decision with
      | Some d ->
          st.note.n_strategy <- Strategy.name d.Picker.chosen;
          st.note.n_reason <- Picker.reason_to_string d.Picker.reason
      | None -> ());
      let rows = List.map Array.to_list result.Engine.rows in
      let columns =
        Array.to_list (Schema.columns result.Engine.schema)
        |> List.map (fun (c : Schema.column) -> Json.Str c.name)
      in
      let detail =
        [
          ("columns", Json.List columns);
          ("tuples", Json.Int (List.length rows));
          ("work", Json.Int (Rsj_exec.Metrics.total_work result.Engine.metrics));
          ("explained", Json.Bool result.Engine.explained);
        ]
        @ (if result.Engine.explained then
             [ ("plan", Json.Str (Format.asprintf "%a" Rsj_exec.Plan.explain result.Engine.plan)) ]
           else [])
        @
        match result.Engine.decision with
        | Some d ->
            [ ("picked", Json.Str (Strategy.name d.Picker.chosen)) ]
        | None -> []
      in
      stream_rows ~id ~frame_rows:st.config.frame_rows rows detail

let exec_stats st ~id =
  let s = Cache.stats st.cache in
  [
    P.Ack
      {
        id;
        detail =
          [
            ("hits", Json.Int s.Cache.hits);
            ("misses", Json.Int s.Cache.misses);
            ("evictions", Json.Int s.Cache.evictions);
            ("invalidations", Json.Int s.Cache.invalidations);
            ("entries", Json.Int s.Cache.entries);
            ("bytes", Json.Int s.Cache.bytes);
            ( "max_bytes",
              match Cache.max_bytes st.cache with Some b -> Json.Int b | None -> Json.Null );
            (* Per-kind hit/miss split, so clients can see which
               structures (chain walkers with their alias tables,
               indexes, statistics) the warm cache is actually
               serving. *)
            ( "by_kind",
              Json.Obj
                (List.map
                   (fun (kind, (h, m)) ->
                     (kind, Json.Obj [ ("hits", Json.Int h); ("misses", Json.Int m) ]))
                   s.Cache.by_kind) );
            (* The online quality monitor's verdicts: one entry per
               served (fingerprint-pair, strategy, semantics) stream,
               plus the latched aggregate alert. *)
            ("quality_alert", Json.Bool (Rsj_verify.Online.any_alert st.quality));
            ( "quality",
              Json.List
                (List.map
                   (fun (q : Rsj_verify.Online.stream_stats) ->
                     Json.Obj
                       [
                         ("stream", Json.Str q.Rsj_verify.Online.st_key);
                         ("seen", Json.Int q.st_seen);
                         ("foreign", Json.Int q.st_foreign);
                         ("windows", Json.Int q.st_windows);
                         ( "last_p",
                           if Float.is_nan q.st_last_p then Json.Null
                           else Json.Float q.st_last_p );
                         ("alert", Json.Bool q.st_alert);
                       ])
                   (Rsj_verify.Online.stats st.quality)) );
            (* Every RSJ_* knob in effect, as `rsj config` prints it. *)
            ( "config",
              Json.Obj
                (List.map
                   (fun (e : Config.entry) ->
                     let source = Json.Str (Config.source_to_string e.source) in
                     (e.name, Json.Obj [ ("value", Json.Str e.value); ("source", source) ]))
                   (Config.effective ())) );
          ];
      };
  ]

let execute st (req : P.request) =
  match req with
  | P.Ping { id } -> [ P.Ack { id; detail = [ ("pong", Json.Bool true) ] } ]
  | P.Register { id; name; source } -> exec_register st ~id ~name ~source
  | P.Sample { id; left; right; r; strategy; seed; wor; domains; on; deadline_ms = _; rid = _ }
    ->
      exec_sample st ~id ~left ~right ~r ~strategy ~seed ~wor ~domains ~on
  | P.Query { id; sql; seed; deadline_ms = _; rid = _ } -> exec_query st ~id ~sql ~seed
  | P.Invalidate { id; name } ->
      Cache.invalidate st.cache (lookup st name);
      [ P.Ack { id; detail = [ ("name", Json.Str name) ] } ]
  | P.Metrics { id } ->
      Rsj_obs.Runtime.publish_gc ();
      [ P.Ack { id; detail = [ ("prometheus", Json.Str (Registry.to_prometheus ())) ] } ]
  | P.Stats { id } -> exec_stats st ~id
  | P.Shutdown { id } ->
      st.stopping <- true;
      [ P.Ack { id; detail = [ ("stopping", Json.Bool true) ] } ]

(* ------------------------------------------------------------------ *)
(* Wire plumbing                                                       *)

let send_frame conn resp = Queue.add (P.encode_response resp ^ "\n") conn.out

let send_raw conn s = Queue.add s conn.out

let try_flush conn =
  (* Write as much queued output as the socket accepts right now. *)
  let again = ref true in
  while !again && not (Queue.is_empty conn.out) && not conn.dead do
    let head = Queue.peek conn.out in
    let len = String.length head - conn.out_ofs in
    match Unix.write_substring conn.fd head conn.out_ofs len with
    | n ->
        if n = len then begin
          ignore (Queue.pop conn.out);
          conn.out_ofs <- 0
        end
        else begin
          conn.out_ofs <- conn.out_ofs + n;
          again := false
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        again := false
    | exception Unix.Unix_error (_, _, _) ->
        conn.dead <- true
  done

(* Pull complete lines off the connection's input buffer, leaving any
   trailing fragment in place. *)
let take_lines conn =
  let s = Buffer.contents conn.inbuf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear conn.inbuf;
      Buffer.add_string conn.inbuf (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)
      |> List.map (fun line ->
             let n = String.length line in
             if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)
      |> List.filter (fun line -> line <> "")

let http_response ~status ~body =
  Printf.sprintf "HTTP/1.1 %s\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

(* One HTTP request per connection ("Connection: close"): answer
   GET /metrics with the Prometheus registry, GET /healthz with the
   load-balancer view of the drain state, 404 anything else. *)
let handle_http st conn =
  let s = Buffer.contents conn.inbuf in
  let complete =
    (* Headers end at a blank line; we never read a body. *)
    let rec find i =
      if i + 1 >= String.length s then false
      else if s.[i] = '\n' && (s.[i + 1] = '\n' || (s.[i + 1] = '\r' && i + 2 < String.length s && s.[i + 2] = '\n')) then true
      else find (i + 1)
    in
    find 0
  in
  if complete then begin
    let first_line =
      match String.index_opt s '\n' with
      | Some i ->
          let l = String.sub s 0 i in
          if l <> "" && l.[String.length l - 1] = '\r' then String.sub l 0 (String.length l - 1) else l
      | None -> s
    in
    let response =
      match String.split_on_char ' ' first_line with
      | "GET" :: path :: _ when path = "/metrics" || path = "/metrics/" ->
          Rsj_obs.Runtime.publish_gc ();
          http_response ~status:"200 OK" ~body:(Registry.to_prometheus ())
      | "GET" :: path :: _ when path = "/healthz" || path = "/healthz/" ->
          (* 503 the moment drain starts, so load balancers rotate the
             replica before the listener disappears. *)
          if st.stopping then http_response ~status:"503 Service Unavailable" ~body:"draining\n"
          else http_response ~status:"200 OK" ~body:"ok\n"
      | _ ->
          http_response ~status:"404 Not Found" ~body:"only GET /metrics and /healthz are served\n"
    in
    Buffer.clear conn.inbuf;
    send_raw conn response;
    conn.eof <- true (* flush, then close *)
  end

(* ------------------------------------------------------------------ *)
(* Admission and the FIFO                                              *)

let work_of (req : P.request) =
  match req with
  | P.Sample { r; _ } -> max r 1
  | P.Query _ -> 64 (* flat charge: the engine resolves its own r *)
  | _ -> 0

let publish_queue_gauges st =
  Registry.set_gauge (Lazy.force m_queue_depth) (float_of_int (Queue.length st.queue));
  Registry.set_gauge (Lazy.force m_queued_work) (float_of_int st.queued_work)

let fail_request conn ~id code message =
  Registry.incr (m_errors code);
  send_frame conn (P.Failed { id; code; message })

let admit st conn (req : P.request) =
  Registry.incr (m_requests (P.request_op req));
  let id = P.request_id req in
  if st.stopping then fail_request conn ~id P.Shutting_down "server is draining"
  else begin
    let w = work_of req and budget = st.config.max_queued_work in
    (* A request larger than the whole budget is refused even on an
       empty queue, before its draw allocates r-sized reservoirs. *)
    if w > budget then
      fail_request conn ~id P.Overloaded
        (Printf.sprintf "sample work %d exceeds the whole budget %d" w budget)
    else if w > 0 && (not (Queue.is_empty st.queue)) && st.queued_work + w > budget then
      fail_request conn ~id P.Overloaded
        (Printf.sprintf "queued sample work %d + %d exceeds budget %d" st.queued_work w budget)
    else begin
      conn.queued <- conn.queued + 1;
      st.queued_work <- st.queued_work + w;
      Queue.add { p_conn = conn; p_req = req; p_enqueued_s = Clock.now_s (); p_work = w } st.queue;
      publish_queue_gauges st
    end
  end

let deadline_of (req : P.request) =
  match req with
  | P.Sample { deadline_ms; _ } | P.Query { deadline_ms; _ } -> deadline_ms
  | _ -> None

(* Mint a server-side request id: unique per process, cheap, and
   greppable ("req-<pid>-<serial>"). A client-supplied rid wins, so
   callers can stitch daemon telemetry into their own traces. *)
let mint_rid st req =
  match P.request_rid req with
  | Some rid -> rid
  | None ->
      st.rid_serial <- st.rid_serial + 1;
      Printf.sprintf "req-%d-%d" (Unix.getpid ()) st.rid_serial

(* Echo the request id in terminal ok/done frames so the wire response
   carries the same id as the spans and the log line. *)
let tag_frames rid frames =
  List.map
    (function
      | P.Done { id; detail } ->
          P.Done { id; detail = detail @ [ ("request_id", Json.Str rid) ] }
      | P.Ack { id; detail } -> P.Ack { id; detail = detail @ [ ("request_id", Json.Str rid) ] }
      | f -> f)
    frames

let run_pending st =
  while not (Queue.is_empty st.queue) do
    let { p_conn = conn; p_req = req; p_enqueued_s; p_work } = Queue.pop st.queue in
    st.queued_work <- st.queued_work - p_work;
    conn.queued <- conn.queued - 1;
    publish_queue_gauges st;
    if not conn.dead then begin
      let id = P.request_id req in
      let op = P.request_op req in
      let rid = mint_rid st req in
      let queued_s = Clock.now_s () -. p_enqueued_s in
      Registry.observe (Lazy.force m_queue_wait_seconds) queued_s;
      let late =
        match deadline_of req with
        | Some budget_ms -> queued_s *. 1000. > budget_ms
        | None -> false
      in
      st.note.n_strategy <- "none";
      st.note.n_reason <- "none";
      st.note.n_sql <- None;
      Rsj_obs.Context.with_request rid (fun () ->
          if late then begin
            fail_request conn ~id P.Deadline_exceeded
              (Printf.sprintf "request waited past its %.0fms deadline"
                 (Option.get (deadline_of req)));
            Rsj_obs.Reqlog.write
              [
                ("op", Json.Str op);
                ("client_id", Json.Int id);
                ("status", Json.Str "deadline_exceeded");
                ("deadline", Json.Str "late");
                ("queued_s", Json.Float queued_s);
              ]
          end
          else begin
            let t0 = Clock.now_s () in
            let alloc0 = Rsj_obs.Runtime.allocated_words () in
            let cache0 = Cache.stats st.cache in
            let status = ref "ok" in
            Rsj_obs.Trace.with_span ~cat:"serve"
              ~args:[ ("op", Json.Str op); ("client_id", Json.Int id) ]
              "request"
              (fun () ->
                (* The request boundary: whatever a request raises fails
                   that request alone, typed, and the loop keeps serving. *)
                match execute st req with
                | frames -> List.iter (send_frame conn) (tag_frames rid frames)
                | exception Reject (code, msg) ->
                    status := P.error_code_to_string code;
                    fail_request conn ~id code msg
                | exception (Failure msg | Invalid_argument msg) ->
                    status := "engine_error";
                    fail_request conn ~id P.Engine_error msg
                | exception e ->
                    status := "internal_error";
                    fail_request conn ~id P.Internal_error (Printexc.to_string e));
            let dt = Clock.now_s () -. t0 in
            let alloc = Rsj_obs.Runtime.allocated_words () -. alloc0 in
            let cache1 = Cache.stats st.cache in
            let cache_label =
              if cache1.Cache.misses > cache0.Cache.misses then "miss"
              else if cache1.Cache.hits > cache0.Cache.hits then "hit"
              else "none"
            in
            Registry.observe (Lazy.force m_request_seconds) dt;
            Registry.observe
              (m_request_kind ~kind:op ~strategy:st.note.n_strategy ~cache:cache_label)
              dt;
            if dt *. 1000. > st.config.slow_ms then begin
              Registry.incr (Lazy.force m_slow_requests);
              (* Exemplar: the slow request's id and shape, as a trace
                 instant — jump from the histogram tail to the exact
                 request in the trace. *)
              Rsj_obs.Trace.instant ~cat:"serve"
                ~args:
                  [
                    ("op", Json.Str op);
                    ("strategy", Json.Str st.note.n_strategy);
                    ("latency_s", Json.Float dt);
                  ]
                "request.slow"
            end;
            Rsj_obs.Reqlog.write
              ([ ("op", Json.Str op); ("client_id", Json.Int id) ]
              @ (match st.note.n_sql with Some q -> [ ("sql", Json.Str q) ] | None -> [])
              @ [
                  ("strategy", Json.Str st.note.n_strategy);
                  ("picker_reason", Json.Str st.note.n_reason);
                  ("cache", Json.Str cache_label);
                  ( "deadline",
                    Json.Str (match deadline_of req with Some _ -> "met" | None -> "none") );
                  ("status", Json.Str !status);
                  ("queued_s", Json.Float queued_s);
                  ("latency_s", Json.Float dt);
                  ("alloc_words", Json.Float alloc);
                ])
          end);
      try_flush conn
    end
  done

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)

let bind_listener addr =
  match addr with
  | Unix_path path ->
      if String.length path >= 100 then
        failwith
          (Printf.sprintf "socket path %S too long for a Unix socket (limit ~107 bytes)" path);
      (* A crashed daemon leaves its socket file behind; a live one is
         protected only by convention, like most Unix-socket servers. *)
      (try if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
       with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (e, _, _) ->
         Unix.close fd;
         failwith (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)));
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try Unix.bind fd (Unix.ADDR_INET (inet, port))
       with Unix.Unix_error (e, _, _) ->
         Unix.close fd;
         failwith (Printf.sprintf "cannot bind port %d: %s" port (Unix.error_message e)));
      Unix.listen fd 64;
      fd

let close_listener addr fd =
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  match addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

let stop_requested = Atomic.make false

let install_signal_handlers () =
  let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  (try Sys.set_signal Sys.sigterm request_stop with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint request_stop with Invalid_argument _ -> ());
  (* A client vanishing mid-write must not kill the daemon. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let write_snapshot config =
  let text = Registry.to_prometheus () in
  match config.snapshot_path with
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc
  | None ->
      prerr_string "# final metrics snapshot\n";
      prerr_string text

let handle_input st conn =
  (match conn.mode with
  | M_unknown ->
      let s = Buffer.contents conn.inbuf in
      if String.length s >= 4 then
        conn.mode <- (if String.sub s 0 4 = "GET " then M_http else M_json)
      else if String.length s > 0 && s.[0] <> 'G' then conn.mode <- M_json
  | M_json | M_http -> ());
  match conn.mode with
  | M_http -> handle_http st conn
  | M_json ->
      List.iter
        (fun line ->
          match P.decode_request line with
          | Ok req -> admit st conn req
          | Error msg ->
              Registry.incr (m_errors P.Bad_request);
              send_frame conn (P.Failed { id = -1; code = P.Bad_request; message = msg }))
        (take_lines conn)
  | M_unknown -> ()

let run config =
  Atomic.set stop_requested false;
  install_signal_handlers ();
  let listener = bind_listener config.addr in
  Unix.set_nonblock listener;
  Rsj_obs.Reqlog.set_path config.log_path;
  let st =
    {
      config;
      catalog = Hashtbl.create 16;
      cache = Cache.shared ();
      queue = Queue.create ();
      queued_work = 0;
      stopping = false;
      quality = Rsj_verify.Online.create ();
      biased = Config.serve_bias ();
      bias_universes = Hashtbl.create 8;
      note = { n_strategy = "none"; n_reason = "none"; n_sql = None };
      rid_serial = 0;
    }
  in
  let conns = ref [] in
  let listening = ref true in
  let buf = Bytes.create 65536 in
  let close_conn conn =
    (try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ());
    conns := List.filter (fun c -> c != conn) !conns
  in
  let accept_all () =
    let again = ref true in
    while !again do
      match Unix.accept listener with
      | fd, _ ->
          Unix.set_nonblock fd;
          Registry.incr (Lazy.force m_connections);
          conns :=
            {
              fd;
              inbuf = Buffer.create 256;
              out = Queue.create ();
              out_ofs = 0;
              mode = M_unknown;
              eof = false;
              dead = false;
              queued = 0;
            }
            :: !conns
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          again := false
      | exception Unix.Unix_error (_, _, _) -> again := false
    done
  in
  let read_conn conn =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> conn.eof <- true
    | n -> Buffer.add_subbytes conn.inbuf buf 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> conn.dead <- true
  in
  let finished = ref false in
  (* Drain linger: once stopping, keep the loop alive until this
     deadline so pre-existing connections can still observe the 503
     /healthz state (how a load balancer learns to rotate). Zero by
     default — drains exit as soon as the queue empties. *)
  let drain_deadline = ref None in
  while not !finished do
    if Atomic.get stop_requested then st.stopping <- true;
    (* Shutdown: release the address first so a replacement can bind,
       then drain below. *)
    if st.stopping && !listening then begin
      close_listener config.addr listener;
      listening := false
    end;
    if st.stopping && !drain_deadline = None then
      drain_deadline := Some (Clock.now_s () +. (config.drain_linger_ms /. 1000.));
    let reads =
      (if !listening then [ listener ] else [])
      @ List.filter_map
          (fun c -> if c.dead || c.eof then None else Some c.fd)
          !conns
    in
    let writes =
      List.filter_map (fun c -> if not c.dead && not (Queue.is_empty c.out) then Some c.fd else None) !conns
    in
    (match Unix.select reads writes [] 0.2 with
    | readable, writable, _ ->
        if !listening && List.mem listener readable then accept_all ();
        List.iter
          (fun c ->
            if List.mem c.fd readable then begin
              read_conn c;
              if not c.dead then handle_input st c
            end;
            if List.mem c.fd writable then try_flush c)
          !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    run_pending st;
    List.iter (fun c -> if not c.dead then try_flush c) !conns;
    (* Reap: errored connections immediately; EOF'd ones once their
       queued requests have answered and the output drained. *)
    List.iter
      (fun c ->
        if c.dead || (c.eof && c.queued = 0 && Queue.is_empty c.out) then close_conn c)
      (List.filter (fun c -> c.dead || c.eof) !conns);
    let linger_over =
      match !drain_deadline with Some d -> Clock.now_s () >= d | None -> true
    in
    if st.stopping && Queue.is_empty st.queue && linger_over then begin
      (* Drained. Give every connection one last flush, then leave. *)
      List.iter
        (fun c ->
          if not c.dead then try_flush c;
          close_conn c)
        !conns;
      finished := true
    end
  done;
  if !listening then close_listener config.addr listener;
  Rsj_obs.Runtime.publish_gc ();
  (* The daemon's spans go to the RSJ_TRACE destination at exit —
     the serve-path analogue of with_tracing in bin/rsj.ml. *)
  (if Rsj_obs.enabled () then
     match Config.trace () with
     | Some path -> Rsj_obs.Trace.write_file path
     | None -> ());
  Rsj_obs.Reqlog.close ();
  write_snapshot config
