(* The replay: the served request sequence re-run in-process, call for
   call as the daemon runs it (protocol decode, cache env, picker,
   Rsj_parallel at d=1, quality monitor, frame encode) plus the
   client's frame decode. Every answer's digest must equal the served
   one. When traced, a span wraps each call into a layer's public
   function, and the per-layer metrics are read off the spans. *)

open Rsj_relation
open Perfbench_helpers
module P = Rsj_server.Protocol
module Cache = Rsj_cache.Structure_cache
module Strategy = Rsj_core.Strategy
module Metrics = Rsj_exec.Metrics
module Online = Rsj_verify.Online
module Json = Rsj_obs.Json
module Clock = Rsj_obs.Clock
module Z = Rsj_workload.Zipf_tables

type t = {
  env : Served.env;
  spans : Spans.t;
  catalog : (string, Relation.t) Hashtbl.t;
  cache : Cache.t;
  quality : Online.t;
  laws : (int * int, Online.law option) Hashtbl.t;
  builds : (string * string list) list;  (* request kind -> cache kinds to build cold *)
  built : (int * string, unit) Hashtbl.t;  (* (relation uid, cache kind) already built *)
  mutable metrics : Metrics.t;  (* summed over timed ops *)
  mutable timed : bool;
  mutable response_bytes : int;
  mutable answers : int;
  mutable chain_materialize_us : float list;
}

let span t name f = Spans.record t.spans name f

let ok_or_fail what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

let short_name = function
  | Strategy.Naive -> "naive"
  | Strategy.Olken -> "olken"
  | Strategy.Stream -> "stream"
  | Strategy.Group -> "group"
  | Strategy.Frequency_partition -> "fps"
  | Strategy.Index_sample -> "index"
  | Strategy.Count_sample -> "count"
  | Strategy.Hybrid_count -> "hybrid"

(* The daemon's framing: 256-row [rows] frames, then [done]. *)
let frame_rows = 256

let frames ~id rows detail =
  let rec go acc chunk k = function
    | [] -> List.rev (if chunk = [] then acc else P.Rows { id; rows = List.rev chunk } :: acc)
    | row :: rest when k = frame_rows -> go (P.Rows { id; rows = List.rev chunk } :: acc) [ row ] 1 rest
    | row :: rest -> go acc (row :: chunk) (k + 1) rest
  in
  go [] [] 0 rows @ [ P.Done { id; detail = detail @ [ ("request_id", Json.Str "req-0-0") ] } ]

(* Encode the answer as the daemon writes it, decode it as the client
   reads it. *)
let wire t responses =
  let lines =
    span t "protocol.encode" (fun () -> List.map (fun f -> P.encode_response f ^ "\n") responses)
  in
  if t.timed then begin
    t.response_bytes <- t.response_bytes + List.fold_left (fun n l -> n + String.length l) 0 lines;
    t.answers <- t.answers + 1
  end;
  span t "client.decode" (fun () ->
      List.iter
        (fun l -> ignore (ok_or_fail "decode" (P.decode_response (String.sub l 0 (String.length l - 1)))))
        lines)

let build t kind rel =
  let key = (Relation.uid rel, kind) in
  if not (Hashtbl.mem t.built key) then begin
    Hashtbl.replace t.built key ();
    span t ("cache.build." ^ kind) (fun () ->
        match kind with
        | "int_view" -> ignore (Cache.int_view t.cache rel ~col:Z.col2)
        | "frequency" -> ignore (Cache.frequency t.cache rel ~key:Z.col2)
        | "hash_index" -> ignore (Cache.hash_index t.cache rel ~key:Z.col2)
        | "histogram" -> ignore (Cache.histogram t.cache rel ~key:Z.col2 ~fraction:0.05)
        | _ -> ())
  end

(* Build cold, each under its own span, the structures the daemon built
   for this request kind's first answer (frequency tables and key views
   on both sides, index and histogram on R2), so the request itself
   then runs warm as in the daemon. *)
let prebuild t ~kind ~left ~right =
  let needed = Option.value ~default:[] (List.assoc_opt kind t.builds) in
  List.iter
    (fun k ->
      if List.mem k needed then
        List.iter (build t k) (if k = "int_view" || k = "frequency" then [ left; right ] else [ right ]))
    [ "int_view"; "frequency"; "hash_index"; "histogram" ]

let chain_spec t =
  {
    Rsj_core.Chain_sample.relations =
      Array.of_list (List.map (fun (tb : Workload.table) -> Hashtbl.find t.catalog tb.name) t.env.w.tables);
    join_keys = Array.make (List.length t.env.w.tables - 1) (Z.col2, Z.col2);
  }

let sample t ~kind ~id ~left ~right ~r ~strategy ~seed ~wor =
  let l = Hashtbl.find t.catalog left and rt = Hashtbl.find t.catalog right in
  prebuild t ~kind ~left:l ~right:rt;
  let env =
    span t "cache.env" (fun () ->
        Cache.env t.cache ~seed ~left:l ~right:rt ~left_key:Z.col2 ~right_key:Z.col2 ())
  in
  let strategy =
    match strategy with
    | Some name -> Option.get (Strategy.of_name name)
    | None ->
        span t "optimizer.pick" (fun () ->
            let catalog = Rsj_optimizer.Catalog.of_env ~availability:Strategy.all_available env in
            fst (Rsj_optimizer.Picker.choose_counted catalog (Rsj_optimizer.Cost_model.shape ~r)))
  in
  let result =
    span t
      ("execute." ^ short_name strategy ^ if wor then "_wor" else "")
      (fun () ->
        if wor then Rsj_parallel.run_wor env strategy ~r ~domains:1
        else Rsj_parallel.run env strategy ~r ~domains:1)
  in
  if t.timed then t.metrics <- Metrics.add t.metrics result.Strategy.metrics;
  let sample = result.Strategy.sample in
  span t "quality.observe" (fun () ->
      let fp = (Relation.fingerprint l, Relation.fingerprint rt) in
      let law =
        match Hashtbl.find_opt t.laws fp with
        | Some law -> law
        | None ->
            let law =
              Online.law_of_frequencies
                ~left:(Cache.frequency t.cache l ~key:Z.col2)
                ~right:(Cache.frequency t.cache rt ~key:Z.col2)
            in
            Hashtbl.replace t.laws fp law;
            law
      in
      match law with
      | Some law when Array.length sample > 0 ->
          let key =
            Printf.sprintf "%x-%x/%s/%s" (fst fp) (snd fp) (Strategy.name strategy)
              (if wor then "wor" else "wr")
          in
          Online.observe t.quality ~key ~law (Array.map (fun tu -> tu.(Z.col2)) sample)
      | _ -> ());
  let rows = Array.to_list (Array.map Array.to_list sample) in
  wire t
    (frames ~id rows
       [
         ("strategy", Json.Str (Strategy.name strategy));
         ("tuples", Json.Int (Array.length sample));
         ("join_size", Json.Int (Strategy.env_join_size env));
         ("elapsed_s", Json.Float result.Strategy.elapsed_seconds);
       ]);
  rows

let query t ~kind ~id ~sql ~seed =
  if List.mem "chain" (Option.value ~default:[] (List.assoc_opt kind t.builds)) then begin
    let spec = chain_spec t in
    let key = (Relation.uid spec.relations.(0), "chain") in
    if not (Hashtbl.mem t.built key) then begin
      Hashtbl.replace t.built key ();
      span t "cache.build.chain" (fun () -> ignore (Cache.chain t.cache spec))
    end
  end;
  let ast = ok_or_fail "parse" (span t "sql.parse" (fun () -> Rsj_sql.Parser.parse sql)) in
  let catalog = Hashtbl.fold (fun name rel acc -> (name, rel) :: acc) t.catalog [] in
  let res =
    ok_or_fail "engine" (span t "sql.engine" (fun () -> Rsj_sql.Engine.run_query ~seed catalog ast))
  in
  if t.timed then t.metrics <- Metrics.add t.metrics res.Rsj_sql.Engine.metrics;
  let rows = List.map Array.to_list res.Rsj_sql.Engine.rows in
  let columns =
    Array.to_list (Schema.columns res.Rsj_sql.Engine.schema)
    |> List.map (fun (c : Schema.column) -> Json.Str c.name)
  in
  wire t
    (frames ~id rows
       [
         ("columns", Json.List columns);
         ("tuples", Json.Int (List.length rows));
         ("work", Json.Int (Metrics.total_work res.Rsj_sql.Engine.metrics));
         ("explained", Json.Bool false);
       ]);
  rows

let register t ~id ~name ~path =
  let rel = span t "relation.csv_load" (fun () -> Csv_io.load ~path Z.schema) in
  (match Hashtbl.find_opt t.catalog name with
  | Some old -> span t "cache.invalidate" (fun () -> Cache.invalidate t.cache old)
  | None -> ());
  Hashtbl.replace t.catalog name rel;
  wire t [ P.Ack { id; detail = [ ("name", Json.Str name); ("rows", Json.Int (Relation.cardinality rel)) ] } ];
  []

(* One request, from its wire form on. Returns the answer's rows. *)
let exec t ~index (kind, op) =
  let seed = Workload.op_seed t.env.seed index in
  let line = P.encode_request (Served.request ~dir:t.env.dir ~seed ~id:index op) in
  match ok_or_fail "request" (span t "protocol.decode_request" (fun () -> P.decode_request line)) with
  | P.Sample { id; left; right; r; strategy; seed; wor; _ } ->
      sample t ~kind ~id ~left ~right ~r ~strategy ~seed ~wor
  | P.Query { id; sql; seed; _ } -> query t ~kind ~id ~sql ~seed
  | P.Register { id; name; source = P.From_path path } -> register t ~id ~name ~path
  | _ -> failwith "the replay only runs sample, query and register requests"

(* Draw-only vs draw-and-materialize on the prepared chain walker,
   outside the op spans: Engine.run_query draws internally, so this is
   how the replay splits chain.draw from chain.materialize. *)
let probe_chain t walker ~seed ~r =
  span t "probe" @@ fun () ->
  let t0 = Clock.now_us () in
  span t "chain.draw" (fun () ->
      ignore (Rsj_core.Chain_sample.sample_rows walker (Rsj_util.Prng.create ~seed ()) ~r ()));
  let t1 = Clock.now_us () in
  span t "chain.sample" (fun () ->
      ignore (Rsj_core.Chain_sample.sample walker (Rsj_util.Prng.create ~seed ()) ~r ()));
  let t2 = Clock.now_us () in
  t.chain_materialize_us <- (t2 -. t1 -. (t1 -. t0)) :: t.chain_materialize_us

type report = {
  mismatches : (int * string) list;  (* timed op index (negative: set-up) -> why *)
  layers : (string * float) list;  (* per-layer metric values; empty when untraced *)
  replayed : int;  (* timed ops re-run and compared *)
}

(* Per-layer metrics whose value is the median self time of one span
   name: (metric, span, divisor from microseconds). *)
let span_metrics =
  [
    ("relation.csv_load_ms", "relation.csv_load", 1e3);
    ("cache.build_ms.int_view", "cache.build.int_view", 1e3);
    ("cache.build_ms.frequency", "cache.build.frequency", 1e3);
    ("cache.build_ms.hash_index", "cache.build.hash_index", 1e3);
    ("cache.build_ms.histogram", "cache.build.histogram", 1e3);
    ("cache.build_ms.chain", "cache.build.chain", 1e3);
    ("cache.env_us", "cache.env", 1.);
    ("optimizer.pick_us", "optimizer.pick", 1.);
  ]
  @ List.map
      (fun k -> ("execute_ms." ^ k, "execute." ^ k, 1e3))
      [ "naive"; "olken"; "stream"; "group"; "fps"; "index"; "count"; "hybrid"; "naive_wor"; "stream_wor" ]
  @ [
      ("sql.parse_us", "sql.parse", 1.);
      ("sql.engine_ms", "sql.engine", 1e3);
      ("chain.draw_ms", "chain.draw", 1e3);
      ("protocol.decode_request_us", "protocol.decode_request", 1.);
      ("protocol.encode_ms", "protocol.encode", 1e3);
      ("client.decode_ms", "client.decode", 1e3);
      ("quality.observe_us", "quality.observe", 1.);
    ]

let median_of l = Stats.median (Stats.sorted (Array.of_list l))

let layer_metrics t ~n_ops ~single_p50_ms ~gc0 ~gc1 ~(c0 : Cache.stats) ~(c1 : Cache.stats) =
  let timed = Spans.with_self_times (Spans.spans t.spans) in
  let selfs = Hashtbl.create 64 and layer_sums = ref [] in
  List.iter
    (fun ((s : Spans.span), self) ->
      Hashtbl.add selfs s.name self;
      if s.name = "op" then layer_sums := (s.stop_us -. s.start_us -. self) :: !layer_sums)
    timed;
  let median_self name =
    match Hashtbl.find_all selfs name with [] -> 0. | l -> median_of l
  in
  let per_op = float_of_int (max 1 n_ops) in
  let m = t.metrics in
  let layer_sum_ms = if !layer_sums = [] then 0. else median_of !layer_sums /. 1e3 in
  let residual_ms = single_p50_ms -. layer_sum_ms in
  let lookups = c1.Cache.hits + c1.misses - c0.Cache.hits - c0.misses in
  List.map (fun (metric, name, div) -> (metric, median_self name /. div)) span_metrics
  @ [
      ( "cache.hit_ratio",
        if lookups = 0 then 0. else float_of_int (c1.hits - c0.hits) /. float_of_int lookups );
      ("cache.bytes", float_of_int c1.bytes);
      ("core.tuples_scanned", float_of_int m.Metrics.tuples_scanned /. per_op);
      ("core.join_output_tuples", float_of_int m.join_output_tuples /. per_op);
      ("core.index_probes", float_of_int m.index_probes /. per_op);
      ("core.rejected_samples", float_of_int m.rejected_samples /. per_op);
      ( "core.useful_ratio",
        let work = Metrics.total_work m in
        if work = 0 then 0. else float_of_int m.output_tuples /. float_of_int work );
      ( "chain.materialize_ms",
        if t.chain_materialize_us = [] then 0. else median_of t.chain_materialize_us /. 1e3 );
      ( "protocol.response_bytes",
        if t.answers = 0 then 0. else float_of_int t.response_bytes /. float_of_int t.answers );
      ("gc.minor_words_per_op", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. per_op);
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("serve.single_p50_ms", single_p50_ms);
      ("serve.layer_sum_ms", layer_sum_ms);
      ("serve.residual_ms", residual_ms);
      ("serve.layer_share", if single_p50_ms > 0. then layer_sum_ms /. single_p50_ms else 0.);
    ]

(* [every]: an untraced replay re-runs only every [every]-th timed op
   (and every write, which the later reads depend on); a traced one
   re-runs them all. *)
let run (env : Served.env) ~traced ~every ~(setup : Served.setup) ~(loop : Served.loop)
    ~single_p50_ms ~trace_path ~quality_alpha =
  let w = env.w in
  let t =
    {
      env;
      spans = Spans.create ~enabled:traced;
      catalog = Hashtbl.create 8;
      cache = Cache.shared ();
      quality = Online.create ~significance:quality_alpha ();
      laws = Hashtbl.create 8;
      builds = setup.builds;
      built = Hashtbl.create 16;
      metrics = Metrics.create ();
      timed = false;
      response_bytes = 0;
      answers = 0;
      chain_materialize_us = [];
    }
  in
  let mismatches = ref [] in
  let compare_answer index (served : Served.outcome) f =
    match f () with
    | rows ->
        if served.error = None && Check.digest rows <> served.digest then
          mismatches := (index, "answer differs from the in-process replay") :: !mismatches
    | exception (Failure msg | Invalid_argument msg) ->
        mismatches := (index, "replay failed: " ^ msg) :: !mismatches
  in
  span t "setup" (fun () ->
      List.iter
        (fun (tb : Workload.table) ->
          ignore (register t ~id:(-1) ~name:tb.name ~path:(Filename.concat env.dir tb.file)))
        w.tables;
      List.iteri
        (fun k (kind, op) ->
          let index = -(k + 1) in
          compare_answer index (List.assoc kind setup.warm) (fun () -> exec t ~index (kind, op)))
        w.kinds);
  let walker =
    if traced && List.exists (fun (_, ks) -> List.mem "chain" ks) setup.builds then
      Some (Cache.chain t.cache (chain_spec t))
    else None
  in
  t.timed <- true;
  let c0 = Cache.stats t.cache in
  let gc0 = Gc.quick_stat () in
  let replayed = ref 0 in
  Array.iter
    (fun (r : Served.op_result) ->
      let kind, op = w.op_at r.index in
      let write = match op with Workload.Swap _ -> true | _ -> false in
      if traced || write || r.index mod every = 0 then begin
        incr replayed;
        compare_answer r.index r.outcome (fun () ->
            span t "op" (fun () -> exec t ~index:r.index (kind, op)));
        match (walker, op) with
        | Some walker, Workload.Query { r = size; _ } ->
            probe_chain t walker ~seed:(Workload.op_seed env.seed r.index) ~r:size
        | _ -> ()
      end)
    loop.Served.results;
  let gc1 = Gc.quick_stat () in
  let c1 = Cache.stats t.cache in
  let n_ops = Array.length loop.results in
  let layers =
    if traced then begin
      Spans.write_chrome ~path:trace_path
        ~metadata:(Json.Obj [ ("workload", Json.Str w.name); ("seed", Json.Int env.seed) ])
        (Spans.spans t.spans);
      layer_metrics t ~n_ops ~single_p50_ms ~gc0 ~gc1 ~c0 ~c1
    end
    else []
  in
  { mismatches = List.rev !mismatches; layers; replayed = !replayed }
