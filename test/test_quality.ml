(* The online statistical-quality monitor (lib/verify/online.ml).

   Unit cells drive the monitor directly with draws from the WR
   join-value marginal: an unbiased stream must stay green across an
   RSJ_CONF_TRIALS-scaled number of windows (the alpha-spending
   schedule bounds the lifetime false-alert budget), the conformance
   suite's negative control (Negative.biased_wr_draw) must trip it
   fast, and a value outside the join support must alert immediately.

   Served cells repeat the verdicts through the daemon: a server
   started with RSJ_SERVE_BIAS=1 replaces every sample with the biased
   draw, and its own monitor must latch quality_alert in the stats RPC
   within a bounded number of requests, while an unbiased daemon under
   the same load holds the alert at false. *)

open Rsj_relation
module Online = Rsj_verify.Online
module Frequency = Rsj_stats.Frequency
module Oracle = Rsj_verify.Oracle
module Zipf_tables = Rsj_workload.Zipf_tables
module Client = Rsj_server.Client
module Json = Rsj_obs.Json
module Prng = Rsj_util.Prng

let key = Zipf_tables.col2

let trials = Rsj_obs.Config.conf_trials

let law_and_universe pair =
  let left = Frequency.of_relation pair.Zipf_tables.outer ~key in
  let right = Frequency.of_relation pair.Zipf_tables.inner ~key in
  let law =
    match Online.law_of_frequencies ~left ~right with
    | Some law -> law
    | None -> Alcotest.fail "zipf pair produced an empty join"
  in
  let oracle =
    Oracle.of_relations ~left:pair.Zipf_tables.outer ~right:pair.Zipf_tables.inner
      ~left_key:key ~right_key:key
  in
  (law, Oracle.universe oracle)

(* ---------- unit cells: the monitor against known streams ---------- *)

(* False-positive side: feed genuinely uniform WR draws over the join
   and close window after window — the latched alert must never fire.
   Window count scales with RSJ_CONF_TRIALS like the conformance
   sweep; the alpha-spending schedule keeps the lifetime false-alert
   probability under the 1% significance no matter how long it runs. *)
let test_unbiased_stays_green () =
  let pair = Test_serve.make_pair () in
  let law, universe = law_and_universe pair in
  let w = 400 in
  let monitor = Online.create ~window:w ~significance:0.01 () in
  let rng = Prng.create ~seed:0x5EED () in
  let windows = max 8 (trials () / 8) in
  let n = Array.length universe in
  for _ = 1 to windows do
    let vals = Array.init w (fun _ -> universe.(Prng.int rng n).(key)) in
    Online.observe monitor ~key:"unit/stream/wr" ~law vals
  done;
  Alcotest.(check bool)
    (Printf.sprintf "unbiased stream green after %d windows" windows)
    false (Online.any_alert monitor);
  match Online.stats monitor with
  | [ st ] ->
      Alcotest.(check int) "all windows closed" windows st.Online.st_windows;
      Alcotest.(check int) "no foreign values" 0 st.Online.st_foreign;
      Alcotest.(check bool) "p-value recorded" false (Float.is_nan st.Online.st_last_p)
  | l -> Alcotest.failf "expected one stream, saw %d" (List.length l)

(* False-positive side on a concentrated law: the benchmark's skewed
   pair (10k rows at z=2 against 2.5k rows at z=3 over 1000 values)
   puts most of the join's mass on a few values, so the pooled cells
   expect only a few draws each and the asymptotic chi-square tail is
   far too light at the alpha-spent thresholds. An exact iid sampler
   from the true m1*m2/|J| law must stay green for 10k windows of the
   daemon's default size at the daemon's default significance, and
   its window p-values must be valid in the tail: at most one of the
   10k windows may fall below 1e-4 (a valid p-value expects 1; the
   chi-square tail gives several). *)
let test_concentrated_law_stays_green () =
  let left_rel = Zipf_tables.make ~seed:204 ~name:"s1" ~rows:10_000 ~z:2. ~domain:1000 () in
  let right_rel = Zipf_tables.make ~seed:205 ~name:"s2" ~rows:2_500 ~z:3. ~domain:1000 () in
  let left = Frequency.of_relation left_rel ~key in
  let right = Frequency.of_relation right_rel ~key in
  let law =
    match Online.law_of_frequencies ~left ~right with
    | Some law -> law
    | None -> Alcotest.fail "skewed pair produced an empty join"
  in
  let cells = ref [] in
  Frequency.iter left (fun v m1 ->
      let m2 = Frequency.frequency right v in
      if m2 > 0 then cells := (v, float_of_int (m1 * m2)) :: !cells);
  let values = Array.of_list (List.map fst !cells) in
  let table = Rsj_util.Dist.Alias_table.of_weights (Array.of_list (List.map snd !cells)) in
  let w = Rsj_obs.Config.quality_window () in
  let monitor = Online.create ~window:w () in
  let rng = Prng.create ~seed:204 () in
  let windows = 10_000 in
  let batch = Array.make w (Value.Int 0) in
  let tail = ref 0 in
  let last () =
    match Online.stats monitor with
    | [ st ] -> st
    | l -> Alcotest.failf "expected one stream, saw %d" (List.length l)
  in
  for _ = 1 to windows do
    for i = 0 to w - 1 do
      batch.(i) <- values.(Rsj_util.Dist.Alias_table.draw table rng)
    done;
    Online.observe monitor ~key:"unit/stream/concentrated" ~law batch;
    if (last ()).Online.st_last_p < 1e-4 then incr tail
  done;
  let st = last () in
  Alcotest.(check int) "all windows closed" windows st.Online.st_windows;
  Alcotest.(check bool)
    (Printf.sprintf "exact iid sampler green after %d windows of %d" windows w)
    false st.Online.st_alert;
  Alcotest.(check bool)
    (Printf.sprintf "windows with p < 1e-4: %d (at most 1)" !tail)
    true (!tail <= 1)

(* True-positive side: the conformance suite's negative control (first
   half of the universe carries 4x the mass) must trip the monitor —
   a monitor that tolerates it has no power. The universe is sorted by
   join value first, exactly as the biased daemon does: the control's
   tilt is positional, and only a value-aligned layout turns it into
   the marginal distortion the monitor watches. *)
let test_biased_trips () =
  let pair = Test_serve.make_pair () in
  let law, universe = law_and_universe pair in
  let universe = Array.copy universe in
  Array.sort (fun a b -> Value.compare a.(key) b.(key)) universe;
  let w = 400 in
  let monitor = Online.create ~window:w ~significance:0.01 () in
  let rng = Prng.create ~seed:0xB1A5 () in
  let r = 50 in
  let max_batches = 64 in
  let batches = ref 0 in
  while (not (Online.any_alert monitor)) && !batches < max_batches do
    incr batches;
    let sample = Rsj_core.Negative.biased_wr_draw rng ~universe ~r in
    Online.observe monitor ~key:"unit/stream/biased" ~law
      (Array.map (fun t -> t.(key)) sample)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "biased stream tripped after %d draws" (!batches * r))
    true (Online.any_alert monitor);
  (* 4:1 over half the mass is gross — it must not take more than a
     couple of windows to catch. *)
  Alcotest.(check bool)
    (Printf.sprintf "caught within three windows (%d draws)" (3 * w))
    true
    (!batches * r <= 3 * w)

(* A served tuple whose join value is outside the join support is
   wrong with probability 1 — no window, no test, immediate alert. *)
let test_foreign_value_alerts () =
  let pair = Test_serve.make_pair () in
  let law, _ = law_and_universe pair in
  let monitor = Online.create ~window:100_000 ~significance:0.01 () in
  Online.observe monitor ~key:"unit/stream/foreign" ~law [| Value.Int 987_654_321 |];
  Alcotest.(check bool) "foreign value alerts immediately" true (Online.any_alert monitor);
  match Online.stats monitor with
  | [ st ] -> Alcotest.(check int) "counted as foreign" 1 st.Online.st_foreign
  | l -> Alcotest.failf "expected one stream, saw %d" (List.length l)

(* ---------- served cells: the daemon's own verdict ---------- *)

let quality_alert stats =
  match List.assoc_opt "quality_alert" stats with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail "stats carry no quality_alert"

let quality_streams stats =
  match List.assoc_opt "quality" stats with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "stats carry no quality stream list"

let drive client ~requests ~r =
  for k = 1 to requests do
    ignore
      (Test_serve.must_reply "served sample"
         (Client.sample client ~left:"t1" ~right:"t2" ~r ~strategy:"stream"
            ~seed:(1000 + k) ()))
  done

let with_quality_env ?(bias = false) f =
  Unix.putenv "RSJ_QUALITY_WINDOW" "200";
  if bias then Unix.putenv "RSJ_SERVE_BIAS" "1";
  Fun.protect ~finally:(fun () ->
      Unix.putenv "RSJ_QUALITY_WINDOW" "";
      if bias then Unix.putenv "RSJ_SERVE_BIAS" "")
  @@ f

let test_served_unbiased_green () =
  with_quality_env @@ fun () ->
  let pair = Test_serve.make_pair () in
  Test_serve.with_server @@ fun ~sock:_ ~snapshot:_ client ->
  Test_serve.register_pair client pair;
  (* 12 requests x 50 draws = 600 observations = 3 closed windows. *)
  drive client ~requests:12 ~r:50;
  let stats = Test_serve.must "stats" (Client.cache_stats client) in
  Alcotest.(check bool) "unbiased daemon stays green" false (quality_alert stats);
  match quality_streams stats with
  | s :: _ -> (
      match Json.member "windows" s with
      | Some (Json.Int w) ->
          Alcotest.(check bool)
            (Printf.sprintf "the daemon closed windows (%d)" w)
            true (w >= 2)
      | _ -> Alcotest.fail "stream stats carry no window count")
  | [] -> Alcotest.fail "the daemon tracked no quality stream"

let test_served_biased_alerts () =
  with_quality_env ~bias:true @@ fun () ->
  let pair = Test_serve.make_pair () in
  Test_serve.with_server @@ fun ~sock:_ ~snapshot:_ client ->
  Test_serve.register_pair client pair;
  drive client ~requests:12 ~r:50;
  let stats = Test_serve.must "stats" (Client.cache_stats client) in
  Alcotest.(check bool) "biased daemon latches the alert" true (quality_alert stats);
  let alerted =
    List.exists
      (fun s -> match Json.member "alert" s with Some (Json.Bool b) -> b | _ -> false)
      (quality_streams stats)
  in
  Alcotest.(check bool) "a per-stream alert is latched too" true alerted

(* observe_join folds a join sample's keys into one stream per inputs,
   join columns and stream name, building the law once. *)
let test_observe_join () =
  let pair = Zipf_tables.make_pair ~seed:0x0B ~n1:40 ~n2:80 ~z1:1. ~z2:1. ~domain:6 () in
  let left = pair.Zipf_tables.outer and right = pair.Zipf_tables.inner in
  let builds = ref 0 in
  let frequency rel ~key =
    incr builds;
    Frequency.of_relation rel ~key
  in
  let oracle = Oracle.of_relations ~left ~right ~left_key:key ~right_key:key in
  let joined =
    Array.map (fun (tu : Tuple.t) -> Column.key tu.(key)) (Array.sub (Oracle.universe oracle) 0 10)
  in
  let monitor = Online.create ~window:100_000 () in
  let observe stream sample =
    Online.observe_join monitor ~frequency ~left ~right ~left_key:key ~right_key:key ~stream sample
  in
  observe "stream/WR" joined;
  observe "stream/WR" joined;
  observe "group/WR" [||];
  Alcotest.(check int) "law built once per inputs (both sides)" 2 !builds;
  match Online.stats monitor with
  | [ st ] ->
      Alcotest.(check string) "stream key"
        (Printf.sprintf "%x.%d-%x.%d/stream/WR" (Relation.fingerprint left) key
           (Relation.fingerprint right) key)
        st.Online.st_key;
      Alcotest.(check int) "both samples seen" 20 st.Online.st_seen;
      Alcotest.(check int) "join values are in the law" 0 st.Online.st_foreign;
      Alcotest.(check bool) "no alert" false (Online.any_alert monitor)
  | l -> Alcotest.failf "an empty sample opens no stream: saw %d streams" (List.length l)

let suite =
  [
    Alcotest.test_case "unbiased stream stays green (FP cell)" `Slow
      test_unbiased_stays_green;
    Alcotest.test_case "exact sampler on a concentrated law stays green" `Slow
      test_concentrated_law_stays_green;
    Alcotest.test_case "the negative control trips the monitor (TP cell)" `Quick
      test_biased_trips;
    Alcotest.test_case "foreign join values alert immediately" `Quick
      test_foreign_value_alerts;
    Alcotest.test_case "observe_join keys a stream per inputs" `Quick test_observe_join;
    Alcotest.test_case "served: unbiased daemon holds the alert at 0" `Quick
      test_served_unbiased_green;
    Alcotest.test_case "served: RSJ_SERVE_BIAS trips rsj_quality_alert" `Quick
      test_served_biased_alerts;
  ]
