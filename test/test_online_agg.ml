open Rsj_relation
open Rsj_core

let schema = Schema.of_list [ ("a", Value.T_int); ("b", Value.T_int) ]

let rel rows =
  Relation.of_tuples ~name:"oa" schema
    (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) rows)

(* A walker over a fresh index of R_k (no cache to borrow one from). *)
let prepare_cold ?metrics spec =
  let last, key = Chain_sample.last_level spec in
  Chain_sample.prepare ?metrics ~index:(Rsj_index.Hash_index.build last ~key) spec

(* A 2-relation chain whose join tuples carry a known-mean value. *)
let chain () =
  let r1 = rel (List.init 50 (fun i -> (i mod 5, i))) in
  let r2 = rel (List.init 100 (fun i -> (i mod 5, i))) in
  let spec = { Chain_sample.relations = [| r1; r2 |]; join_keys = [| (0, 0) |] } in
  prepare_cold spec

let test_fixed_draws () =
  let c = chain () in
  let rng = Rsj_util.Prng.create ~seed:1 () in
  let p =
    Online_agg.estimate_mean
      ~draw:(fun () -> Chain_sample.draw c rng ())
      ~value:(fun t -> Value.to_float_exn (Tuple.get t 1))
      (Online_agg.Draws 500)
  in
  Alcotest.(check int) "exactly 500 draws" 500 p.Online_agg.draws;
  (* True mean of r1.b over the join: b uniform over 0..49 weighted by
     matches (each r1 row matches 20 r2 rows uniformly) -> mean 24.5 *)
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.2f near 24.5" p.Online_agg.estimate.Aqp.value)
    true
    (Float.abs (p.Online_agg.estimate.Aqp.value -. 24.5) < 3.)

let test_relative_ci_stops () =
  let c = chain () in
  let rng = Rsj_util.Prng.create ~seed:2 () in
  let p =
    Online_agg.estimate_mean
      ~draw:(fun () -> Chain_sample.draw c rng ())
      ~value:(fun t -> 10. +. Value.to_float_exn (Tuple.get t 1))
      (Online_agg.Relative_ci 0.05)
  in
  let e = p.Online_agg.estimate in
  let half = e.Aqp.ci_high -. e.Aqp.value in
  Alcotest.(check bool) "stopped past CLT minimum" true (p.Online_agg.draws >= 30);
  Alcotest.(check bool)
    (Printf.sprintf "ci tight: %.3f <= 5%% of %.2f" half e.Aqp.value)
    true
    (half <= 0.05 *. e.Aqp.value +. 1e-9)

let test_absolute_ci_stops () =
  let c = chain () in
  let rng = Rsj_util.Prng.create ~seed:3 () in
  let p =
    Online_agg.estimate_mean
      ~draw:(fun () -> Chain_sample.draw c rng ())
      ~value:(fun t -> Value.to_float_exn (Tuple.get t 1))
      (Online_agg.Absolute_ci 1.0)
  in
  let e = p.Online_agg.estimate in
  Alcotest.(check bool) "half-width <= 1" true (e.Aqp.ci_high -. e.Aqp.value <= 1.0 +. 1e-9)

let test_count_where_scaled () =
  let c = chain () in
  let n = int_of_float (Chain_sample.join_size c) in
  Alcotest.(check int) "join size" 1000 n;
  let rng = Rsj_util.Prng.create ~seed:4 () in
  let p =
    Online_agg.estimate_count_where
      ~draw:(fun () -> Chain_sample.draw c rng ())
      ~pred:(fun t -> Value.to_int_exn (Tuple.get t 0) = 0)
      ~join_size:n (Online_agg.Draws 2_000)
  in
  (* Value 0 holds 10 of 50 r1 rows and 20 of 100 r2 rows: 200 of 1000
     join tuples. *)
  Alcotest.(check bool)
    (Printf.sprintf "count %.0f near 200" p.Online_agg.estimate.Aqp.value)
    true
    (Float.abs (p.Online_agg.estimate.Aqp.value -. 200.) < 60.)

let test_empty_join () =
  let p =
    Online_agg.estimate_mean ~draw:(fun () -> None) ~value:(fun _ -> 1.) (Online_agg.Draws 100)
  in
  Alcotest.(check int) "no draws" 0 p.Online_agg.draws

let test_max_draws_cap () =
  let c = chain () in
  let rng = Rsj_util.Prng.create ~seed:5 () in
  let p =
    Online_agg.estimate_mean
      ~draw:(fun () -> Chain_sample.draw c rng ())
      ~value:(fun t -> Value.to_float_exn (Tuple.get t 1))
      ~max_draws:64
      (Online_agg.Absolute_ci 0.000001)
  in
  Alcotest.(check int) "cap respected" 64 p.Online_agg.draws

let test_progress_callback () =
  let c = chain () in
  let rng = Rsj_util.Prng.create ~seed:6 () in
  let reports = ref [] in
  ignore
    (Online_agg.estimate_mean
       ~draw:(fun () -> Chain_sample.draw c rng ())
       ~value:(fun t -> Value.to_float_exn (Tuple.get t 1))
       ~on_progress:(fun p -> reports := p.Online_agg.draws :: !reports)
       (Online_agg.Draws 100));
  Alcotest.(check (list int)) "doubling schedule" [ 1; 2; 4; 8; 16; 32; 64 ]
    (List.rev !reports)

let suite =
  [
    Alcotest.test_case "fixed draw budget" `Quick test_fixed_draws;
    Alcotest.test_case "relative CI target" `Quick test_relative_ci_stops;
    Alcotest.test_case "absolute CI target" `Quick test_absolute_ci_stops;
    Alcotest.test_case "count-where scaling" `Quick test_count_where_scaled;
    Alcotest.test_case "empty join" `Quick test_empty_join;
    Alcotest.test_case "max draws cap" `Quick test_max_draws_cap;
    Alcotest.test_case "progress doubling" `Quick test_progress_callback;
  ]
