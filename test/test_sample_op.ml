open Rsj_relation
open Rsj_core
module Plan = Rsj_exec.Plan
module Metrics = Rsj_exec.Metrics

let schema = Schema.of_list [ ("k", Value.T_int); ("payload", Value.T_int) ]

let rel n =
  Relation.of_tuples ~name:"src" schema
    (List.init n (fun i -> [| Value.Int (i mod 7); Value.Int i |]))

let rng () = Rsj_util.Prng.create ~seed:0x0b ()

let test_u1_node () =
  let r = rel 100 in
  let plan = Sample_op.u1 (rng ()) ~n:100 ~r:10 (Plan.Scan r) in
  let out = Plan.collect plan in
  Alcotest.(check int) "10 rows" 10 (List.length out);
  (* order preserved: payloads non-decreasing *)
  let payloads = List.map (fun t -> Value.to_int_exn (Tuple.get t 1)) out in
  Alcotest.(check (list int)) "stream order" (List.sort compare payloads) payloads

let test_u2_node () =
  let plan = Sample_op.u2 (rng ()) ~r:5 (Plan.Scan (rel 50)) in
  Alcotest.(check int) "5 rows" 5 (Plan.count plan)

let test_wr2_node_zero_weights () =
  let weight t = if Value.to_int_exn (Tuple.get t 0) = 0 then 1. else 0. in
  let plan = Sample_op.wr2 (rng ()) ~r:8 ~weight (Plan.Scan (rel 70)) in
  let out = Plan.collect plan in
  Alcotest.(check int) "8 rows" 8 (List.length out);
  List.iter
    (fun t -> Alcotest.(check int) "only weight>0 rows" 0 (Value.to_int_exn (Tuple.get t 0)))
    out

let test_wr1_node () =
  let r = rel 70 in
  let weight _ = 1. in
  let plan = Sample_op.wr1 (rng ()) ~total_weight:70. ~r:6 ~weight (Plan.Scan r) in
  Alcotest.(check int) "6 rows" 6 (Plan.count plan)

let test_coin_flip_node () =
  let metrics = Metrics.create () in
  let plan = Sample_op.coin_flip (rng ()) ~f:0.2 (Plan.Scan (rel 1000)) in
  let n = List.length (Plan.collect ~metrics plan) in
  Alcotest.(check bool) (Printf.sprintf "~200 rows, got %d" n) true (n > 100 && n < 330)

let test_explain_shows_sampling () =
  let plan = Sample_op.u2 (rng ()) ~r:5 (Plan.Scan (rel 10)) in
  let s = Format.asprintf "%a" Plan.explain plan in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "operator named in explain" true (contains "Sample-U2")

let suite =
  [
    Alcotest.test_case "U1 node" `Quick test_u1_node;
    Alcotest.test_case "U2 node" `Quick test_u2_node;
    Alcotest.test_case "WR1 node" `Quick test_wr1_node;
    Alcotest.test_case "WR2 node skips zero weights" `Quick test_wr2_node_zero_weights;
    Alcotest.test_case "CF node" `Quick test_coin_flip_node;
    Alcotest.test_case "explain shows sampling operators" `Quick test_explain_shows_sampling;
  ]
