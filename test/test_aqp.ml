open Rsj_relation
open Rsj_core
module Zipf_tables = Rsj_workload.Zipf_tables

(* Ground truth on a fully-enumerable join, estimates from strategy
   samples: the AQP layer should land inside its own confidence
   intervals almost always. *)

let env () =
  let pair = Rsj_workload.Zipf_tables.make_pair ~seed:0xA9 ~n1:60 ~n2:120 ~z1:1. ~z2:1. ~domain:8 () in
  Strategy.make_env ~seed:0xA9 ~left:pair.outer ~right:pair.inner ~left_key:Zipf_tables.col2
    ~right_key:Zipf_tables.col2 ()

let full_join e =
  Rsj_exec.Plan.collect
    (Rsj_exec.Plan.Join
       {
         Rsj_exec.Plan.algorithm = Rsj_exec.Plan.Hash;
         left = Rsj_exec.Plan.Scan (Strategy.env_left e);
         right = Rsj_exec.Plan.Scan (Strategy.env_right e);
         left_key = Zipf_tables.col2;
         right_key = Zipf_tables.col2;
       })

(* Column 0 of the join output is the outer rid (an int). *)
let pred t = Value.to_int_exn (Tuple.get t 0) mod 2 = 0

let test_count_estimate_converges () =
  let e = env () in
  let j = full_join e in
  let n = List.length j in
  let truth = float_of_int (List.length (List.filter pred j)) in
  let sample = (Strategy.run e Strategy.Stream ~r:3_000).sample in
  let est = Aqp.count_where ~sample ~n ~pred in
  Alcotest.(check bool)
    (Printf.sprintf "count %.0f in [%.0f, %.0f] (truth %.0f)" est.value est.ci_low est.ci_high truth)
    true
    (truth >= est.ci_low -. 1e-9 && truth <= est.ci_high +. 1e-9)

let test_avg_estimate () =
  let e = env () in
  let j = full_join e in
  let truth =
    List.fold_left (fun acc t -> acc +. float_of_int (Value.to_int_exn (Tuple.get t 0))) 0. j
    /. float_of_int (List.length j)
  in
  let sample = (Strategy.run e Strategy.Naive ~r:3_000).sample in
  let est = Aqp.avg ~sample ~col:0 in
  let half = Float.max (est.ci_high -. est.value) 1e-6 in
  Alcotest.(check bool)
    (Printf.sprintf "avg %.2f ~ %.2f" est.value truth)
    true
    (Float.abs (est.value -. truth) < 3. *. half)

let test_sum_where () =
  let e = env () in
  let j = full_join e in
  let n = List.length j in
  let truth =
    List.fold_left
      (fun acc t -> if pred t then acc +. float_of_int (Value.to_int_exn (Tuple.get t 0)) else acc)
      0. j
  in
  let sample = (Strategy.run e Strategy.Stream ~r:4_000).sample in
  let est = Aqp.sum_where ~sample ~n ~col:0 ~pred in
  let half = Float.max (est.ci_high -. est.value) 1e-6 in
  Alcotest.(check bool) "sum_where within 3 half-widths" true
    (Float.abs (est.value -. truth) < 3. *. half)

let test_group_sum_accuracy () =
  let e = env () in
  let j = full_join e in
  let n = List.length j in
  let truth_tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let g = Value.to_int_exn (Tuple.get t 1) in
      let x = float_of_int (Value.to_int_exn (Tuple.get t 0)) in
      Hashtbl.replace truth_tbl g (x +. Option.value ~default:0. (Hashtbl.find_opt truth_tbl g)))
    j;
  let sample = (Strategy.run e Strategy.Stream ~r:5_000).sample in
  let groups = Aqp.group_sum ~sample ~n ~group_col:1 ~value_col:0 in
  (* Check the largest group lands near the truth. *)
  match groups with
  | [] -> Alcotest.fail "no groups"
  | (g, est) :: _ ->
      let truth = Hashtbl.find truth_tbl (Value.to_int_exn g) in
      Alcotest.(check bool)
        (Printf.sprintf "top group %.0f ~ %.0f" est.value truth)
        true
        (Float.abs (est.value -. truth) /. truth < 0.25)

let test_empty_sample () =
  let est = Aqp.count_where ~sample:[||] ~n:100 ~pred:(fun _ -> true) in
  Alcotest.(check (float 0.)) "zero estimate" 0. est.value;
  let a = Aqp.avg ~sample:[||] ~col:0 in
  Alcotest.(check bool) "avg of nothing is nan" true (Float.is_nan a.value)

let test_nulls_in_aggregates () =
  let sample = [| [| Value.Null |]; [| Value.Int 10 |] |] in
  let s = Aqp.sum_where ~sample ~n:2 ~col:0 ~pred:(fun _ -> true) in
  Alcotest.(check (float 1e-9)) "null contributes 0 to sum" 10. s.value;
  let a = Aqp.avg ~sample ~col:0 in
  Alcotest.(check (float 1e-9)) "null excluded from avg" 10. a.value

let suite =
  [
    Alcotest.test_case "COUNT converges with CI" `Slow test_count_estimate_converges;
    Alcotest.test_case "AVG converges" `Slow test_avg_estimate;
    Alcotest.test_case "SUM WHERE converges" `Slow test_sum_where;
    Alcotest.test_case "group sums accurate" `Slow test_group_sum_accuracy;
    Alcotest.test_case "empty sample" `Quick test_empty_sample;
    Alcotest.test_case "NULL handling" `Quick test_nulls_in_aggregates;
  ]
