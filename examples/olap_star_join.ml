(* The paper's §1 motivating OLAP scenario: "find total sales for all
   products in the North-West region between 1/1/98 and 1/15/98" — a
   star join between date, product and sales answered approximately
   from a sample of the query result.

   The star join date ⋈ sales ⋈ product is a linear chain with the
   fact table in the middle, so the exact chain sampler (the §7.2
   full-pushdown extension) draws uniform join tuples without ever
   computing the join; the AQP layer then turns the sample into
   estimates with confidence intervals.

   Run with: dune exec examples/olap_star_join.exe *)

open Rsj_relation
module Chain_sample = Rsj_core.Chain_sample
module Aqp = Rsj_core.Aqp

let () =
  let rng = Rsj_util.Prng.create ~seed:98 () in

  (* date(date_id, month): 360 days. *)
  let date_schema = Schema.of_list [ ("date_id", Value.T_int); ("month", Value.T_int) ] in
  let date = Relation.create ~name:"date" date_schema in
  for d = 1 to 360 do
    Relation.append date [| Value.Int d; Value.Int (1 + ((d - 1) / 30)) |]
  done;

  (* sales(date_id, product_id, amount): 200k facts, seasonal volume,
     skewed product popularity. *)
  let sales_schema =
    Schema.of_list
      [ ("date_id", Value.T_int); ("product_id", Value.T_int); ("amount", Value.T_float) ]
  in
  let product_popularity = Rsj_util.Dist.Zipf.create ~z:1. ~support:200 in
  let sales = Relation.create ~name:"sales" ~capacity:200_000 sales_schema in
  for _ = 1 to 200_000 do
    let d = 1 + Rsj_util.Prng.int rng 360 in
    let p = Rsj_util.Dist.Zipf.draw product_popularity rng in
    let amount = 5. +. Rsj_util.Prng.float rng 95. in
    Relation.append sales [| Value.Int d; Value.Int p; Value.Float amount |]
  done;

  (* product(product_id, category): 200 products in 8 categories. *)
  let product_schema = Schema.of_list [ ("product_id", Value.T_int); ("category", Value.T_int) ] in
  let product = Relation.create ~name:"product" product_schema in
  for p = 1 to 200 do
    Relation.append product [| Value.Int p; Value.Int (p mod 8) |]
  done;

  (* Chain: date.date_id = sales.date_id (cols 0, 0), then
     sales.product_id = product.product_id (cols 1, 0). *)
  let spec =
    { Chain_sample.relations = [| date; sales; product |]; join_keys = [| (0, 0); (1, 0) |] }
  in
  let prepared = Chain_sample.prepare ~index:(Rsj_index.Hash_index.build product ~key:0) spec in
  let n = int_of_float (Chain_sample.join_size prepared) in
  Printf.printf "star join |date ⋈ sales ⋈ product| = %d (never materialized)\n\n" n;

  (* The join row layout is date ++ sales ++ product:
     0:date_id 1:month 2:date_id 3:product_id 4:amount 5:product_id 6:category *)
  let col_month = 1 and col_amount = 4 and col_category = 6 in

  let r = 20_000 in
  let t0 = Rsj_obs.Clock.now_s () in
  let sample = Chain_sample.sample prepared rng ~r () in
  let sampling_time = Rsj_obs.Clock.now_s () -. t0 in

  (* Q1: total january sales (the paper's dashboard aggregate). *)
  let january t = Value.to_int_exn (Tuple.get t col_month) = 1 in
  let est = Aqp.sum_where ~sample ~n ~col:col_amount ~pred:january in

  (* Exact answer for comparison (this computes the join; the point of
     the library is that production queries would skip this). *)
  let t1 = Rsj_obs.Clock.now_s () in
  let exact = ref 0. in
  Relation.iter sales (fun row ->
      let d = Value.to_int_exn (Tuple.get row 0) in
      if d <= 30 then exact := !exact +. Value.to_float_exn (Tuple.get row 2));
  let exact_time = Rsj_obs.Clock.now_s () -. t1 in

  Printf.printf "Q1  SUM(amount) WHERE month = 1\n";
  Printf.printf "    estimate : %.0f   (95%% CI [%.0f, %.0f])\n" est.Aqp.value est.Aqp.ci_low
    est.Aqp.ci_high;
  Printf.printf "    exact    : %.0f\n" !exact;
  Printf.printf "    sample: %.3fs for %d draws vs %.3fs exact scan\n\n" sampling_time r exact_time;

  (* Q2: sales by category — the grouped estimate. *)
  Printf.printf "Q2  SUM(amount) GROUP BY category (top 5 of 8)\n";
  let groups = Aqp.group_sum ~sample ~n ~group_col:col_category ~value_col:col_amount in
  List.iteri
    (fun i (cat, (e : Aqp.estimate)) ->
      if i < 5 then
        Printf.printf "    category %s: %.0f ± %.0f\n" (Value.to_string cat) e.Aqp.value
          (e.Aqp.ci_high -. e.Aqp.value))
    groups
