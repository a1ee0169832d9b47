(* Sampling from a linear join tree (paper §7.2).

   A three-level chain orders ⋈ customers ⋈ regions is sampled three
   ways:
     1. naive        — compute the whole tree, reservoir-sample the root;
     2. pushdown     — paper §7.2: the top join is never computed; the
                       prefix pipeline streams into a Stream-Sample
                       biased by the statistics of the last relation;
     3. exact chain  — the full-pushdown extension: no join at all,
                       weights propagated right-to-left.

   All three must agree in distribution; they differ in work.

   Run with: dune exec examples/linear_join_tree.exe *)

open Rsj_relation
module Join_tree = Rsj_core.Join_tree
module Chain_sample = Rsj_core.Chain_sample
module Metrics = Rsj_exec.Metrics

let () =
  let rng = Rsj_util.Prng.create ~seed:31 () in
  let orders_schema = Schema.of_list [ ("order_id", Value.T_int); ("customer_id", Value.T_int) ] in
  let customers_schema =
    Schema.of_list [ ("customer_id", Value.T_int); ("region_id", Value.T_int) ]
  in
  let promos_schema = Schema.of_list [ ("region_id", Value.T_int); ("promo_id", Value.T_int) ] in

  let orders = Relation.create ~name:"orders" ~capacity:30_000 orders_schema in
  for o = 1 to 30_000 do
    Relation.append orders [| Value.Int o; Value.Int (1 + Rsj_util.Prng.int rng 2_000) |]
  done;
  let customers = Relation.create ~name:"customers" ~capacity:2_000 customers_schema in
  for c = 1 to 2_000 do
    (* regions are skewed: region r gets ~ 1/r of the customers *)
    let region = 1 + (Rsj_util.Prng.int rng 40 * Rsj_util.Prng.int rng 40 / 40) in
    Relation.append customers [| Value.Int c; Value.Int (min region 40) |]
  done;
  (* every region runs ~25 promotions: the top join is expansive, which
     is exactly when pushing the sample below it pays off *)
  let promos = Relation.create ~name:"promotions" ~capacity:1_000 promos_schema in
  for p = 1 to 1_000 do
    Relation.append promos [| Value.Int (1 + ((p - 1) mod 40)); Value.Int p |]
  done;

  let tree =
    {
      Join_tree.base = orders;
      steps =
        [
          { Join_tree.left_col = 1; right = customers; right_key = 0 };
          { Join_tree.left_col = 3; right = promos; right_key = 0 };
        ];
    }
  in
  (match Join_tree.validate tree with
  | Ok () -> ()
  | Error msg -> failwith msg);

  Format.printf "plan of the full tree:@.%a@." Rsj_exec.Plan.explain (Join_tree.to_plan tree);

  let r = 1_000 in
  let time f =
    let t0 = Rsj_obs.Clock.now_s () in
    let x = f () in
    (x, Rsj_obs.Clock.now_s () -. t0)
  in

  let m_naive = Metrics.create () in
  let (naive, t_naive) = time (fun () -> Join_tree.naive_sample rng ~metrics:m_naive ~r tree) in

  let m_push = Metrics.create () in
  let (push, t_push) = time (fun () -> Join_tree.pushdown_sample rng ~metrics:m_push ~r tree) in

  let spec =
    { Chain_sample.relations = [| orders; customers; promos |]; join_keys = [| (1, 0); (1, 0) |] }
  in
  let m_chain = Metrics.create () in
  let (chain, t_chain) =
    time (fun () ->
        let index = Rsj_index.Hash_index.build promos ~key:0 in
        let prepared = Chain_sample.prepare ~metrics:m_chain ~index spec in
        Chain_sample.sample prepared rng ~metrics:m_chain ~r ())
  in

  Printf.printf "\n%-22s %8s %12s %12s\n" "method" "samples" "work" "seconds";
  let row name sample metrics seconds =
    Printf.printf "%-22s %8d %12d %12.4f\n" name (Array.length sample)
      (Metrics.total_work metrics) seconds
  in
  row "naive (full tree)" naive m_naive t_naive;
  row "pushdown (§7.2)" push m_push t_push;
  row "exact chain walk" chain m_chain t_chain;

  (* All three sample the same join: spot-check the mean region id. *)
  let mean_region sample =
    Array.fold_left (fun acc t -> acc +. float_of_int (Value.to_int_exn (Tuple.get t 4))) 0. sample
    /. float_of_int (Array.length sample)
  in
  Printf.printf "\nmean region id per method (should agree within noise): %.2f / %.2f / %.2f\n"
    (mean_region naive) (mean_region push) (mean_region chain)
