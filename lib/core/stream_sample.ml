open Rsj_relation
open Rsj_exec
module Hash_index = Rsj_index.Hash_index
module Frequency = Rsj_stats.Frequency

let sample rng ~metrics ~r ~left ~left_key ~right_index ?right_stats ?total_weight () =
  let open Metrics in
  let weight t1 =
    let v = Tuple.attr t1 left_key in
    match right_stats with
    | Some stats ->
        metrics.stats_lookups <- metrics.stats_lookups + 1;
        float_of_int (Frequency.frequency stats v)
    | None ->
        metrics.index_probes <- metrics.index_probes + 1;
        float_of_int (Hash_index.multiplicity right_index v)
  in
  let s1 =
    match total_weight with
    | Some w -> Stream0.to_array (Black_box.wr1 rng ~total_weight:w ~r ~weight left)
    | None -> Black_box.wr2 rng ~r ~weight left
  in
  let out =
    Array.map
      (fun t1 ->
        let v = Tuple.attr t1 left_key in
        metrics.index_probes <- metrics.index_probes + 1;
        match Hash_index.random_match right_index rng v with
        | Some t2 ->
            metrics.join_output_tuples <- metrics.join_output_tuples + 1;
            Tuple.join t1 t2
        | None ->
            (* A sampled tuple always has positive weight, i.e. at least
               one match — reachable only with stale statistics. *)
            failwith
              "Stream_sample.sample: sampled tuple has no match in R2 (stale statistics?)")
      s1
  in
  metrics.output_tuples <- metrics.output_tuples + Array.length out;
  out
