open Rsj_relation
open Rsj_exec
module Frequency = Rsj_stats.Frequency

let sample rng ~metrics ~r ~left ~left_key ~right ~right_key ~right_stats =
  let open Metrics in
  let weight t1 =
    metrics.stats_lookups <- metrics.stats_lookups + 1;
    float_of_int (Frequency.frequency right_stats (Tuple.attr t1 left_key))
  in
  let s1 = Black_box.wr2 rng ~r ~weight left in
  let out =
    Internals.count_sample_scan rng metrics ~strategy:"Count_sample.sample" ~s1 ~left_key ~right
      ~right_key
      ~population:(fun v -> Frequency.frequency right_stats v)
  in
  metrics.output_tuples <- metrics.output_tuples + Array.length out;
  out
