open Rsj_relation
open Rsj_exec

let join_stream (metrics : Metrics.t) ~left ~right ~left_key ~right_key =
  let tbl = Internals.build_join_hash metrics right ~right_key in
  Stream0.concat_map
    (fun t1 ->
      let matches = Internals.hash_matches tbl (Tuple.attr t1 left_key) in
      Stream0.map
        (fun t2 ->
          metrics.join_output_tuples <- metrics.join_output_tuples + 1;
          Tuple.join t1 t2)
        (Stream0.of_array matches))
    left

let sample rng ~metrics ~r ~left ~right ~left_key ~right_key =
  let j = join_stream metrics ~left ~right ~left_key ~right_key in
  let out = Black_box.u2 rng ~r j in
  metrics.output_tuples <- metrics.output_tuples + Array.length out;
  out

let sample_known_n rng ~metrics ~r ~n ~left ~right ~left_key ~right_key =
  let j = join_stream metrics ~left ~right ~left_key ~right_key in
  let out = Stream0.to_array (Black_box.u1 rng ~n ~r j) in
  metrics.output_tuples <- metrics.output_tuples + Array.length out;
  out

let sample_cf rng ~metrics ~f ~left ~right ~left_key ~right_key =
  let j = join_stream metrics ~left ~right ~left_key ~right_key in
  let out = Stream0.to_array (Black_box.coin_flip rng ~f j) in
  metrics.output_tuples <- metrics.output_tuples + Array.length out;
  out
