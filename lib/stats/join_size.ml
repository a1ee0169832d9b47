module Counter = Rsj_index.Int_index.Counter

let self_join_moment m1 m2 =
  let m2 = Frequency.int_counter m2 in
  Counter.fold
    (fun k c1 acc ->
      let c2 = float_of_int (Counter.get m2 k) in
      acc +. (float_of_int c1 *. c2 *. c2))
    (Frequency.int_counter m1) 0.

let olken_expected_iterations ~m1 ~m2 =
  let n = Frequency.join_size m1 m2 in
  if n = 0 then infinity
  else
    let m = float_of_int (Frequency.max_frequency m2) in
    let n1 = float_of_int (Frequency.total m1) in
    m *. n1 /. float_of_int n

let alpha_group_sample ~m1 ~m2 ~r =
  let n = float_of_int (Frequency.join_size m1 m2) in
  if n = 0. then 0. else float_of_int r *. self_join_moment m1 m2 /. (n *. n)

let alpha_group_sample_uniform ~m ~d ~r =
  if m <= 0 || d <= 0 then invalid_arg "alpha_group_sample_uniform: m, d must be positive";
  float_of_int r /. float_of_int (m * d)

let partition_sums ~m1 ~m2 ~is_high =
  Frequency.fold m1 ~init:(0., 0., 0.) ~f:(fun (lo, hi, hi2) v c1 ->
      let c1 = float_of_int c1 in
      let c2 = float_of_int (Frequency.frequency m2 v) in
      if c2 = 0. then (lo, hi, hi2)
      else if is_high v then (lo, hi +. (c1 *. c2), hi2 +. (c1 *. c2 *. c2))
      else (lo +. (c1 *. c2), hi, hi2))

let alpha_frequency_partition ~m1 ~m2 ~is_high ~r =
  let lo, hi, hi2 = partition_sums ~m1 ~m2 ~is_high in
  let n = lo +. hi in
  if n = 0. then 0.
  else begin
    let hi_term = if hi = 0. then 0. else float_of_int r *. hi2 /. hi in
    (lo +. hi_term) /. n
  end

let alpha_index_sample ~m1 ~m2 ~is_high ~r =
  let lo, hi, _ = partition_sums ~m1 ~m2 ~is_high in
  let n = lo +. hi in
  if n = 0. then 0. else (float_of_int r +. lo) /. n

let naive_work ~m1 ~m2 = Frequency.join_size m1 m2
