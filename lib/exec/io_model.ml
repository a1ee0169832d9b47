type t = {
  page_size_tuples : int;
  sequential_page_cost : float;
  random_page_cost : float;
  cpu_tuple_cost : float;
}

let default_disk =
  { page_size_tuples = 100; sequential_page_cost = 1.0; random_page_cost = 4.0; cpu_tuple_cost = 0.01 }

let cost model (m : Metrics.t) =
  if model.page_size_tuples <= 0 then invalid_arg "Io_model.relative_pct: page_size_tuples <= 0";
  let seq_pages =
    (m.tuples_scanned + model.page_size_tuples - 1) / model.page_size_tuples
  in
  let random_pages = m.random_accesses + m.index_probes in
  let cpu_tuples =
    m.join_output_tuples + m.hash_build_tuples + m.sort_tuples + m.rejected_samples
    + m.stats_lookups
  in
  (float_of_int seq_pages *. model.sequential_page_cost)
  +. (float_of_int random_pages *. model.random_page_cost)
  +. (float_of_int cpu_tuples *. model.cpu_tuple_cost)

let relative_pct model ~baseline m =
  let b = cost model baseline in
  if b <= 0. then nan else 100. *. cost model m /. b
