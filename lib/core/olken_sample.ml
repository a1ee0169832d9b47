open Rsj_relation
open Rsj_exec
module Hash_index = Rsj_index.Hash_index

let default_max_iterations = 500_000_000

let resolve_m_bound ~right_index = function
  | Some m ->
      if m < Hash_index.max_multiplicity right_index then
        invalid_arg "Olken_sample.sample: m_bound below the true maximum multiplicity";
      m
  | None -> Hash_index.max_multiplicity right_index

let attempt rng ~metrics ~left ~left_key ~right_index ~m =
  let open Metrics in
  metrics.random_accesses <- metrics.random_accesses + 1;
  let t1 = Relation.random_row left rng in
  let v = Tuple.attr t1 left_key in
  metrics.index_probes <- metrics.index_probes + 1;
  match Hash_index.random_match right_index rng v with
  | None ->
      metrics.rejected_samples <- metrics.rejected_samples + 1;
      None
  | Some t2 ->
      (* The acceptance probability reads m2(v) from the statistics
         (the paper's Olken assumes full statistics for R2), not
         through another index traversal. *)
      let m2v = Hash_index.multiplicity right_index v in
      metrics.stats_lookups <- metrics.stats_lookups + 1;
      let accept_p = float_of_int m2v /. float_of_int m in
      if Rsj_util.Prng.bernoulli rng accept_p then begin
        metrics.join_output_tuples <- metrics.join_output_tuples + 1;
        Some (Tuple.join t1 t2)
      end
      else begin
        metrics.rejected_samples <- metrics.rejected_samples + 1;
        None
      end

(* Columnar twin of [attempt]: same draw order (uniform row, index
   pick, m2 probe, acceptance coin) over the flat key column; returns
   the packed row pair, or -1 on rejection. *)
let attempt_int rng ~(metrics : Metrics.t) ~left_n ~(keys1 : int array) ~right_index ~m =
  let open Metrics in
  metrics.random_accesses <- metrics.random_accesses + 1;
  let row = Rsj_util.Prng.int rng left_n in
  let k = Array.unsafe_get keys1 row in
  metrics.index_probes <- metrics.index_probes + 1;
  match Hash_index.random_match_row right_index rng k with
  | -1 ->
      metrics.rejected_samples <- metrics.rejected_samples + 1;
      -1
  | r2 ->
      let m2v = Hash_index.multiplicity_key right_index k in
      metrics.stats_lookups <- metrics.stats_lookups + 1;
      let accept_p = float_of_int m2v /. float_of_int m in
      if Rsj_util.Prng.bernoulli rng accept_p then begin
        metrics.join_output_tuples <- metrics.join_output_tuples + 1;
        Internals_int.pack row r2
      end
      else begin
        metrics.rejected_samples <- metrics.rejected_samples + 1;
        -1
      end

let sample rng ~metrics ~r ~left ~left_key ~right_index ?m_bound
    ?(max_iterations = default_max_iterations) () =
  (* r = 0 asks for nothing: return before touching the input, so an
     empty or non-joining R1 (where the rejection loop could only spin
     its whole iteration budget) is never an error for a no-op draw. *)
  if r <= 0 then [||]
  else begin
    if Relation.cardinality left = 0 then
      invalid_arg "Olken_sample.sample: empty R1 with r > 0";
    let m = resolve_m_bound ~right_index m_bound in
    (* An empty join (every R1 key Null or missing from R2) is the
       empty sample, as for every other strategy: the rejection loop
       could only spin its whole budget on it. R1's keys are probed in
       order, stopping at the first one that joins; the probes draw
       nothing from [rng] and are not counted as work. *)
    let n1 = Relation.cardinality left in
    let rec joins i =
      i < n1
      && (Hash_index.multiplicity right_index (Tuple.attr (Relation.get left i) left_key) > 0
         || joins (i + 1))
    in
    if not (joins 0) then [||]
    else begin
      let out = Array.make r [||] in
      let produced = ref 0 in
      let iterations = ref 0 in
      while !produced < r do
        incr iterations;
        if !iterations > max_iterations then
          failwith "Olken_sample.sample: iteration budget exhausted (join empty or near-empty?)";
        match attempt rng ~metrics ~left ~left_key ~right_index ~m with
        | Some t ->
            out.(!produced) <- t;
            incr produced
        | None -> ()
      done;
      metrics.Metrics.output_tuples <- metrics.Metrics.output_tuples + r;
      out
    end
  end
