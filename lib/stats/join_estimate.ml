open Rsj_relation
module Prng = Rsj_util.Prng
module Counter = Rsj_index.Int_index.Counter

type estimate = { value : float; stderr : float; draws : int }

let mean_stderr xs =
  let n = Array.length xs in
  if n = 0 then (0., 0.)
  else begin
    let mean = Rsj_util.Stats_math.mean xs in
    let stderr =
      if n < 2 then 0. else Rsj_util.Stats_math.stddev xs /. sqrt (float_of_int n)
    in
    (mean, stderr)
  end

let cross_product rng ~left ~right ~left_key ~right_key ~r1 ~r2 =
  if r1 <= 0 || r2 <= 0 then invalid_arg "Join_estimate.cross_product: r1, r2 must be positive";
  let n1 = Relation.cardinality left and n2 = Relation.cardinality right in
  if n1 = 0 || n2 = 0 then { value = 0.; stderr = 0.; draws = 0 }
  else begin
    let s1 = Array.init r1 (fun _ -> Tuple.attr (Relation.random_row left rng) left_key) in
    let s2 = Array.init r2 (fun _ -> Tuple.attr (Relation.random_row right rng) right_key) in
    (* Count matches via a small frequency map over s2's keys. *)
    let counts = Counter.create ~capacity:(2 * r2) () in
    Array.iter
      (fun v -> if not (Value.is_null v) then Counter.add counts (Column.key v) 1)
      s2;
    (* Per-s1-draw matching fraction, for a CLT interval over r1. *)
    let per_draw =
      Array.map
        (fun v -> float_of_int (Counter.get counts (Column.find_key v)) /. float_of_int r2)
        s1
    in
    let mean, stderr = mean_stderr per_draw in
    let scale = float_of_int n1 *. float_of_int n2 in
    { value = scale *. mean; stderr = scale *. stderr; draws = r1 + r2 }
  end

let index_assisted rng ~left ~right_index ~left_key ~draws =
  if draws <= 0 then invalid_arg "Join_estimate.index_assisted: draws must be positive";
  let n1 = Relation.cardinality left in
  if n1 = 0 then { value = 0.; stderr = 0.; draws = 0 }
  else begin
    let xs =
      Array.init draws (fun _ ->
          let t = Relation.random_row left rng in
          float_of_int (Rsj_index.Hash_index.multiplicity right_index (Tuple.attr t left_key)))
    in
    let mean, stderr = mean_stderr xs in
    let scale = float_of_int n1 in
    { value = scale *. mean; stderr = scale *. stderr; draws }
  end

let bifocal rng ~left ~right ~left_key ~right_key ~histogram ~draws =
  if draws <= 0 then invalid_arg "Join_estimate.bifocal: draws must be positive";
  let n1 = Relation.cardinality left in
  (* Exact hot part Σ_hi m1·m2 from one scan of R1, m2 from the
     histogram; cold part from R2's low-frequency keys. *)
  let tracked = Histogram.End_biased.int_tracked histogram in
  let hot = ref 0. in
  Array.iter
    (fun k -> hot := !hot +. float_of_int (Counter.get tracked k))
    (Column.int_view left ~col:left_key);
  let hot = !hot in
  let cold_m2 = Counter.create ~capacity:256 () in
  Array.iter
    (fun k -> if k <> Column.null_key && Counter.get tracked k = 0 then Counter.add cold_m2 k 1)
    (Column.int_view right ~col:right_key);
  if n1 = 0 then { value = hot; stderr = 0.; draws = 0 }
  else begin
    let xs =
      Array.init draws (fun _ ->
          let t = Relation.random_row left rng in
          float_of_int (Counter.get cold_m2 (Column.find_key (Tuple.attr t left_key))))
    in
    let mean, stderr = mean_stderr xs in
    let scale = float_of_int n1 in
    { value = hot +. (scale *. mean); stderr = scale *. stderr; draws }
  end
