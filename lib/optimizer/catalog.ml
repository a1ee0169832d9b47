module Frequency = Rsj_stats.Frequency
module Histogram = Rsj_stats.Histogram
module Join_estimate = Rsj_stats.Join_estimate
module Strategy = Rsj_core.Strategy
module Prng = Rsj_util.Prng

type t = {
  availability : Strategy.availability;
  n1 : int;
  n2 : int;
  left_stats : Frequency.t option;
  right_stats : Frequency.t option;
  histogram : Histogram.End_biased.t option;
  join_size : float;
  join_size_exact : bool;
  join_size_stderr : float;
}

(* Estimation budget when the join size cannot be read off statistics:
   a few hundred draws keeps the picker's own cost negligible next to
   the n1-tuple scan every strategy pays anyway. *)
let default_estimate_draws = 256

let of_env ?(estimate_seed = 0x0CA7) ?(estimate_draws = default_estimate_draws)
    ~availability env =
  let open Rsj_relation in
  let left = Strategy.env_left env and right = Strategy.env_right env in
  let n1 = Relation.cardinality left and n2 = Relation.cardinality right in
  let a = availability in
  (* Statistics maintenance is per-database in this model: when the
     catalog declares frequency statistics it has them for both
     operands, which is what lets the second-moment formulas (Thms 7-9)
     be evaluated exactly. *)
  let left_stats = if a.Strategy.right_stats then Some (Strategy.env_left_stats env) else None in
  let right_stats = if a.Strategy.right_stats then Some (Strategy.env_right_stats env) else None in
  let histogram = if a.Strategy.right_histogram then Some (Strategy.env_histogram env) else None in
  let join_size, join_size_exact, join_size_stderr =
    match (left_stats, right_stats) with
    | Some m1, Some m2 -> (float_of_int (Frequency.join_size m1 m2), true, 0.)
    | _ ->
        (* No statistics: fall back to the sampling estimators of
           join_estimate.ml, preferring the lowest-variance one the
           available structures admit. The estimator draws from its own
           seeded generator so catalog construction never perturbs the
           env's sampling stream. *)
        let rng = Prng.create ~seed:estimate_seed () in
        let left_key = Strategy.env_left_key env and right_key = Strategy.env_right_key env in
        let est =
          if a.Strategy.right_index then
            Join_estimate.index_assisted rng ~left
              ~right_index:(Strategy.env_right_index env)
              ~left_key
              ~draws:(max 1 estimate_draws)
          else
            match histogram with
            | Some histogram ->
                Join_estimate.bifocal rng ~left ~right ~left_key ~right_key ~histogram
                  ~draws:(max 1 estimate_draws)
            | None ->
                Join_estimate.cross_product rng ~left ~right ~left_key ~right_key
                  ~r1:(max 1 (min estimate_draws n1))
                  ~r2:(max 1 (min estimate_draws n2))
        in
        (Float.max 0. est.Join_estimate.value, false, est.Join_estimate.stderr)
  in
  {
    availability;
    n1;
    n2;
    left_stats;
    right_stats;
    histogram;
    join_size;
    join_size_exact;
    join_size_stderr;
  }

let skew c =
  match c.histogram with
  | Some h when c.n2 > 0 ->
      float_of_int (Histogram.End_biased.tracked_mass h) /. float_of_int c.n2
  | _ -> (
      match c.right_stats with
      | Some m2 when Frequency.total m2 > 0 ->
          float_of_int (Frequency.max_frequency m2) /. float_of_int (Frequency.total m2)
      | _ -> 0.)

let max_multiplicity c =
  match c.right_stats with
  | Some m2 -> Some (float_of_int (Frequency.max_frequency m2))
  | None -> (
      match c.histogram with
      | Some h -> (
          match Histogram.End_biased.high_values h with
          | (_, m) :: _ -> Some (float_of_int m)
          | [] ->
              (* Nothing tracked: every multiplicity is below the
                 threshold, which is therefore a usable upper bound. *)
              Some (float_of_int (Histogram.End_biased.threshold h)))
      | None -> None)

let describe c =
  let a = c.availability in
  let flag b s = if b then Some s else None in
  let structures =
    List.filter_map Fun.id
      [
        flag a.Strategy.left_index "index(R1)";
        flag a.Strategy.right_index "index(R2)";
        flag a.Strategy.right_stats "stats(R2)";
        flag a.Strategy.right_histogram "histogram(R2)";
      ]
  in
  Printf.sprintf "n1=%d n2=%d |J|%s%.0f%s [%s] skew=%.3f" c.n1 c.n2
    (if c.join_size_exact then "=" else "~")
    c.join_size
    (if c.join_size_exact then "" else Printf.sprintf " (±%.0f)" c.join_size_stderr)
    (match structures with [] -> "no structures" | l -> String.concat " " l)
    (skew c)
