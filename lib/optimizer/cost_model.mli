(** Per-strategy expected-work formulas (Theorems 5–9, §6.4),
    parameterized by a {!Catalog.t} snapshot.

    Costs are in tuples touched: every strategy pays its operand scans
    plus the strategy-specific sampling work the paper analyzes. When
    the catalog lacks the statistics a formula reads, the model
    substitutes documented approximations (M bounded by n2, uniform
    m1 ≈ n1/d) rather than refusing — feasibility is a separate,
    structural question answered by
    {!Rsj_core.Strategy.missing_structures}. *)

type query_shape = { r : int  (** Requested sample size. *) }

val shape : r:int -> query_shape
(** Raises [Invalid_argument] when [r < 0]. *)

type verdict =
  | Feasible of float  (** Expected tuples touched. *)
  | Infeasible of string list
      (** The absent structures, in {!Rsj_core.Strategy.missing_structures}
          order. *)

type costing = {
  strategy : Rsj_core.Strategy.t;
  verdict : verdict;
  formula : string;  (** Rendered formula with substituted values. *)
}

val all_costs : Catalog.t -> query_shape -> costing list
(** One costing per strategy, in {!Rsj_core.Strategy.all} order, by
    the paper's formulas: Naive [n1+n2+|J|]; Olken [r·M·n1/|J|] (Thm 5;
    [infinity] when the join is empty and [r > 0]); Stream [n1+r]
    (Thm 6); Group [n1 + r·Σm1m2²/|J|] (Thm 7); Frequency-Partition
    [n1 + Σ_lo m1m2 + r·Σ_hi m1m2²/Σ_hi m1m2] (Thm 8); Index-Sample
    [n1 + r + Σ_lo m1m2] (Thm 9); Count/Hybrid [n1+n2+r] (§6.4). The
    uniform-m1 approximation takes d as the exact distinct count when
    statistics exist, else twice the histogram's tracked count, else
    1. *)
