(** The paper's analytic cost formulas (Theorems 5, 7, 8, 9).

    Each [alpha_*] function returns the expected fraction of the full
    join J = R1 ⋈ R2 that a strategy materializes as intermediate
    result; the validation benches compare these predictions against
    measured work. All formulas are written over frequency statistics
    m1, m2 of the two operand relations. *)

open Rsj_relation

val self_join_moment : Frequency.t -> Frequency.t -> float
(** Σ_v m1(v)·m2(v)² — the second-moment term of Theorem 7. *)

val olken_expected_iterations : m1:Frequency.t -> m2:Frequency.t -> float
(** Theorem 5: expected iterations of Olken-Sample per output tuple,
    M·n1 / n, where M = max_v m2(v). [infinity] when the join is
    empty. *)

val alpha_group_sample : m1:Frequency.t -> m2:Frequency.t -> r:int -> float
(** Theorem 7: Group-Sample computes an expected α-fraction of J with
    α = r · Σ m1 m2² / (Σ m1 m2)². *)

val alpha_group_sample_uniform : m:int -> d:int -> r:int -> float
(** The no-skew corollary: α = r / (m·d) when every common value has
    frequency [m] in R2 and there are [d] common distinct values. *)

val alpha_frequency_partition :
  m1:Frequency.t -> m2:Frequency.t -> is_high:(Value.t -> bool) -> r:int -> float
(** Theorem 8: the hybrid strategy computes
    (Σ_lo m1 m2 + r·Σ_hi m1 m2² / Σ_hi m1 m2) / Σ m1 m2. The [is_high]
    predicate is Dhi membership (from the end-biased histogram). When
    the hi-side join is empty the second term is 0. *)

val alpha_index_sample :
  m1:Frequency.t -> m2:Frequency.t -> is_high:(Value.t -> bool) -> r:int -> float
(** Theorem 9: α = (r + Σ_lo m1 m2) / Σ m1 m2. *)

val naive_work : m1:Frequency.t -> m2:Frequency.t -> int
(** Tuples the naive strategy materializes: all of J. *)
