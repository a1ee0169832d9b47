(** Distribution-test kernel.

    One statistical policy for every conformance check in the repo:

    - {b Tests}: Pearson chi-square and the likelihood-ratio G-test for
      cell counts against an oracle law, one-sample Kolmogorov–Smirnov
      for continuous aggregate estimates.
    - {b Bucketing}: adjacent cells are coalesced until each bucket's
      expected count reaches [min_expected], so the asymptotic null
      distributions stay valid even when trials × r is small relative
      to |J|.
    - {b Bonferroni}: a run evaluating [comparisons] outcomes tests each
      at [significance / comparisons], bounding the family-wise false
      failure rate by [significance].
    - {b Seeded repetition}: an outcome fails only when [1 + retries]
      independently seeded attempts all reject, driving the flake rate
      to [threshold^(1+retries)] while biased samplers still fail every
      attempt. The attempt index is passed to the caller so each retry
      draws fresh, deterministic randomness. *)

type config = {
  significance : float;  (** Family-wise error budget (default 0.01). *)
  comparisons : int;  (** Bonferroni divisor: outcomes in the family. *)
  retries : int;  (** Extra independently-seeded attempts (default 2). *)
  min_expected : float;  (** Bucketing floor for expected counts (5.0). *)
}

val default : config

type stat_test = Chi_square | G_test

val test_name : stat_test -> string

type outcome = {
  name : string;  (** Which test produced the verdict. *)
  statistic : float;  (** Last attempt's statistic (KS: D_n). *)
  dof : int;  (** Last attempt's dof (KS: sample count). *)
  p_value : float;  (** Last attempt's p-value. *)
  attempts : int;  (** Attempts actually run (stops at first pass). *)
  passed : bool;  (** Whether any attempt failed to reject H0. *)
}

val bucket :
  min_expected:float -> expected:float array -> observed:int array -> float array * int array
(** Coalesce adjacent cells until every bucket expects at least
    [min_expected]; the trailing underfull remainder joins the last
    bucket. Totals are preserved. *)

val goodness_of_fit :
  config ->
  stat_test ->
  expected:float array ->
  observed:int array ->
  Rsj_util.Stats_math.chi_square_result
(** One bucketed chi-square / G test (no retry policy applied). *)

val run :
  config -> stat_test -> sample:(attempt:int -> float array * int array) -> outcome
(** Goodness-of-fit with the retry policy: [sample ~attempt] returns
    (expected, observed) cell counts for that attempt's fresh seed. *)

val run_custom :
  config -> name:string -> attempt:(attempt:int -> float * int * float) -> outcome
(** Generic retry harness: [attempt] returns
    (statistic, dof, p_value). Build composite per-cell verdicts (e.g.
    CF's uniformity × size-law conjunction) on top of this. *)

val run_ks :
  config -> name:string -> cdf:(float -> float) -> sample:(attempt:int -> float array) -> outcome
(** One-sample KS with the retry policy, for aggregate-estimate laws
    (e.g. standardized Horvitz–Thompson sums against the normal CDF). *)

val z_p_value : float -> float
(** Two-sided p-value of a standard-normal z statistic. *)
