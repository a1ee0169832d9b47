(** Numerical special functions and statistical tests.

    These routines back the exact binomial sampler ({!Dist.binomial}) and
    the chi-square uniformity tests that validate every join-sampling
    strategy against the paper's semantics. *)

val log_binomial_pmf : n:int -> p:float -> int -> float
(** [log_binomial_pmf ~n ~p k] is the log of the Binomial(n, p) probability
    mass at [k]. *)

type chi_square_result = {
  statistic : float;  (** Pearson X² statistic. *)
  dof : int;  (** Degrees of freedom used. *)
  p_value : float;  (** Upper-tail probability under H0. *)
}

val chi_square_test : expected:float array -> observed:int array -> chi_square_result
(** [chi_square_test ~expected ~observed] performs Pearson's goodness-of-fit
    test. Cells with expected count 0 must have observed count 0 and are
    dropped from the statistic. Raises [Invalid_argument] on length
    mismatch or an impossible observation in a zero cell. *)

val chi_square_uniform : observed:int array -> chi_square_result
(** Goodness-of-fit against the uniform distribution over the cells. *)

val g_test : expected:float array -> observed:int array -> chi_square_result
(** Likelihood-ratio goodness-of-fit test (G-test): G = 2 Σ O ln(O/E),
    asymptotically chi-square like Pearson's X² but more sensitive to
    cells where O and E diverge multiplicatively. Zero-expectation cells
    follow the {!chi_square_test} rules. *)

val normal_sf : float -> float
(** Upper-tail probability of the standard normal (via the regularized
    incomplete gamma; no erfc in the stdlib). *)

val normal_quantile : float -> float
(** Inverse standard-normal CDF: the [x] with [1 - normal_sf x = p]
    (bisection on {!normal_sf}, accurate to ~1e-10). Backbone of the
    confidence-parameterized CLT intervals in the optimizer's error
    reports. Raises [Invalid_argument] unless [0 < p < 1]. *)

type ks_result = {
  ks_statistic : float;  (** Sup-norm distance D_n. *)
  n : int;  (** Sample count. *)
  ks_p_value : float;  (** Q_KS with Stephens' finite-n correction. *)
}

val ks_test : cdf:(float -> float) -> samples:float array -> ks_result
(** One-sample Kolmogorov–Smirnov test of [samples] against the
    continuous CDF [cdf]. Raises [Invalid_argument] on an empty sample
    or a cdf value outside [0,1]. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on the empty array. *)

val stddev : float array -> float
(** Square root of the unbiased sample variance; [nan] when fewer than
    two observations. *)

val median : float array -> float
(** Median (averages the two central order statistics for even lengths);
    [nan] on the empty array. Does not mutate its argument. *)
