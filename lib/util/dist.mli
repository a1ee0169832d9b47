(** Random variate generation for the distributions the paper relies on.

    The sequential black boxes U1 and WR1 (paper §4) consume one
    Binomial(x, p) draw per input tuple, so {!binomial} must be exact (the
    correctness proofs of Theorems 1 and 3 depend on it) and fast for the
    small-mean case that dominates streaming use. {!Zipf} reproduces the
    data generator of §8.1. *)

val binomial : Prng.t -> n:int -> p:float -> int
(** [binomial rng ~n ~p] draws from Binomial(n, p) exactly.

    Implementation: for small mean, sequential inversion from 0 (expected
    O(np) work); the uniform is drawn first, and when it lies below a
    proven lower bound on (1-p)^n the answer is 0 without computing the
    pow (one draw, one compare). For large mean, inversion started at
    the mode and expanded outwards (expected O(sqrt(np(1-p))) work). [p]
    outside [\[0,1\]] is clamped. Raises [Invalid_argument] if [n < 0]. *)

val geometric : Prng.t -> p:float -> int
(** [geometric rng ~p] is the number of failures before the first success
    of a Bernoulli(p) sequence (support 0, 1, 2, ...). Requires
    [0 < p <= 1]. Used for skip-ahead sampling (Vitter-style). *)

(** Precomputed discrete distribution supporting O(log k) draws by binary
    search on the CDF. Only {!Zipf} (the workload generator, whose draw
    stream every fixed-seed table pins) builds one; the tests keep it
    as the reference {!Alias_table} is checked against. *)
module Cdf_table : sig
  type t

  val of_weights : float array -> t
  (** Build from non-negative weights with positive sum. *)

  val draw : t -> Prng.t -> int
  (** Draw an index with probability proportional to its weight. *)
end

(** Walker/Vose alias table: O(k) construction, O(1) draws — the one
    table every repeated-draw path builds (the S1 root table, the
    chain walker, the negative control). Vose's construction over one
    flat array of threshold/donor pairs. The table is
    immutable and safe to share across domains. Draws are
    distribution-identical to {!Cdf_table} over the same weights, not
    draw-for-draw identical. *)
module Alias_table : sig
  type t

  val of_weights : float array -> t
  (** Build from non-negative weights with positive sum (one validation
      pass, shared with {!Cdf_table.of_weights}). *)

  val draw : t -> Prng.t -> int
  (** Draw an index with probability proportional to its weight: one
      {!Prng.int} cell pick and one {!Prng.bits53} threshold compare.
      O(1), allocation-free. *)
end

(** The Zipfian data distribution of the paper's experimental setup
    (§8.1): value of rank [i] (1-based) has probability proportional to
    [1 / i^z] over a domain of [support] distinct values. [z = 0] is the
    uniform distribution; the paper uses z in {0, 1, 2, 3}. *)
module Zipf : sig
  type t

  val create : z:float -> support:int -> t
  (** [create ~z ~support] precomputes the CDF. Raises [Invalid_argument]
      if [support <= 0] or [z < 0]. *)

  val draw : t -> Prng.t -> int
  (** [draw t rng] returns a rank in [\[1, support\]]; rank 1 is the most
      frequent. The paper generates both join columns with the same rank
      order so that hot values collide ({i "the most frequent value was
      picked in the same order in each case"}). *)

  val z : t -> float
end
