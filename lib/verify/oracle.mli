(** Exact join-distribution oracle.

    Every strategy's correctness claim is distributional: its output
    must follow the law of [sample(R1 ⋈ R2, f)] under the chosen
    semantics (paper §3). The oracle enumerates the join result
    exactly — affordable at test scale — and derives the target law
    for each semantics, giving the distribution-test kernel
    ({!Kernel}) its expected counts.

    A sample is a sample of join {e positions}. A bag join (duplicate
    output tuples) has several positions per tuple, so a cell is one
    distinct tuple t, weighted by its multiplicity c_t (1 in a set
    join), and |J| counts positions:

    - WR: [r] iid uniform positions per trial; cell t expects
      [draws·c_t/|J|] observations.
    - WoR: a uniform size-[min r |J|] subset of positions per trial;
      each position is included with probability [min r |J| / |J|]
      (the hypergeometric marginal), so cell t expects
      [trials·c_t·min(r,|J|)/|J|].
    - CF: every position independently included with probability
      [f]; cell t expects [trials·c_t·f] and the total size is
      Binomial(|J|, f) per trial ({!Rsj_core.Semantics.expected_size}).

    Also enumerates k-relation chain joins ({!of_chain}) so the
    {!Rsj_core.Chain_sample} walker is held to the same gate. *)

open Rsj_relation

type t

val of_universe : Tuple.t array -> t
(** Oracle over an externally enumerated join result (e.g. a shard of a
    larger join, or a universe produced by a reference implementation),
    one element per join position; repeated tuples share a cell. *)

val of_relations : left:Relation.t -> right:Relation.t -> left_key:int -> right_key:int -> t
(** Enumerate [left ⋈ right] by hash join, bag joins included. *)

val of_env : Rsj_core.Strategy.env -> t
(** {!of_relations} on a prepared strategy environment. *)

val of_chain : Rsj_core.Chain_sample.spec -> t
(** Enumerate a k-relation chain join by nested hash lookups, with the
    same column addressing as the spec ([join_keys.(i) = (a, b)]:
    column [a] of relation [i] equals column [b] of relation [i+1]). *)

val universe : t -> Tuple.t array
(** The distinct join tuples; index = chi-square cell. In a set join
    this is the whole join result. *)

val size : t -> int
(** |J|: the number of join positions. *)

val multiplicity : t -> int -> int
(** [multiplicity t i] is c_t of cell [i]: how many join positions
    carry that tuple. *)

val cell : t -> Tuple.t -> int option

val counter : t -> int array
(** A fresh all-zero observation array, one slot per cell. *)

val observe : t -> int array -> Tuple.t -> unit
(** Classify one sampled tuple into its cell. Raises
    [Invalid_argument] when the tuple is not in the join — a
    correctness bug strictly worse than distributional bias. *)

val wr_expected : t -> draws:int -> float array
(** Expected cell counts after [draws] total WR draws. *)

val wor_inclusion : t -> r:int -> float
(** Per-tuple inclusion probability of a size-[min r |J|] WoR sample. *)

val wor_expected : t -> trials:int -> r:int -> float array
(** Expected cell counts after [trials] independent WoR samples. *)

val cf_expected : t -> trials:int -> f:float -> float array
(** Expected cell counts after [trials] independent CF passes. *)
