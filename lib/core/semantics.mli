(** The three semantics of [sample(R, f)] (paper §3).

    The operation "produce a uniform random sample that is an f-fraction
    of R" admits three distinct readings; every sampler and every join
    strategy in this library states which one it implements. *)

type t =
  | WR  (** With replacement: fn independent uniform draws; the sample
            is a bag. The paper develops its join strategies for WR and
            converts afterwards. *)
  | WoR  (** Without replacement: fn distinct tuples, each successive
             draw uniform over the remainder; the sample is a set. *)
  | CF  (** Independent coin flips: each tuple included independently
            with probability f; the sample size is Binomial(n, f). *)

val to_string : t -> string

val all : t list

val convertible : from:t -> into:t -> bool
(** Which conversions are possible given only the sample (paper §3
    observations 1–4): WR→WoR and CF→WoR always; WoR→WR with correct
    duplication probabilities; {b nothing} converts into CF, because CF
    assigns non-zero probability to sampling the entire relation, which
    no proper subset can realize. *)

val expected_size : t -> n:int -> f:float -> float
(** Expected sample cardinality (counting duplicates for WR). *)
