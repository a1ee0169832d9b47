(** Approximate query answering over join samples — the paper's §1
    motivation ("OLAP servers ... can significantly benefit from the
    ability to present to the user an approximate answer computed from
    a sample of the result of the query").

    All estimators take a WR sample of the join (what the strategies
    produce) together with the exact join size n = |J| (known to every
    Case B/C strategy from the statistics; Σ_v m1(v)·m2(v)). Standard
    errors use the CLT over the iid WR draws; confidence intervals are
    two-sided normal intervals. *)

open Rsj_relation

type estimate = {
  value : float;  (** Point estimate. *)
  stderr : float;  (** Estimated standard error (0 when undefined). *)
  ci_low : float;  (** value - z·stderr, z = 1.96 (95%). *)
  ci_high : float;  (** value + z·stderr. *)
}

val count_where : sample:Tuple.t array -> n:int -> pred:(Tuple.t -> bool) -> estimate
(** Estimates |{t in J : pred t}| as n·(fraction of sample matching). *)

val avg : sample:Tuple.t array -> col:int -> estimate
(** Estimates the mean of column [col] over J directly from the sample
    (no n needed). NULLs are excluded from numerator and denominator. *)

val sum_where :
  sample:Tuple.t array -> n:int -> col:int -> pred:(Tuple.t -> bool) -> estimate
(** Σ of [col] over tuples satisfying [pred]. *)

val group_sum :
  sample:Tuple.t array -> n:int -> group_col:int -> value_col:int -> (Value.t * estimate) list
(** Per-group SUM estimates. *)
