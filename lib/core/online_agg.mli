(** Online (anytime) aggregation over incremental join samples.

    The paper distinguishes its problem from Hellerstein, Haas & Wang's
    online aggregation, but the two compose naturally: any sampler that
    can produce {e one more} independent uniform join tuple on demand —
    {!Chain_sample.draw}, an Olken iteration, or batched Stream-Sample —
    drives an estimator that refines its confidence interval until a
    target precision is reached. This module is that driver.

    Estimators follow {!Aqp}: iid WR draws, CLT intervals. *)

open Rsj_relation

type target =
  | Draws of int  (** Stop after a fixed number of draws. *)
  | Relative_ci of float
      (** Stop when the 95% CI half-width falls below this fraction of
          the current estimate (and at least 30 draws were made). *)
  | Absolute_ci of float  (** Stop when the half-width falls below this value. *)

type progress = {
  draws : int;
  estimate : Aqp.estimate;  (** Current estimate with CI. *)
}

val estimate_mean :
  draw:(unit -> Tuple.t option) ->
  value:(Tuple.t -> float) ->
  ?on_progress:(progress -> unit) ->
  ?max_draws:int ->
  target ->
  progress
(** Estimate E[value(t)] for a uniform join tuple t. Draws until the
    [target] is met or [max_draws] (default 1_000_000) is reached, or
    the sampler returns [None] (empty join: the estimate is 0 draws /
    NaN). [on_progress] fires every draw-doubling (1, 2, 4, ...). *)

val estimate_count_where :
  draw:(unit -> Tuple.t option) ->
  pred:(Tuple.t -> bool) ->
  join_size:int ->
  ?on_progress:(progress -> unit) ->
  ?max_draws:int ->
  target ->
  progress
(** Estimate |{t : pred t}| as join_size · P(pred). *)
