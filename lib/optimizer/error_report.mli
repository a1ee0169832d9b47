(** Per-query error guarantees for aggregates over a join sample.

    A uniform WR sample of [r] tuples from a join of known (or
    estimated) size [n] supports Horvitz–Thompson estimates of
    [SUM(g)], [COUNT], and [AVG(g)] over the join, each with two
    confidence intervals:

    - CLT: estimate ± z·s/√r using the per-draw sample variance —
      asymptotically exact, the paper's §4 accuracy story;
    - Hoeffding: distribution-free, from the declared value range —
      valid at any r, wider in exchange.

    The coverage harness (test/test_coverage.ml) checks empirically
    that both reach at least the nominal confidence. *)

type interval = { lo : float; hi : float }

type line = {
  aggregate : string;  (** ["sum"], ["count"], or ["avg"]. *)
  estimate : float;
  clt : interval;
  hoeffding : interval;
}

type t = {
  r : int;  (** Sample size. *)
  n : int;  (** Join size used for the HT scale-up. *)
  confidence : float;
  range_assumed : bool;
      (** True when no [range] was supplied and the Hoeffding bounds
          were read off the sample — indicative, not rigorous. *)
  lines : line list;  (** sum, count, avg — in that order. *)
}

val make :
  ?confidence:float ->
  ?range:float * float ->
  ?pred:(Rsj_relation.Tuple.t -> bool) ->
  sample:Rsj_relation.Tuple.t array ->
  n:int ->
  col:int ->
  unit ->
  t
(** [make ~sample ~n ~col ()] reports on aggregates of column [col]
    (Int/Float read numerically; Null/Str as 0) over join rows
    satisfying [pred] (default: all). [confidence] defaults to 0.95.
    [range] is the a-priori bound on the column's values required for a
    rigorous Hoeffding interval. The avg line restricts to qualifying
    draws; with none, its estimate is [nan] with infinite intervals.
    Raises [Invalid_argument] on an empty sample, negative [n],
    confidence outside (0,1), or an inverted range. *)

val to_string : t -> string
