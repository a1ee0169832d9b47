(** The optimizer's view of one join instance: which auxiliary
    structures exist (Table 1's columns), the operand cardinalities, and
    a join-size figure — exact when full statistics are declared,
    otherwise estimated through the best structure available
    ({!Rsj_stats.Join_estimate}).

    A catalog is a plain record: {!of_env} derives one from a prepared
    {!Rsj_core.Strategy.env} under a declared availability mask, and
    the golden decision tables write synthetic states directly. *)

type t = {
  availability : Rsj_core.Strategy.availability;
  n1 : int;  (** |R1|. *)
  n2 : int;  (** |R2|. *)
  left_stats : Rsj_stats.Frequency.t option;
      (** m1, present iff [availability.right_stats] (statistics are
          maintained database-wide, not per operand). *)
  right_stats : Rsj_stats.Frequency.t option;  (** m2. *)
  histogram : Rsj_stats.Histogram.End_biased.t option;
      (** End-biased histogram of R2's join attribute. *)
  join_size : float;  (** |R1 ⋈ R2|, exact or estimated. *)
  join_size_exact : bool;
  join_size_stderr : float;  (** 0 when exact. *)
}

val of_env :
  ?estimate_seed:int ->
  ?estimate_draws:int ->
  availability:Rsj_core.Strategy.availability ->
  Rsj_core.Strategy.env ->
  t
(** Snapshot a prepared join instance under an availability mask. Only
    structures the mask declares are consulted; when full statistics are
    absent the join size is estimated with [estimate_draws] draws
    (default 256) from a private generator seeded by [estimate_seed], so
    catalog construction never perturbs the env's sampling streams. The
    estimator is chosen by the fallback chain: index-assisted when an
    R2 index exists, else bifocal over the histogram, else the
    cross-product estimator. *)

val max_multiplicity : t -> float option
(** M = max_v m2(v) from statistics; from a histogram, the top tracked
    frequency (or the threshold as an upper bound when nothing is
    tracked); [None] when neither structure exists. *)

val describe : t -> string
(** One-line summary for decision traces, e.g.
    ["n1=40 n2=80 |J|=400 [index(R1) index(R2) stats(R2) histogram(R2)] skew=0.625"]. *)
