(** Histograms: summary statistics weaker than full frequency tables.

    The end-biased histogram is the structure Frequency-Partition-Sample
    actually requires (§6.3): exact frequencies for every value occurring
    at least [threshold] times, and nothing for the rest. The paper's
    threshold is expressed as k% of the relation size ("a threshold of
    k% means that frequency counts are kept for all values which occur
    k% of the time or more"). Like {!Frequency}, the histogram is one
    int-keyed counter over {!Column.key}. *)

open Rsj_relation

(** End-biased histogram (exact head, nothing for the tail). *)
module End_biased : sig
  type t

  val build : Frequency.t -> threshold:int -> t
  (** Keep values with frequency >= [threshold] (absolute count). *)

  val build_fraction : Frequency.t -> fraction:float -> t
  (** Paper-style threshold: keep values with m(v) >= fraction·n, where
      [n] is the table's total count. [fraction] in [\[0, 1\]]. *)

  val threshold : t -> int
  val frequency : t -> Value.t -> int option
  (** [Some m(v)] for tracked (high-frequency) values, [None] for
      untracked ones — the caller cannot distinguish "absent" from
      "below threshold", exactly the information loss the strategy must
      tolerate. *)

  val int_tracked : t -> Rsj_index.Int_index.Counter.t
  (** The tracked set itself: [Counter.get c (Column.key v)] is the
      tracked frequency of [v], and 0 unambiguously means "not tracked"
      (tracked counts are >= threshold >= 1). Read it, never add to
      it. *)

  val is_high : t -> Value.t -> bool
  (** Membership of the high-frequency subdomain Dhi. *)

  val high_values : t -> (Value.t * int) list
  (** Tracked (value, frequency) pairs, decreasing frequency. *)

  val tracked_count : t -> int
  val tracked_mass : t -> int
  (** Σ m(v) over tracked values — the size of R2hi. *)
end
