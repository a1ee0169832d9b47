(** Work-model counters.

    The paper reports running time relative to Naive-Sample on one
    machine; absolute times do not transfer across substrates, so every
    operator additionally counts the work it performs. The dominant
    figure is {!join_output_tuples} — the size of the intermediate join
    each strategy materializes, which is exactly the quantity bounded by
    Theorems 7, 8 and 9 — so the work ratios reproduce the paper's
    relative running times in a hardware-independent way. *)

type t = {
  mutable tuples_scanned : int;
      (** Tuples read from base relations / source streams. *)
  mutable join_output_tuples : int;
      (** Tuples produced by any join operator (intermediate work). *)
  mutable index_probes : int;  (** Point lookups into an index. *)
  mutable hash_build_tuples : int;  (** Tuples inserted into join hash tables. *)
  mutable sort_tuples : int;  (** Tuples passed through sort operators. *)
  mutable output_tuples : int;  (** Tuples delivered to the consumer. *)
  mutable random_accesses : int;
      (** Random (non-sequential) tuple fetches, e.g. Olken's draws from R1. *)
  mutable rejected_samples : int;
      (** Samples discarded by rejection steps (Olken-Sample's
          inefficiency; zero for Stream-Sample by Theorem 6). *)
  mutable stats_lookups : int;
      (** Frequency-statistics / histogram lookups (the "work table"
          probes whose overhead drives the Figure F threshold sweep). *)
}

val create : unit -> t
val add : t -> t -> t
(** Component-wise sum (fresh value). *)

val total_work : t -> int
(** Scalar summary used for strategy comparisons: scanned + join output
    + probes + hash build + sort + random accesses + rejections. *)

val pp : Format.formatter -> t -> unit
val to_assoc : t -> (string * int) list
