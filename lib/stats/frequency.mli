(** Exact frequency statistics for a join attribute.

    A frequency table records m(v) — the number of tuples holding value
    [v] in the attribute — for every value in the relation. These are
    the "full statistics" of the paper's Case B/C: Stream-Sample and
    Group-Sample read tuple weights m2(t.A) from such a table
    (§6.1–6.2). In the SQL Server implementation the table was "read
    from a file and stored in a work table"; here it is an in-memory
    hash map with the same information content. *)

open Rsj_relation

type t

val of_relation : Relation.t -> key:int -> t
(** One-scan construction. NULLs are not counted (they never join). *)

val of_stream : Tuple.t Stream0.t -> key:int -> t
(** Consume a stream and tabulate frequencies — used when R1's
    statistics are collected on the fly (§6.3 step 2). *)

val of_relation_parallel : ?domains:int -> Relation.t -> key:int -> t
(** [of_relation_parallel ~domains r ~key] builds the same table as
    {!of_relation} by counting contiguous row shards on [domains] OCaml
    domains and summing the per-shard tables. [domains <= 1] (the
    default) falls back to the sequential build. *)

val merge : t -> t -> t
(** [merge a b] is the fresh table with m(v) = m_a(v) + m_b(v) — the
    combine step for statistics collected over disjoint shards. *)

val of_assoc : (Value.t * int) list -> t
(** Build directly from (value, frequency) pairs; frequencies must be
    positive. For tests and synthetic scenarios. *)

val frequency : t -> Value.t -> int
(** m(v); 0 for unseen values. The paper's m1/m2 functions. *)

val int_counter : t -> Rsj_index.Int_index.Counter.t
(** The data-plane view of the table: the same counts keyed by
    {!Column.key}, for inner loops scanning a {!Column.int_view} key
    column ([Counter.get c (Column.key v)] = [frequency t v] for every
    non-[Null] [v]). Built with the table by {!of_relation}, derived on
    first use otherwise. *)

val total : t -> int
(** Sum of all frequencies (= number of non-NULL tuples scanned). *)

val distinct_count : t -> int
val max_frequency : t -> int
(** The Olken bound M = max_v m(v); 0 for an empty table. *)

val iter : t -> (Value.t -> int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Value.t -> int -> 'a) -> 'a
val to_assoc : t -> (Value.t * int) list
(** Pairs sorted by decreasing frequency, ties by value order —
    end-biased histogram construction relies on this ordering. *)

val values_above : t -> threshold:int -> (Value.t * int) list
(** Values with m(v) >= threshold, sorted by decreasing frequency. *)

val join_size : t -> t -> int
(** [join_size m1 m2] is |R1 ⋈ R2| = Σ_v m1(v)·m2(v) (§5). *)

val restrict : t -> keep:(Value.t -> bool) -> t
(** Sub-table retaining only values satisfying [keep] — the paper's
    R|D' restriction at the statistics level. *)
