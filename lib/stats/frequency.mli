(** Exact frequency statistics for a join attribute.

    A frequency table records m(v) — the number of tuples holding value
    [v] in the attribute — for every value in the relation. These are
    the "full statistics" of the paper's Case B/C: Stream-Sample and
    Group-Sample read tuple weights m2(t.A) from such a table
    (§6.1–6.2). In the SQL Server implementation the table was "read
    from a file and stored in a work table"; here it is one int-keyed
    counter over {!Column.key}, the encoding the index and the key
    views share. The boxed functions below encode or decode values
    only at their boundary. *)

open Rsj_relation

type t

val of_relation : Relation.t -> key:int -> t
(** One scan of the column's key view. NULLs are not counted (they
    never join). *)

val of_relation_parallel : ?domains:int -> Relation.t -> key:int -> t
(** [of_relation_parallel ~domains r ~key] builds the same table as
    {!of_relation} by counting contiguous shards of the key view on
    [domains] OCaml domains and summing the per-shard tables.
    [domains <= 1] (the default) falls back to the sequential build. *)

val frequency : t -> Value.t -> int
(** m(v); 0 for unseen values. The paper's m1/m2 functions. *)

val int_counter : t -> Rsj_index.Int_index.Counter.t
(** The table itself: [Counter.get c (Column.key v)] = [frequency t v]
    for every non-[Null] [v], for inner loops scanning a
    {!Column.int_view} key column. Read it, never add to it. *)

val total : t -> int
(** Sum of all frequencies (= number of non-NULL tuples scanned). *)

val distinct_count : t -> int
val max_frequency : t -> int
(** The Olken bound M = max_v m(v); 0 for an empty table. *)

val iter : t -> (Value.t -> int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Value.t -> int -> 'a) -> 'a
val to_assoc : t -> (Value.t * int) list
(** Pairs sorted by decreasing frequency, ties by value order. *)

val join_size : t -> t -> int
(** [join_size m1 m2] is |R1 ⋈ R2| = Σ_v m1(v)·m2(v) (§5). *)
