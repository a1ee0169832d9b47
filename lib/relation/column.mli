(** Columnar int-key views of a relation — the compact data plane.

    Join-key columns whose every cell is [Value.Int] (or [Null]) can be
    extracted once into a flat [int array]; the sampling inner loops
    then scan unboxed ints and touch [Tuple.t] only to rehydrate
    accepted rows by id through {!Relation.get}. [Null] maps to
    {!null_key}, a sentinel that the int-plane index and counters treat
    as matching nothing — the same join semantics the boxed plane gives
    [Null]. Columns that cannot be represented (a non-int cell, or the
    sentinel itself as data) have no view: the sequential strategies
    then run their boxed kernels, and the parallel runtime falls back
    to them. *)

val null_key : int
(** The [Null] sentinel ([min_int]). Never a valid data key: a column
    containing it as a genuine value is not int-viewable. *)

val int_view : Relation.t -> col:int -> int array option
(** [int_view t ~col] is the column as a flat key array in row order,
    or [None] when some cell is neither [Int] (≠ {!null_key}) nor
    [Null]. O(n); callers cache the result (strategy environments hold
    it lazily). *)
