(** Columnar int-key views of a relation — the compact data plane.

    Every join-key column is extracted once into a flat [int array];
    the sampling inner loops then scan unboxed ints and touch
    [Tuple.t] only to rehydrate accepted rows by id through
    {!Relation.get}.

    The encoding {!key} is total and injective, and the same in every
    relation. An [Int x] outside the reserved band — the 2{^32} ints
    starting at [min_int] — is its own key, so int columns keep their
    exact values. Every other non-[Null] value ([Str], [Float], and an
    [Int] inside the band, [min_int] included) gets a code inside the
    band from one process-wide dictionary, which compares values with
    {!Value.equal}: two cells share a key exactly when the boxed
    structures would join them. [Null] maps to {!null_key}, which is
    never handed out as a code and which the int-plane index and
    counters treat as matching nothing. The dictionary only grows, so
    a key, and a cached view holding it, stays valid for the life of
    the process. *)

val null_key : int
(** The [Null] key ([min_int]). *)

val key : Value.t -> int
(** The int key of one value; interns a new [Str], [Float] or in-band
    [Int] in the dictionary. Safe to call from any domain. *)

val value_of_key : int -> Value.t
(** The inverse of {!key}: [Value.equal (value_of_key (key v)) v].
    Raises [Invalid_argument] on an in-band int that is no code. *)

val int_view : Relation.t -> col:int -> int array
(** [int_view t ~col] is the column's keys in row order. O(n); callers
    cache the result (strategy environments hold it lazily). *)
