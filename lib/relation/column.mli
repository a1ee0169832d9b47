(** The one key encoding, and the key views of a relation's columns —
    the compact data plane.

    Every join-key column is read as a flat [int array] of keys; the
    sampling inner loops then scan unboxed ints and touch [Tuple.t] only
    to rehydrate accepted rows by id ({!Relation.rehydrate}).

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
    a key, and a view holding it, stays valid for the life of the
    process.

    A column is its key view: a relation stores an int column as its
    keys, so {!int_view} of it is the column itself. A float or string
    column's view is interned on first use, in row order, and held by
    the relation until its next append; loading never interns, so a
    column nobody joins on never fills the dictionary. *)

val null_key : int
(** The [Null] key ([min_int]). *)

val key : Value.t -> int
(** The int key of one value; interns a new [Str], [Float] or in-band
    [Int] in the dictionary. Safe to call from any domain. *)

val find_key : Value.t -> int
(** {!key} without interning: a value the dictionary has never seen
    gets {!null_key}, which no table holds. For probes of int-keyed
    tables by a boxed value. *)

val value_of_key : int -> Value.t
(** The inverse of {!key}: [Value.equal (value_of_key (key v)) v].
    Raises [Invalid_argument] on an in-band int that is no code. *)

val int_view : Relation.t -> col:int -> int array
(** [int_view t ~col] is the column's keys in row order, exactly
    {!Relation.cardinality} of them. Of an int column it is the
    column's own array (trimmed of capacity slack on first use), O(1);
    of a float or string column it is built once, O(n), and held by the
    relation until the next append. Never write to it: masking keys
    needs a copy. An append never changes a view already handed out. *)
