(** Materialized relations: a schema plus one typed column per
    attribute.

    A materialized relation supports random access by row id — the
    capability Olken-Sample needs on R1 ("sample a tuple t1 ∈ R1
    uniformly at random") and that streamed inputs deliberately lack.
    Building an index or exact statistics requires materialization;
    Case B strategies consume R1 only through {!to_stream}.

    Storage is columnar: an int column is an [int array] of
    {!Column.key}s ([Null] as {!Column.null_key}), so its key view is
    the column itself; a float column is a [float array] and a string
    column a [string array], each with a null bitmap allocated on the
    first [Null]. A {!Tuple.t} is built on demand, by {!get}, {!iter},
    {!fold}, {!to_stream}, {!random_row} and {!rehydrate}: the sampling
    fast paths read key views and row ids, and only the rows an answer
    returns become tuples. A materialised string cell shares the
    column's string. *)

type t

val create : ?name:string -> ?capacity:int -> Schema.t -> t
(** Fresh empty relation. [capacity] pre-sizes the columns. *)

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int
(** Number of rows — the paper's [n]. *)

val uid : t -> int
(** Process-unique identity assigned at creation; never reused. *)

val fingerprint : t -> int
(** Identifies one immutable snapshot of one relation: combines {!uid}
    and a mutation counter bumped on every {!append}/{!append_unchecked},
    so any mutation (and any other relation) yields a different
    fingerprint. The {!Rsj_cache.Structure_cache} keys its
    memoized auxiliary structures on it. *)

val append : t -> Tuple.t -> unit
(** [append t row] validates [row] against the schema and stores it.
    Raises [Invalid_argument] with the validation message on mismatch. *)

val append_unchecked : t -> Tuple.t -> unit
(** Hot-path insert that skips schema validation (used by generators
    that construct rows from the schema itself). A cell of another type
    than its column's still raises [Invalid_argument], possibly after
    earlier cells of the row were written; the row is not added. *)

(** {2 Loading a row cell by cell}

    The writers fill the pending row (row {!cardinality}) without
    building a {!Value.t}; {!commit} makes it live. A loader sets every
    column of the row before committing it. A writer of the wrong type
    for the column raises [Invalid_argument]. *)

val set_int : t -> col:int -> int -> unit
val set_float : t -> col:int -> float -> unit
val set_str : t -> col:int -> string -> unit
val set_null : t -> col:int -> unit
val commit : t -> unit

val get : t -> int -> Tuple.t
(** [get t i] is row [i] (0-based). Raises [Invalid_argument] when out of
    range. This is the random-access primitive. *)

val rehydrate : t array -> int array -> Tuple.t array
(** [rehydrate rels rows] turns a sample of join positions into tuples.
    [rows] holds consecutive groups of [Array.length rels] row ids, one
    per relation in order; output [j] is group [j]'s rows concatenated,
    each tuple filled straight from the columns. The one place where
    the sampling fast paths (the pooled runners, the chain walker)
    build a whole answer's tuples. Raises [Invalid_argument] on an
    empty [rels], a ragged [rows] or an out-of-range id. *)

val rehydrate_frame : t array -> int array -> first:int -> stop:int -> Tuple.t array
(** Groups [first .. stop-1] of {!rehydrate}'s output: what the daemon
    builds per rows frame, so that an answer's tuples never outlive the
    minor heap. Raises as {!rehydrate}, and on a range outside
    [rows]. *)

val iter : t -> (Tuple.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Tuple.t -> 'a) -> 'a

val of_tuples : ?name:string -> Schema.t -> Tuple.t list -> t

val to_stream : t -> Tuple.t Stream0.t
(** A single-pass cursor over the rows in storage order. The cursor does
    not reveal the relation's cardinality — strategies that need [n] must
    take it as an explicit argument, mirroring the paper's distinction
    between U1 (knows [n]) and U2 (does not). *)

val chunk_count : t -> chunk_size:int -> int
(** Number of fixed-size chunks covering the row range —
    [ceil (cardinality / chunk_size)], 0 for an empty relation. The
    unit of work distribution for the parallel runtime's chunk-queue
    scheduler ({!Rsj_parallel.Chunk_scheduler}). Raises
    [Invalid_argument] if [chunk_size <= 0]. *)

val random_row : t -> Rsj_util.Prng.t -> Tuple.t
(** Uniform random row; the Olken-Sample access path. Raises
    [Invalid_argument] on an empty relation. *)

val key_view : t -> col:int -> int array
(** {!Column.int_view}, which documents it. *)

val bytes : t -> int
(** The heap bytes the relation owns: its columns, null bitmaps and
    held key views, measured by walking them ([Obj.reachable_words])
    once per snapshot, as {!Rsj_cache.Structure_cache} sizes its
    entries. *)
