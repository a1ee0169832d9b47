(** Materialized relations: a schema plus a growable row store.

    A materialized relation supports random access by row id — the
    capability Olken-Sample needs on R1 ("sample a tuple t1 ∈ R1
    uniformly at random") and that streamed inputs deliberately lack.
    Building an index or exact statistics requires materialization;
    Case B strategies consume R1 only through {!to_stream}. *)

type t

val create : ?name:string -> ?capacity:int -> Schema.t -> t
(** Fresh empty relation. [capacity] pre-sizes the row store. *)

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int
(** Number of rows — the paper's [n]. *)

val uid : t -> int
(** Process-unique identity assigned at creation; never reused. *)

val version : t -> int
(** Mutation counter: bumped on every {!append}/{!append_unchecked}. *)

val fingerprint : t -> int
(** Identifies one immutable snapshot of one relation: combines {!uid}
    and {!version}, so any mutation (and any other relation) yields a
    different fingerprint. The {!Rsj_cache.Structure_cache} keys its
    memoized auxiliary structures on it. *)

val append : t -> Tuple.t -> unit
(** [append t row] validates [row] against the schema and stores it.
    Raises [Invalid_argument] with the validation message on mismatch. *)

val append_unchecked : t -> Tuple.t -> unit
(** Hot-path insert that skips validation (used by generators that
    construct rows from the schema itself). *)

val get : t -> int -> Tuple.t
(** [get t i] is row [i] (0-based). Raises [Invalid_argument] when out of
    range. This is the random-access primitive. *)

val rehydrate : t array -> int array -> Tuple.t array
(** [rehydrate rels rows] turns a sample of join positions into tuples.
    [rows] holds consecutive groups of [Array.length rels] row ids, one
    per relation in order; output [j] is group [j]'s rows concatenated.
    The one place where the sampling fast paths (the pooled runners,
    the chain walker) build output tuples. Raises [Invalid_argument]
    on an empty [rels], a ragged [rows] or an out-of-range id. *)

val iter : t -> (Tuple.t -> unit) -> unit
val iteri : t -> (int -> Tuple.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Tuple.t -> 'a) -> 'a

val of_tuples : ?name:string -> Schema.t -> Tuple.t list -> t
val of_rows : ?name:string -> Schema.t -> Value.t list list -> t

val to_stream : t -> Tuple.t Stream0.t
(** A single-pass cursor over the rows in storage order. The cursor does
    not reveal the relation's cardinality — strategies that need [n] must
    take it as an explicit argument, mirroring the paper's distinction
    between U1 (knows [n]) and U2 (does not). *)

val stream_range : t -> lo:int -> hi:int -> Tuple.t Stream0.t
(** Single-pass cursor over rows [lo, hi) in storage order. Raises
    [Invalid_argument] unless [0 <= lo <= hi <= cardinality]. *)

val shards : t -> n:int -> Tuple.t Stream0.t array
(** [shards t ~n] splits the row range into [n] contiguous,
    near-equal-size sub-streams covering every row exactly once. The
    shards read shared storage and are safe to consume from distinct
    domains as long as the relation is not mutated meanwhile. Raises
    [Invalid_argument] if [n <= 0]. *)

val chunk_count : t -> chunk_size:int -> int
(** Number of fixed-size chunks covering the row range —
    [ceil (cardinality / chunk_size)], 0 for an empty relation. The
    unit of work distribution for the parallel runtime's chunk-queue
    scheduler ({!Rsj_parallel.Chunk_scheduler}). Raises
    [Invalid_argument] if [chunk_size <= 0]. *)

val to_list : t -> Tuple.t list
val to_array : t -> Tuple.t array
(** Copies; mutating the result does not affect the relation. *)

val random_row : t -> Rsj_util.Prng.t -> Tuple.t
(** Uniform random row; the Olken-Sample access path. Raises
    [Invalid_argument] on an empty relation. *)

val column_values : t -> int -> Value.t array
[@@ocaml.deprecated
  "boxed column copy — hot paths use Column.int_view (the compact data plane's flat int \
   extraction) instead"]
(** All values in one column, in row order, as boxed values.

    @deprecated Hot paths should use {!Column.int_view}: the flat
    [int array] extraction that the sampling inner loops scan without
    allocation. This boxed copy remains only for debug/report code. *)
