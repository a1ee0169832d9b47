(** Unified view over all join-sampling strategies: names, information
    requirements (the paper's Table 1), and a single entry point that
    prepares whatever auxiliary structures each strategy needs and runs
    it over a common join instance.

    The per-strategy modules ({!Naive_sample}, {!Olken_sample},
    {!Stream_sample}, {!Group_sample}, {!Frequency_partition},
    {!Index_sample}, {!Count_sample}, {!Hybrid_count}) remain the
    precise, fully-typed API; this module is the convenience layer used
    by the harness, the examples and quick experiments. *)

open Rsj_relation
open Rsj_exec

type t =
  | Naive
  | Olken
  | Stream
  | Group
  | Frequency_partition
  | Index_sample
  | Count_sample
  | Hybrid_count

val all : t list
val name : t -> string
val of_name : string -> t option
(** Case-insensitive; accepts the paper's hyphenated spellings
    ("Stream-Sample") and the short forms ("stream"). *)

(** What a strategy needs to know about an operand (Table 1). *)
type requirement =
  | Nothing  (** The operand may be a pure stream. *)
  | Index  (** Random access / index required. *)
  | Index_or_stats  (** An index or full statistics. *)
  | Statistics  (** Full frequency statistics (no index). *)
  | Partial_statistics  (** An end-biased histogram suffices. *)

val r1_requirement : t -> requirement
val r2_requirement : t -> requirement
val requirement_to_string : requirement -> string

val table1 : unit -> (string * string * string) list
(** Rows of the paper's Table 1: (strategy, R1 info, R2 info). *)

(** Which auxiliary structures the catalog actually has for a join
    instance — the optimizer's view of Table 1's columns. The flags
    describe availability, not construction cost: {!env} can always
    build anything lazily, but a picker must not choose a strategy
    whose requirements the declared catalog state cannot meet. *)
type availability = {
  left_index : bool;  (** Random access / index on R1. *)
  right_index : bool;  (** Index on R2's join attribute. *)
  right_stats : bool;  (** Full frequency statistics for R2. *)
  right_histogram : bool;  (** End-biased histogram for R2. *)
}

val all_available : availability
val nothing_available : availability

exception Missing_structure of { strategy : string; structure : string }
(** Raised by {!require_structures}; [structure] is the stable name of
    the first absent requirement (e.g. ["index(R1)"],
    ["statistics(R2)"], ["end-biased histogram(R2)"],
    ["index(R2) or statistics(R2)"], ["index(R2hi)"]). *)

val missing_structures : availability -> t -> string list
(** Structure names required by the strategy (per {!r1_requirement} /
    {!r2_requirement}, plus Index-Sample's hi-side index) that the
    availability record does not provide; [[]] means runnable. *)

val require_structures : availability -> t -> unit
(** Raise {!Missing_structure} naming the first absent requirement, or
    return unit when every requirement is met. *)

(** A prepared join instance: both relations materialized (so any
    strategy can run), auxiliary structures built lazily so a strategy
    pays only for what it requires. *)
type env

(** Optional supplier of already-built (or memoized) auxiliary
    structures. Every field defaults to "build privately"; a warm
    structure cache ({!Rsj_cache.Structure_cache}) passes thunks that
    consult it instead, so repeated envs over the same relations stop
    rebuilding. Thunks run at first force, never at env creation. *)
type prebuilt = {
  p_left_stats : (unit -> Rsj_stats.Frequency.t) option;
  p_right_stats : (unit -> Rsj_stats.Frequency.t) option;
  p_right_index : (unit -> Rsj_index.Hash_index.t) option;
  p_histogram : (unit -> Rsj_stats.Histogram.End_biased.t) option;
  p_left_key_view : (unit -> int array) option;
  p_right_key_view : (unit -> int array) option;
}

val no_prebuilt : prebuilt
(** All fields [None] — the default private builds. *)

val make_env :
  ?seed:int ->
  ?histogram_fraction:float ->
  ?structures:prebuilt ->
  left:Relation.t ->
  right:Relation.t ->
  left_key:int ->
  right_key:int ->
  unit ->
  env
(** [histogram_fraction] is the end-biased threshold as a fraction of
    |R2| (the paper's k%; default 0.05 as in Figures A–E).
    [structures] injects memoized builds (see {!prebuilt}). *)

val env_left : env -> Relation.t
val env_right : env -> Relation.t
val env_left_key : env -> int
val env_right_key : env -> int

val env_rng : env -> Rsj_util.Prng.t
(** The env's root generator. Runners split children off it (never
    draw from it directly) so successive runs stay reproducible. *)

val env_right_stats : env -> Rsj_stats.Frequency.t
val env_right_index : env -> Rsj_index.Hash_index.t
val env_histogram : env -> Rsj_stats.Histogram.End_biased.t
val env_join_size : env -> int
(** Exact |R1 ⋈ R2| (forces statistics on both sides). *)

val env_left_key_view : env -> int array
val env_right_key_view : env -> int array
(** The join columns as flat {!Column.int_view} extractions, cached
    per env. These are the compact data plane's inputs: the parallel
    runtime's chunked runners scan them. {!run} never forces them. *)

type result = {
  strategy : t;
  sample : Tuple.t array;
  metrics : Metrics.t;
  elapsed_seconds : float;  (** Wall-clock for the sampling run only
      (auxiliary-structure construction is excluded, matching the
      paper's setup where indexes and statistics pre-exist). *)
}

val prepare : env -> t -> unit
(** Force the auxiliary structures [strategy] is entitled to (Table 1),
    so a subsequent timed run excludes their construction. {!run} calls
    this itself; the parallel runtime reuses it and forces the int
    planes its runners read on top. *)

val run : env -> t -> r:int -> result
(** Draw a WR sample of size [r] with the strategy's paper kernel —
    the sequential reference implementation, over boxed tuples. A
    fresh child generator is split off the env's seed per run, so runs
    are reproducible and independent. The served fast path is
    [Rsj_parallel.run]. *)

val run_wor : env -> t -> r:int -> result
(** WoR variant: runs the strategy with WR semantics and applies the
    §3 conversion through {!wor_batches}, topping up with further WR
    batches of size [r] until [min r |J|] distinct tuples are found.
    Returns them newest first. *)

val wor_batches :
  caller:string -> target:int -> (unit -> Rsj_util.Prng.t * Tuple.t array) -> Tuple.t list
(** The §3 WR-to-WoR driver shared by {!run_wor} and the parallel
    runtime: each call of the closure yields one WR batch and the
    generator {!Convert.wr_to_wor} shuffles it with; the first
    occurrence of every distinct tuple is kept until [target] have
    accumulated, and they come back in acceptance order. Distinct
    means {!Rsj_relation.Tuple.equal}: tuples whose hashes collide are
    never merged. Raises [Failure] (prefixed with [caller]) when 64
    batches cannot reach the target. *)
