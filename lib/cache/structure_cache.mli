(** Warm structure cache: per-(relation, column) memoization of the
    Table-1 auxiliary structures.

    Every sampling strategy needs some subset of {index on R2,
    frequency statistics, end-biased histogram, columnar key view}
    (paper Table 1); batch execution rebuilds them per query, paying
    the very costs the paper assumes are amortized across many
    queries. This cache makes the amortization real: structures are
    built once per relation {e snapshot} and reused until the relation
    mutates, the entry is explicitly invalidated, or the LRU
    byte-budget evicts it.

    Keying: entries are keyed by {!Rsj_relation.Relation.fingerprint}
    (uid × mutation version) plus the column and structure kind, so a
    mutated relation can never be served a stale structure — the old
    fingerprint simply never matches again (the stale entry is dropped
    on next touch or by eviction).

    Eviction: a byte budget (constructor argument, or the
    [RSJ_CACHE_BYTES] knob for {!shared}) bounds the
    cache's measured heap footprint (via [Obj.reachable_words],
    excluding the base relation, which the cache does not own).
    Least-recently-used entries are dropped until the total fits; the
    entry just inserted or touched is never the victim.

    Telemetry: hits/misses/evictions/invalidations are counted both
    locally (see {!stats}) and in {!Rsj_obs.Registry} as
    [rsj_structure_cache_hits_total], [..._misses_total],
    [..._evictions_total], [..._invalidations_total] (labelled by
    structure kind) plus the [rsj_structure_cache_build_seconds]
    histogram and [rsj_structure_cache_bytes] / [..._entries] gauges —
    all exported by the daemon's [GET /metrics]. *)

open Rsj_relation

type t

val create : ?max_bytes:int -> unit -> t
(** A fresh cache. [max_bytes] bounds the measured footprint (default:
    unbounded). [max_bytes <= 0] means unbounded. *)

val shared : unit -> t
(** The process-wide cache (the SQL engine and the daemon use it).
    Created on first use with the [RSJ_CACHE_BYTES] budget (bytes;
    unset = unbounded; anything but a positive integer raises
    [Invalid_argument], see {!Rsj_obs.Config}). *)

val max_bytes : t -> int option
(** The configured budget, [None] when unbounded. *)

(* ------------------------------------------------------------------ *)
(** {1 Memoized builds}

    Each getter returns the cached structure for the relation's current
    snapshot, building (and charging a miss + build-seconds) when
    absent. A stale entry for an earlier version of the same relation
    is dropped as an invalidation. *)

val hash_index : t -> Relation.t -> key:int -> Rsj_index.Hash_index.t
val frequency : t -> Relation.t -> key:int -> Rsj_stats.Frequency.t

val histogram :
  t -> Relation.t -> key:int -> fraction:float -> Rsj_stats.Histogram.End_biased.t
(** End-biased histogram at the given threshold fraction; the fraction
    participates in the cache key (distinct fractions coexist). The
    build reuses the cached {!frequency} table. *)

val int_view : t -> Relation.t -> col:int -> int array
(** The columnar key extraction ({!Column.int_view}). Its keys stay
    valid for any join partner: the encoding is the same in every
    relation. *)

val chain : t -> Rsj_core.Chain_sample.spec -> Rsj_core.Chain_sample.t
(** The prepared chain walker (weight tables + per-value alias
    tables) for the whole spec, keyed under the root relation's uid with
    a fingerprint mixing {e every} member relation's — mutating any
    member invalidates on the next lookup. This is what makes the alias
    tables pay off under [rsj serve]: the O(k·Σ|Ri|) build happens
    once, and every later request on the same chain pays only O(k) per
    drawn tuple. *)

val env :
  t ->
  ?seed:int ->
  ?histogram_fraction:float ->
  left:Relation.t ->
  right:Relation.t ->
  left_key:int ->
  right_key:int ->
  unit ->
  Rsj_core.Strategy.env
(** A strategy env whose auxiliary-structure thunks consult this cache
    instead of building privately — the drop-in warm replacement for
    {!Rsj_core.Strategy.make_env}. Nothing is built until a strategy
    forces it, exactly like the cold env: the key views in particular
    are forced only by the parallel runtime's chunked runners, never by
    {!Rsj_core.Strategy.run}. *)

(* ------------------------------------------------------------------ *)
(** {1 Invalidation and introspection} *)

val invalidate : t -> Relation.t -> unit
(** Drop every entry belonging to the relation (any version, any
    column, any kind). *)

val clear : t -> unit
(** Drop everything. Counters keep their totals. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;  (** live entries *)
  bytes : int;  (** measured footprint of live entries *)
  by_kind : (string * (int * int)) list;
      (** per-kind [(hits, misses)] split, sorted by kind name — the
          daemon's stats RPC reports it as [by_kind], where perfbench
          reads which kinds each request's first answer built *)
}

val stats : t -> stats
