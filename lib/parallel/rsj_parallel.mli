(** Parallel sampling runtime on OCaml 5 domains — all eight
    strategies, WR and WoR.

    Every strategy has two implementations, each with one job: the
    paper's boxed kernel behind {!Strategy.run} is the sequential
    reference, and the chunked runner here is the one fast path, at
    every [domains >= 1] (the daemon, the CLI and the SQL engine's
    two-table [SAMPLE] all come through it). The runners scan the join
    columns as flat int arrays ({!Rsj_relation.Column.int_view}, total
    over every key type) and rehydrate only the sampled rows. How a key
    is stored never changes the sample: a string-, float- or int-keyed
    copy of a join draws the same row pairs at the same seed.

    Worker domains come from the persistent {!Domain_pool}: spawned
    once, parked on a condition variable between calls, reused by
    every parallel entry point in the tree, so a sweep of thousands of
    parallel calls pays O(max domains) spawns rather than
    O(calls × domains).

    Scans (everything except Olken) are distributed by the chunk-queue
    scheduler {!Chunk_scheduler}: R1 — and R2, for the Group-Sample
    and Count-Sample matching passes — is cut into fixed-size row
    ranges behind one atomic cursor, and
    domains claim chunks with a fetch-and-add, so a skew-heavy range
    cannot strand work on one domain the way a static contiguous split
    can. Every chunk carries its own split generator
    ({!Rsj_util.Prng.split_n}), metrics and mergeable accumulator
    (weighted/unit/without-replacement reservoirs, the hi/lo partition
    state); results land in per-chunk slots and merge on the calling
    domain in chunk order. Chunk state depends only on the chunk index
    — never on the claiming domain — and the chunk cut never depends
    on the domain count, so chunked strategies are bit-deterministic
    for a fixed seed {e at every domain count} and
    distribution-identical to a sequential pass.

    Olken-Sample parallelizes {e speculatively}: each domain runs
    independent accept/reject rounds ({!Rsj_core.Olken_sample.attempt_int})
    into a private buffer, and a shared atomic counter hands out the r
    acceptance tickets — ticketing and stopping never look at the
    sampled values, so the surviving pairs keep Olken's law, but which
    rounds land is timing-dependent: distribution-identical, not
    bit-reproducible, at [domains > 1].

    Auxiliary structures (hash index, frequency statistics, histogram)
    are shared read-only across domains. *)

module Strategy = Rsj_core.Strategy

module Chunk_scheduler : module type of Chunk_scheduler
(** The chunk-queue scheduler, exposed for tests and benchmarks. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [~domains] for
    the current machine. *)

val run :
  ?chunk_size:int -> Strategy.env -> Strategy.t -> r:int -> domains:int -> Strategy.result
(** [run env strategy ~r ~domains] draws a WR sample of size [r] like
    {!Strategy.run}, executed through the chunk-scheduled pooled
    runtime for every [domains >= 1] ([domains - 1] pool workers plus
    the caller; at [domains = 1] the caller runs every chunk itself).
    A caller that wants the sequential reference calls {!Strategy.run}
    instead. The sample's distribution never
    depends on [domains] or [chunk_size]; for a fixed seed the drawn
    tuples are bit-identical across all [domains >= 1] for every
    strategy except Olken at [domains > 1] on int keys (speculative
    ticketing — see above). As in {!Strategy.run}, auxiliary structures
    — here including the key views and the int planes of the
    statistics and histogram — are forced before the clock starts, and
    a fresh child generator is split off the env per run.

    [chunk_size] overrides the scheduler's
    {!Chunk_scheduler.default_chunk_size} (setting it to
    [ceil (n / domains)] reproduces the old static one-shard-per-domain
    split, which is how the benchmarks compare static sharding against
    the chunk queue). Raises [Invalid_argument] when [r < 0],
    [domains < 1] or [chunk_size <= 0]. *)

val run_wor :
  ?chunk_size:int -> Strategy.env -> Strategy.t -> r:int -> domains:int -> Strategy.result
(** [run_wor env strategy ~r ~domains] draws a without-replacement
    sample of [min r |J|] distinct join tuples like
    {!Strategy.run_wor}, executed on the pooled runtime for
    [domains >= 1].

    Naive-Sample gets a direct parallel path: every chunk of the R1
    scan feeds its enumerated join tuples into a private
    without-replacement reservoir (Vitter's Algorithm R,
    {!Rsj_core.Reservoir.Wor}), and the chunk-order merge applies the
    Wor merge law — the merged reservoir is distributed exactly as one
    sequential Algorithm R pass over the join stream. Every other
    strategy keeps the §3 conversion of {!Strategy.run_wor} — WR
    batches deduplicated by the shared driver {!Strategy.wor_batches}
    until the target is reached — with each batch drawn through
    {!run}, so the batches themselves are parallel.

    Deterministic for a fixed seed across all [domains >= 1] (Olken
    excepted, as for {!run}). Raises [Failure] when 64 batch rounds
    cannot accumulate the target (degenerate joins), like
    {!Strategy.run_wor}; raises [Invalid_argument] on [r < 0],
    [domains < 1] or [chunk_size <= 0]. *)
