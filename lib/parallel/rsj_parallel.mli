(** Parallel sampling runtime on OCaml 5 domains — all eight
    strategies, WR and WoR.

    Every strategy has two implementations, each with one job: the
    paper's boxed kernel behind {!Strategy.run} is the sequential
    reference, and the chunked runner here is the one fast path, at
    every [domains >= 1] (the daemon, the CLI and the SQL engine's
    two-table [SAMPLE] all come through it). The runners read the join
    columns as flat int arrays ({!Rsj_relation.Column.int_view}, total
    over every key type) and return join positions — (R1 row, R2 row)
    pairs — which {!draw} hands back as they are, and which {!run} and
    {!run_wor} turn into tuples once, through
    {!Rsj_relation.Relation.rehydrate}. How a key is stored never
    changes the sample: a string-, float- or int-keyed copy of a join
    draws the same row pairs at the same seed.

    Worker domains come from the persistent {!Domain_pool}: spawned
    once, parked on a condition variable between calls, reused by
    every parallel entry point in the tree, so a sweep of thousands of
    parallel calls pays O(max domains) spawns rather than
    O(calls × domains).

    Stream-, Group- and Count-Sample scan no R1 rows: their first step,
    S1 (R1 rows weighted by m2(t.A)), is [r] O(1) draws on the calling
    domain from the root table of the env's two-way walker
    ({!Rsj_core.Strategy.env_walker}, built once per env, or once per
    relation pair through the structure cache). Stream-Sample is that
    walker's walk ({!Rsj_core.Chain_sample.sample_rows} at k = 2): one
    uniform pick in R2's index bucket per draw — O(r) in all. Longer
    chains walk the same kernel through {!draw}'s [Chain] request.

    Scans (Naive, the partition strategies, and Group's and Count's R2
    matching passes) are distributed by the chunk-queue scheduler
    {!Chunk_scheduler}: the relation is cut into fixed-size row
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

    Auxiliary structures (hash index, frequency statistics, histogram,
    two-way walker) are shared read-only across domains. *)

module Strategy = Rsj_core.Strategy

module Chunk_scheduler : module type of Chunk_scheduler
(** The chunk-queue scheduler, exposed for tests and benchmarks. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [~domains] for
    the current machine. *)

type drawn = {
  relations : Rsj_relation.Relation.t array;  (** The sampled relations, in join order. *)
  rows : int array;
      (** The join positions in {!Rsj_relation.Relation.rehydrate}'s
          layout: one row id per relation per drawn tuple. *)
  metrics : Rsj_exec.Metrics.t;
  elapsed_seconds : float;  (** The draw's wall time; no tuple is built. *)
}

type request =
  | Pair of { env : Strategy.env; strategy : Strategy.t; wor : bool }
      (** A Table-1 strategy on the chunked runner, WR or WoR. *)
  | Chain of { walker : Rsj_core.Chain_sample.t; rng : Rsj_util.Prng.t }
      (** [r] walks of the chain walker on the calling domain, from
          [rng]; [domains] only labels the run. *)

val draw : request -> r:int -> domains:int -> drawn
(** The one sampling run: positions, not tuples. One
    [strategy.<name>] span (["chain-walk"] for a chain) over the draw,
    one [rsj_strategy_run_seconds] observation, and the work counters
    folded into the registry. {!run} and {!run_wor} are this plus
    {!Rsj_relation.Relation.rehydrate}; the daemon builds tuples from
    the positions one frame at a time instead. Raises as {!run}. *)

val run : Strategy.env -> Strategy.t -> r:int -> domains:int -> Strategy.result
(** [run env strategy ~r ~domains] draws a WR sample of size [r] like
    {!Strategy.run}, executed through the chunk-scheduled pooled
    runtime for every [domains >= 1] ([domains - 1] pool workers plus
    the caller; at [domains = 1] the caller runs every chunk itself).
    A caller that wants the sequential reference calls {!Strategy.run}
    instead. The sample's distribution never
    depends on [domains]; for a fixed seed the drawn
    tuples are bit-identical across all [domains >= 1] for every
    strategy except Olken at [domains > 1] on int keys (speculative
    ticketing — see above). As in {!Strategy.run}, auxiliary structures
    — here including the two-way walker and the int planes
    of the statistics and histogram — are forced before the clock
    starts, and a fresh child generator is split off the env per run.
    Every scan is cut at {!Chunk_scheduler.default_chunk_size}. The
    result's seconds cover the draw and a [rehydrate] span after it.
    Raises [Invalid_argument] when [r < 0] or [domains < 1]. *)

val run_wor : Strategy.env -> Strategy.t -> r:int -> domains:int -> Strategy.result
(** [run_wor env strategy ~r ~domains] draws a without-replacement
    sample of [min r |J|] distinct join positions, on the pooled
    runtime for [domains >= 1]. On a set join these are distinct
    tuples, as in {!Strategy.run_wor}; on a bag join a tuple appears
    at most as often as its multiplicity.

    Naive-Sample feeds every enumerated join pair of a chunk into a
    private without-replacement reservoir (Vitter's Algorithm R,
    {!Rsj_core.Reservoir.Wor}); the chunk-order Wor merge makes the
    result distributed as one sequential pass over the join. Every other
    strategy runs the §3 conversion through {!Strategy.wor_batches}:
    WR batches of [min r |J|] positions from the strategy's chunked
    runner, deduplicated on the positions until the target is reached.
    Either way the request is one strategy span and one run-time
    observation; the batches count in [rsj_wor_batches_total].

    Deterministic for a fixed seed across all [domains >= 1] (Olken
    excepted, as for {!run}). Raises {!Strategy.Wor_shortfall} when 64
    batches cannot reach the target, and [Invalid_argument] on
    [r < 0] or [domains < 1]. *)
