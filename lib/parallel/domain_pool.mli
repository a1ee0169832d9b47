(** Persistent pool of worker domains.

    Spawning a domain costs far more than the work most of our parallel
    calls hand it — the conformance sweep alone used to spin up and
    join domains thousands of times per run. The pool spawns each
    worker once, parks it on a condition variable between jobs, and
    reuses it for every subsequent parallel call, so a whole process
    pays O(max domains requested) spawns instead of O(calls × domains).

    Workers start lazily: a fresh pool holds none, and {!run} grows it
    to [domains - 1] workers on demand (the calling domain always
    executes index 0). Requests are sized by whatever the caller asks
    for — the CLI's [--domains], the test suite's domain counts — so the
    pool never holds more workers than the largest request seen.

    Park/wake protocol: each worker owns a [Mutex.t]/[Condition.t]
    pair and blocks in [Condition.wait] while it has no job; the
    caller installs a job and signals, the worker runs it, clears its
    busy flag and signals back, and the caller waits on the same
    condition until every claimed worker is idle again. A worker that
    raises does not die: the exception (with its backtrace) is caught
    in the job wrapper, carried back to the caller, and re-raised
    there after the barrier — the pool stays usable.

    Determinism: {!run} only decides {e where} [f k] executes, never
    with what arguments; as long as [f] depends only on [k] (the
    chunk-queue discipline), results are identical whether a task ran
    on the caller, a pooled worker, or the sequential fallback. *)

type t
(** A pool handle. {!run} holds the pool for the duration of the
    call, and a reentrant or concurrent {!run} falls back to running
    all indices on the calling domain (same results, no parallelism)
    rather than deadlocking. *)

val global : unit -> t
(** The process-wide pool shared by the whole runtime
    ({!Chunk_scheduler}, [Rsj_parallel], the parallel statistics and
    index builders), and the only pool. Created on first use with no
    workers; an [at_exit] hook wakes every worker with a stop flag and
    joins them all, so no worker domain outlives the process' main
    flow. *)

val run : t -> domains:int -> (int -> 'a) -> 'a array
(** [run t ~domains f] evaluates [f k] for every [k ∈ [0, domains)] —
    [f 0] on the calling domain, each other index on a parked worker
    (spawning workers only if the pool holds fewer than
    [domains - 1]) — and returns the results in index order. Blocks
    until all indices finish. If any [f k] raised, the first such
    exception (lowest [k]) is re-raised with its backtrace after every
    worker has returned to idle; the pool remains usable. On a closed
    or busy pool the indices all run sequentially on the caller.
    Raises [Invalid_argument] if [domains < 0]. *)

(** {2 Spawn accounting}

    Process-wide counters over every pool, used by the benchmarks and
    EXPERIMENTS.md V9 to show the amortisation: [spawned] is what the
    pooled runtime actually paid, [unpooled_spawn_equivalent] is what
    the old spawn-per-call design would have paid for the same jobs.

    Since the telemetry subsystem (DESIGN.md §9) these counters live in
    [Obs.Registry] ([rsj_pool_workers_spawned_total],
    [rsj_pool_parallel_jobs_total],
    [rsj_pool_unpooled_spawn_equivalent_total]) — the registry is the
    single counter-export path — and {!counters} merely reads them back
    into the record shape. When tracing is enabled the pool also emits
    spawn/park/job spans and a submit→start wake-latency histogram
    ([rsj_pool_wake_latency_seconds]). *)

type counters = {
  spawned : int;  (** Worker domains ever spawned by any pool. *)
  parallel_jobs : int;  (** {!run} calls with [domains > 1]. *)
  unpooled_spawn_equivalent : int;
      (** Σ (domains - 1) over those calls — the spawns a
          pool-less runtime would have performed. *)
}

val counters : unit -> counters
