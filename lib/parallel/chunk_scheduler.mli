(** Chunk-queue scheduler: dynamic work distribution over a fixed set
    of chunks.

    Replaces the static one-contiguous-shard-per-domain split for the
    parallel runtime's scans: all chunk indices sit behind one atomic
    cursor and every domain claims the next index with a
    fetch-and-add, so domains that draw cheap chunks steal the
    remaining ones instead of idling — the residual imbalance is at
    most one chunk of work per domain, whatever the skew. Worker
    domains come from the persistent {!Domain_pool}, so each scan
    costs a condvar wake per worker rather than a spawn and join.

    Only the chunk→domain assignment is racy. [task i] must depend
    only on [i] (derive per-chunk generators with
    {!Rsj_util.Prng.split_n}, not per-domain ones); then the result
    array — one slot per chunk, each written exactly once — is a
    deterministic, schedule-independent function of the input, and
    combining it in chunk order gives reproducible samples at any
    domain count. *)

type stats = {
  chunks : int;  (** Chunks handed out in total. *)
  claims : int array;  (** Chunks claimed per domain; index 0 is the calling domain. *)
}

val default_chunk_size : n:int -> int
(** Fixed chunk size for an [n]-row scan: [n / 16] clamped to
    [\[1, 4096\]] — about sixteen claims per scan, so stealing has
    slack to act on at any realistic domain count. Independent of the
    domain count on purpose: the chunk cut fixes the per-chunk split
    generators, so the same seed yields bit-identical samples at every
    pool width. A pure function of [n]: no knob moves the cut, so no
    environment can change a fixed-seed sample. *)

val run :
  ?pool:Domain_pool.t ->
  domains:int ->
  chunks:int ->
  task:(int -> 'a) ->
  unit ->
  'a array * stats
(** [run ~domains ~chunks ~task ()] evaluates [task i] for every
    [i ∈ \[0, chunks)] across [domains] domains (the caller runs as
    domain 0; [domains - 1] workers come from [pool], defaulting to
    {!Domain_pool.global}), claiming indices off the shared cursor.
    Returns the results in chunk order plus the per-domain claim
    counts. If some [task i] raised, the exception propagates after
    all domains have drained the cursor. Raises [Invalid_argument]
    when [domains <= 0] or [chunks < 0]. *)
