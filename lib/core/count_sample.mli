(** Strategy Count-Sample (paper §6.4) — index-free matching by a single
    scan of R2.

    Step 1–2: weighted WR sample S1 from streaming R1 (weights m2 from
    statistics); record s1(v), the number of S1 entries per join value.
    Step 3: scan R2 once; for each value v, an independent Black-Box U1
    instance with r := s1(v), n := m2(v) picks exactly s1(v)
    with-replacement samples from the m2(v) tuples of that value.
    Step 4: match each picked R2 tuple to a distinct S1 entry of the
    same value (sampling without replacement from S1), and output the
    joined pairs.

    Replaces Stream-Sample's index requirement with one sequential scan
    of R2 — total work n1 + n2 + r regardless of skew.

    This module is the strategy's sequential reference implementation
    over boxed tuples ({!Strategy.run}); the parallel runtime's chunked
    runner over flat int key columns is its fast path. *)

open Rsj_relation
open Rsj_exec

val sample :
  Rsj_util.Prng.t ->
  metrics:Metrics.t ->
  r:int ->
  left:Tuple.t Stream0.t ->
  left_key:int ->
  right:Relation.t ->
  right_key:int ->
  right_stats:Rsj_stats.Frequency.t ->
  Tuple.t array
(** WR sample of size [r] of R1 ⋈ R2 ([[||]] when empty). Raises
    [Failure] when the statistics disagree with R2's actual content
    (fewer than m2(v) tuples of a sampled value encountered). *)
