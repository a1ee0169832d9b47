(** Strategy Stream-Sample (paper §6.1) — the headline Case B strategy.

    Step 1: draw a weighted WR sample S1 of size r from the streaming
    R1, weighting each tuple t by m2(t.A) (frequency of its join value
    in R2). Step 2: for each sampled t1, draw one uniform random
    matching tuple t2 from R2 via the index and output t1 ⋈ t2.

    Theorem 6: the result is a WR sample of R1 ⋈ R2 and {e exactly one}
    iteration is spent per output tuple — no rejection, no index or
    materialization of R1 (contrast Olken-Sample).

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
  right_index:Rsj_index.Hash_index.t ->
  ?right_stats:Rsj_stats.Frequency.t ->
  ?total_weight:float ->
  unit ->
  Tuple.t array
(** WR sample of size [r] of R1 ⋈ R2; shorter only when the join is
    empty (then [[||]]).

    Weights come from [right_stats] when provided (the "statistics" of
    Table 1 — one stats lookup per streamed tuple), otherwise from index
    multiplicity probes. When [total_weight] (= Σ_t m2(t.A) over R1,
    which equals |J|) is supplied, the online Black-Box WR1 is used —
    O(1) memory, output begins before R1 is drained; otherwise the
    reservoir Black-Box WR2 is used, which needs no advance knowledge.
    Both produce identical distributions. *)
