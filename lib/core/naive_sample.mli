(** Strategy Naive-Sample (paper §5.3) — the Case A baseline.

    Compute the full join J = R1 ⋈ R2 and sample sequentially from the
    output pipeline with an unweighted WR black box, never materializing
    J. The only strategy available when no index or statistics exist on
    either operand; every other strategy is measured against it.

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
  right:Relation.t ->
  left_key:int ->
  right_key:int ->
  Tuple.t array
(** WR sample of size [r] (or [[||]] when the join is empty). The join
    is executed as a hash join building on [right] and streaming [left];
    its output feeds Black-Box U2 (reservoir, since |J| is unknown in
    advance). Work counted: the R2 build scan, the R1 probe scan, and
    every join output tuple — the full |J|. *)
