(** Strategy Olken-Sample (paper §5.3; Olken & Rotem / Olken's thesis) —
    the pre-existing Case C baseline.

    Repeatedly: draw a uniform random tuple t1 from R1 (random access —
    hence the index/materialization requirement on R1), draw a uniform
    random matching tuple t2 from R2 (index), and {e accept} the pair
    with probability m2(t1.A) / M where M bounds m2; otherwise reject
    and retry. Theorem 5: expected M·n1/n iterations per output tuple.
    The rejection step is the inefficiency Stream-Sample eliminates.

    This module is the strategy's sequential reference implementation
    over boxed tuples ({!Strategy.run}); the parallel runtime's
    speculative runner over flat int key columns, built on
    {!attempt_int}, is its fast path. *)

open Rsj_relation
open Rsj_exec

val default_max_iterations : int
(** The default global iteration budget ([500_000_000]). *)

val attempt_int :
  Rsj_util.Prng.t ->
  metrics:Metrics.t ->
  left_n:int ->
  keys1:int array ->
  right_index:Rsj_index.Hash_index.t ->
  m:int ->
  int
(** One accept/reject round over the flat R1 key column: a uniform R1
    row, a uniform matching R2 row, a Bernoulli(m2(t1.A)/m) acceptance.
    The packed (left row, right row) pair ({!Internals_int.pack}) on
    acceptance, [-1] on rejection or when the row has no match. Each
    call is an iid draw — conditional on acceptance the pair is uniform
    on R1 ⋈ R2 — which is what lets the parallel runtime run
    independent rounds speculatively on every domain ({!Rsj_parallel}).
    Draws from the generator exactly as the boxed round of {!sample}
    does. [m] must bound every m2(v). *)

val sample :
  Rsj_util.Prng.t ->
  metrics:Metrics.t ->
  r:int ->
  left:Relation.t ->
  left_key:int ->
  right_index:Rsj_index.Hash_index.t ->
  ?m_bound:int ->
  ?max_iterations:int ->
  unit ->
  Tuple.t array
(** WR sample of size [r] from R1 ⋈ R2. [r <= 0] returns [[||]]
    immediately, before inspecting the input — an empty join is never
    an error (and never costs an iteration) when nothing was asked
    for.

    [m_bound] is the upper bound M on m2(v) (default: the exact maximum
    from the index, the most favourable choice for Olken — a looser
    bound only increases rejections). An empty join (no R1 key found in
    R2) returns [[||]] without a round, as every other strategy does.
    [max_iterations] (default {!default_max_iterations}) guards against
    a near-empty join, where the loop would barely ever accept:
    exceeding it raises [Failure]. Raises [Invalid_argument] if [left]
    is empty with [r > 0]. *)
