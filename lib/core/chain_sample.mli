(** Exact WR sampling over a whole join chain without computing any
    join — the full push-down the paper poses as future work in §7.2
    ("we will have to sample from R1 using statistics for both R2 and
    R3. In principle, this can be done, since the operand relations are
    all base relations and their statistics can be precomputed").

    For a chain R1 ⋈ R2 ⋈ ... ⋈ Rk (each join on its own attribute
    pair), propagate weights right to left:

    - w_k(t) = 1 for t in Rk;
    - w_i(t) = Σ over matching t' in R(i+1) of w_(i+1)(t'), aggregated
      per join value so each pass is one scan;
    - |J| = Σ over t in R1 of w_1(t).

    One output tuple is drawn by walking left to right, choosing the
    next tuple with probability proportional to its weight among the
    matches — a weighted random walk whose acceptance probability is 1
    (the same idea later published as Wander Join with exact weights).
    Every draw is an independent uniform tuple of the chain join, so r
    draws form a WR sample. Preparation costs one scan of R1 ...
    R(k-1), reusing R_k's hash index; each sample costs one alias pick
    per level but the last, which picks uniformly. *)

open Rsj_relation
open Rsj_exec

type spec = {
  relations : Relation.t array;  (** R1 ... Rk, k >= 1. *)
  join_keys : (int * int) array;
      (** [join_keys.(i) = (a, b)]: R(i+1).a = R(i+2).b in 0-based
          array terms — column [a] of [relations.(i)] equals column [b]
          of [relations.(i+1)]. Length k-1. *)
}

type t
(** Prepared walker: R1's {!Root_table} over w_1 (its one builder);
    alias tables ({!Rsj_util.Dist.Alias_table}) on the inner levels
    only, one per join value over the positive-weight rows; each row's
    successor group resolved in advance; and as the last level R_k's
    own {!Rsj_index.Hash_index} plane, borrowed, where the pick is
    uniform in the bucket. *)

val last_level : spec -> Relation.t * int
(** R_k and the column {!prepare}'s index must key (column 0 when
    k = 1). Raises [Invalid_argument] on a malformed spec. *)

val prepare : ?metrics:Metrics.t -> index:Rsj_index.Hash_index.t -> spec -> t
(** Builds the weight tables over [index], the {!last_level} index.
    Raises [Invalid_argument] on shape errors and on an index over
    another relation or column. An r-draw then costs O(k·r). *)

val relations : t -> Relation.t array

val root : t -> Root_table.t
(** R1's rows weighted by w_1: at k = 2, by m2(key) — the S1 table of
    Stream-, Group- and Count-Sample. *)

val join_size : t -> float
(** Exact |J| as the total root weight (float: chains can overflow
    int range; exact up to float precision). *)

val bytes : t -> int
(** Heap bytes the walker owns: neither the spec's relations nor the
    last level's plane, which R_k's index owns. *)

val sample_rows : t -> Rsj_util.Prng.t -> ?metrics:Metrics.t -> r:int -> unit -> int array
(** The one walk kernel: [r] independent WR draws returned as join
    positions — row-id paths, [r] consecutive groups of [k] row ids
    (group [j] holds the R1..Rk row ids of draw [j]) — with no tuple
    materialization. All [r] root picks are drawn first, then the [r]
    walks, each inner pick one [Dist.Alias_table.draw] on [rng] and the
    last one {!Rsj_index.Int_index.random_row}'s [Prng.int]. At k = 2
    this is Stream-Sample. [[||]] when the join is empty. *)

val sample : t -> Rsj_util.Prng.t -> ?metrics:Metrics.t -> r:int -> unit -> Tuple.t array
(** {!sample_rows} rehydrated through {!Rsj_relation.Relation.rehydrate}:
    [r] independent uniform tuples of the chain join (concatenated
    rows), WR. [[||]] when the join is empty. *)

val draw : t -> Rsj_util.Prng.t -> ?metrics:Metrics.t -> unit -> Tuple.t option
(** [sample ~r:1]: one uniform random tuple of the chain join, or
    [None] when the join is empty. *)
